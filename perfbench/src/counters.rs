//! Per-phase count diffs: `Process::comm_stats`, `Process::pool_stats` and
//! `litempi_instr::counter::probe`, taken around each phase of a round.
//! Counts come from the library's own counters, so they repeat exactly
//! whenever the traffic does.

use litempi_core::Process;
use litempi_fabric::stats::StatsSnapshot;
use litempi_fabric::PoolStats;
use litempi_instr::{Category, Probe, Report};

/// Open measurement of one phase on one rank.
pub struct PhaseProbe {
    comm: StatsSnapshot,
    pool: Option<PoolStats>,
    instr: Probe,
}

impl PhaseProbe {
    /// Start a probe. The pool counters are job-wide, so only one rank
    /// (`with_pool`) reads them.
    pub fn start(proc: &Process, with_pool: bool) -> PhaseProbe {
        PhaseProbe {
            comm: proc.comm_stats(),
            pool: with_pool.then(|| proc.pool_stats()),
            instr: litempi_instr::probe(),
        }
    }

    pub fn finish(self, proc: &Process, ops: u64, acc: &mut Counts) {
        let comm = proc.comm_stats().diff(&self.comm);
        acc.ops += ops;
        acc.msgs_sent += comm.msgs_sent;
        acc.msgs_received += comm.msgs_received;
        acc.bytes_sent += comm.bytes_sent;
        acc.am_sent += comm.am_sent;
        acc.unexpected += comm.unexpected;
        acc.wildcard_matches += comm.wildcard_matches;
        acc.max_posted_depth = acc.max_posted_depth.max(comm.max_posted_depth);
        acc.retransmits += comm.retransmits;
        acc.acks_sent += comm.acks_sent;
        acc.dup_dropped += comm.dup_dropped;
        acc.crc_failures += comm.crc_failures;
        acc.reg_cache_hits += comm.reg_cache_hits;
        acc.reg_cache_misses += comm.reg_cache_misses;
        acc.vci_contended += comm.vci_contended.iter().sum::<u64>();
        if let Some(before) = self.pool {
            let after = proc.pool_stats();
            acc.pool_takes += after.takes - before.takes;
            acc.pool_hits += after.hits - before.hits;
            acc.pool_dropped += after.dropped - before.dropped;
        }
        acc.instr = acc.instr.merge(&self.instr.finish());
        acc.allocs += self.instr.allocs();
    }
}

/// Counts accumulated over every run of one phase, summed over ranks.
/// `ops` counts the benchmark's operations (messages, puts, round trips,
/// collective calls, solves) issued by rank 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub ops: u64,
    pub msgs_sent: u64,
    pub msgs_received: u64,
    pub bytes_sent: u64,
    pub am_sent: u64,
    pub unexpected: u64,
    pub wildcard_matches: u64,
    pub max_posted_depth: u64,
    pub retransmits: u64,
    pub acks_sent: u64,
    pub dup_dropped: u64,
    pub crc_failures: u64,
    pub reg_cache_hits: u64,
    pub reg_cache_misses: u64,
    pub vci_contended: u64,
    pub pool_takes: u64,
    pub pool_hits: u64,
    pub pool_dropped: u64,
    pub instr: Report,
    pub allocs: u64,
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Counts {
    pub fn merge(&mut self, o: &Counts) {
        self.ops += o.ops;
        self.msgs_sent += o.msgs_sent;
        self.msgs_received += o.msgs_received;
        self.bytes_sent += o.bytes_sent;
        self.am_sent += o.am_sent;
        self.unexpected += o.unexpected;
        self.wildcard_matches += o.wildcard_matches;
        self.max_posted_depth = self.max_posted_depth.max(o.max_posted_depth);
        self.retransmits += o.retransmits;
        self.acks_sent += o.acks_sent;
        self.dup_dropped += o.dup_dropped;
        self.crc_failures += o.crc_failures;
        self.reg_cache_hits += o.reg_cache_hits;
        self.reg_cache_misses += o.reg_cache_misses;
        self.vci_contended += o.vci_contended;
        self.pool_takes += o.pool_takes;
        self.pool_hits += o.pool_hits;
        self.pool_dropped += o.pool_dropped;
        self.instr = self.instr.merge(&o.instr);
        self.allocs += o.allocs;
    }

    pub fn per_op(&self, n: u64) -> f64 {
        ratio(n, self.ops)
    }

    pub fn per_msg(&self, n: u64) -> f64 {
        ratio(n, self.msgs_sent)
    }

    pub fn reg_lookups(&self) -> u64 {
        self.reg_cache_hits + self.reg_cache_misses
    }

    pub fn category(&self, c: Category) -> u64 {
        self.instr.get(c)
    }

    /// One line of the per-phase isolation table.
    pub fn describe(&self) -> String {
        format!(
            "ops={} msgs/op={:.3} bytes/op={:.1} am/op={:.3} unexpected={} retransmits={} acks={} \
             crc_failures={} reg_lookups={} vci_contended={} pool_takes={} \
             instr/op[injection={:.1} reliability={:.1} rma={:.1} schedule={:.1}] allocs/op={:.3}",
            self.ops,
            self.per_op(self.msgs_sent),
            self.per_op(self.bytes_sent),
            self.per_op(self.am_sent),
            self.unexpected,
            self.retransmits,
            self.acks_sent,
            self.crc_failures,
            self.reg_lookups(),
            self.vci_contended,
            self.pool_takes,
            self.per_op(self.instr.injection_total()),
            self.per_op(self.category(Category::Reliability)),
            self.per_op(self.category(Category::Rma)),
            self.per_op(self.category(Category::Schedule)),
            self.per_op(self.allocs),
        )
    }
}
