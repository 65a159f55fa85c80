//! Benchmark-side spans around each call into a layer's public function.
//!
//! Each rank owns one [`Tracer`]. A span records its name, start, end, its
//! parent span and a group id shared by everything under one window, one
//! pingpong or one solve. Spans are kept in memory and written out after
//! the run. Self time — the span minus the time its children cover — is
//! folded into per-name totals as each span closes. Children of a span run
//! one after another on the rank's thread, so the time they cover is the
//! sum of their durations.
//!
//! A disabled tracer costs one branch per call site.

use std::io::Write;
use std::time::Instant;

/// Every span the benchmark records. `bench.*` spans group the calls of
/// one unit of work; all others wrap exactly one public library call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    BenchRound,
    BenchWindow,
    BenchPingpong,
    BenchPutEpoch,
    BenchAllreduce,
    BenchSolve,
    Barrier,
    Isend,
    Irecv,
    Send,
    Recv,
    Waitall,
    Lock,
    Put,
    Flush,
    Unlock,
    Allreduce,
    Allreduce1Mib,
    IallreducePost,
    SchedWait,
    NekboneRun,
}

impl Name {
    pub const ALL: [Name; 21] = [
        Name::BenchRound,
        Name::BenchWindow,
        Name::BenchPingpong,
        Name::BenchPutEpoch,
        Name::BenchAllreduce,
        Name::BenchSolve,
        Name::Barrier,
        Name::Isend,
        Name::Irecv,
        Name::Send,
        Name::Recv,
        Name::Waitall,
        Name::Lock,
        Name::Put,
        Name::Flush,
        Name::Unlock,
        Name::Allreduce,
        Name::Allreduce1Mib,
        Name::IallreducePost,
        Name::SchedWait,
        Name::NekboneRun,
    ];

    /// Layer prefix plus function.
    pub fn label(self) -> &'static str {
        match self {
            Name::BenchRound => "bench.round",
            Name::BenchWindow => "bench.window",
            Name::BenchPingpong => "bench.pingpong",
            Name::BenchPutEpoch => "bench.put_epoch",
            Name::BenchAllreduce => "bench.allreduce",
            Name::BenchSolve => "bench.solve",
            Name::Barrier => "core.coll.barrier",
            Name::Isend => "core.pt2pt.isend",
            Name::Irecv => "core.pt2pt.irecv",
            Name::Send => "core.pt2pt.send",
            Name::Recv => "core.pt2pt.recv",
            Name::Waitall => "core.request.waitall",
            Name::Lock => "core.rma.lock",
            Name::Put => "core.rma.put",
            Name::Flush => "core.rma.flush",
            Name::Unlock => "core.rma.unlock",
            Name::Allreduce => "core.coll.allreduce",
            Name::Allreduce1Mib => "core.coll.allreduce_1mib",
            Name::IallreducePost => "core.sched.iallreduce_post",
            Name::SchedWait => "core.sched.wait",
            Name::NekboneRun => "apps.nekbone.run",
        }
    }

    /// Does this span wrap a library call (rather than group the
    /// benchmark's own work)?
    pub fn is_layer(self) -> bool {
        !self.label().starts_with("bench.")
    }

    /// Does this span start a new group id (one window, pingpong, epoch,
    /// collective call or solve)?
    fn starts_group(self) -> bool {
        self.label().starts_with("bench.") && self != Name::BenchRound
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch;
/// `parent` indexes the span log (`NO_PARENT` for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub group: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

struct Frame {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    log_idx: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    group: u32,
    next_group: u32,
    agg: [Agg; Name::ALL.len()],
    log: Vec<Span>,
    log_cap: usize,
}

impl Tracer {
    /// A tracer keeping at most `log_cap` spans for the written-out log.
    /// Totals cover every span, logged or not.
    pub fn new(epoch: Instant, log_cap: usize) -> Tracer {
        Tracer {
            on: false,
            epoch,
            stack: Vec::with_capacity(8),
            group: 0,
            next_group: 1,
            agg: [Agg::default(); Name::ALL.len()],
            log: Vec::new(),
            log_cap,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
        // Reserved on first use, so an untraced run (and every set-up)
        // pays nothing for the log.
        if on && self.log.capacity() == 0 {
            self.log.reserve(self.log_cap.min(1 << 16));
        }
    }

    /// Run `f` inside a span named `name` (when tracing is on).
    #[inline]
    pub fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.open_at(name, self.now_ns());
        let r = f();
        self.close_at(self.now_ns());
        r
    }

    /// Open a span that groups several calls; pair with [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, name: Name) {
        if self.on {
            self.open_at(name, self.now_ns());
        }
    }

    #[inline]
    pub fn close(&mut self) {
        if self.on {
            self.close_at(self.now_ns());
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open_at(&mut self, name: Name, t_ns: u64) {
        if name.starts_group() && self.stack.iter().all(|f| !f.name.starts_group()) {
            self.group = self.next_group;
            self.next_group += 1;
        }
        let parent = self.stack.last().map_or(NO_PARENT, |f| f.log_idx);
        let log_idx = if self.log.len() < self.log_cap {
            self.log.push(Span {
                name,
                parent,
                group: self.group,
                start_ns: t_ns,
                end_ns: t_ns,
            });
            (self.log.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Frame {
            name,
            start_ns: t_ns,
            child_ns: 0,
            log_idx,
        });
    }

    pub fn close_at(&mut self, t_ns: u64) {
        let frame = self.stack.pop().expect("close without open");
        let dur = t_ns - frame.start_ns;
        let agg = &mut self.agg[frame.name.index()];
        agg.calls += 1;
        agg.self_ns += dur.saturating_sub(frame.child_ns);
        agg.total_ns += dur;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(span) = self.log.get_mut(frame.log_idx as usize) {
            span.end_ns = t_ns;
        }
        if self.stack.iter().all(|f| !f.name.starts_group()) {
            self.group = 0;
        }
    }

    pub fn agg(&self, name: Name) -> Agg {
        self.agg[name.index()]
    }

    pub fn log(&self) -> &[Span] {
        &self.log
    }

    /// Fold another rank's totals into this one's.
    pub fn merge_agg(&mut self, other: &Tracer) {
        for (a, b) in self.agg.iter_mut().zip(other.agg.iter()) {
            a.calls += b.calls;
            a.self_ns += b.self_ns;
            a.total_ns += b.total_ns;
        }
    }
}

/// Write the span logs of all ranks as tab-separated lines:
/// `rank name id parent group start_ns end_ns self_ns`.
pub fn write_log(path: &std::path::Path, ranks: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "rank\tname\tid\tparent\tgroup\tstart_ns\tend_ns\tself_ns"
    )?;
    for (rank, t) in ranks.iter().enumerate() {
        let selfs = self_times(t.log());
        for (id, (s, self_ns)) in t.log().iter().zip(selfs).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{rank}\t{}\t{id}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                s.name.label(),
                s.group,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

/// Self time of every span in a log: its duration minus its children's.
pub fn self_times(log: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = log.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in log {
        if let Some(p) = selfs.get_mut(s.parent as usize) {
            *p = p.saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        let mut t = Tracer::new(Instant::now(), 100);
        t.set_on(true);
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = tracer();
        // window [0, 100): isend [10, 30), isend [30, 45), waitall [50, 90)
        t.open_at(Name::BenchWindow, 0);
        t.open_at(Name::Isend, 10);
        t.close_at(30);
        t.open_at(Name::Isend, 30);
        t.close_at(45);
        t.open_at(Name::Waitall, 50);
        t.close_at(90);
        t.close_at(100);
        let agg = |calls, self_ns, total_ns| Agg {
            calls,
            self_ns,
            total_ns,
        };
        assert_eq!(t.agg(Name::BenchWindow), agg(1, 25, 100));
        assert_eq!(t.agg(Name::Isend), agg(2, 35, 35));
        assert_eq!(t.agg(Name::Waitall), agg(1, 40, 40));
        assert_eq!(self_times(t.log()), vec![25, 20, 15, 40]);
    }

    #[test]
    fn grandchildren_count_only_against_their_parent() {
        let mut t = tracer();
        // round [0, 1000) ⊃ solve [100, 900) ⊃ nekbone [150, 850)
        t.open_at(Name::BenchRound, 0);
        t.open_at(Name::BenchSolve, 100);
        t.open_at(Name::NekboneRun, 150);
        t.close_at(850);
        t.close_at(900);
        t.close_at(1000);
        assert_eq!(t.agg(Name::BenchRound).self_ns, 200);
        assert_eq!(t.agg(Name::BenchSolve).self_ns, 100);
        assert_eq!(t.agg(Name::NekboneRun).self_ns, 700);
        assert_eq!(self_times(t.log()), vec![200, 100, 700]);
        let parents: Vec<u32> = t.log().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1]);
    }

    #[test]
    fn groups_are_shared_within_one_unit_of_work() {
        let mut t = tracer();
        t.open_at(Name::BenchRound, 0);
        for k in 0..2u64 {
            t.open_at(Name::BenchPingpong, 10 + k * 100);
            t.open_at(Name::Send, 20 + k * 100);
            t.close_at(30 + k * 100);
            t.open_at(Name::Recv, 30 + k * 100);
            t.close_at(60 + k * 100);
            t.close_at(70 + k * 100);
        }
        t.close_at(300);
        let groups: Vec<u32> = t.log().iter().map(|s| s.group).collect();
        assert_eq!(groups, vec![0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn totals_survive_a_full_log() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.set_on(true);
        t.open_at(Name::BenchWindow, 0);
        t.open_at(Name::Isend, 5);
        t.close_at(15);
        t.close_at(20);
        assert_eq!(t.log().len(), 1);
        assert_eq!(t.agg(Name::Isend).self_ns, 10);
        assert_eq!(t.agg(Name::BenchWindow).self_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 100);
        assert_eq!(t.span(Name::Isend, || 7), 7);
        assert!(t.log().is_empty());
        assert_eq!(t.agg(Name::Isend).calls, 0);
    }
}
