//! One rank's side of a benchmark run: the round loop, failure tally,
//! timing samples, spans and per-phase counts.

use crate::counters::{Counts, PhaseProbe};
use crate::steal::Stretches;
use crate::trace::Tracer;
use litempi_core::{Communicator, MpiResult, Process};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Control tag: rank 0 tells rank 1 what the next round is.
pub const TAG_CTRL: i32 = 90;

/// What one round is for. Sent from rank 0 to rank 1 before each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Stop = 0,
    /// Fills pools, caches and lazy link state; not recorded.
    Warm = 1,
    /// Timed, tracing off: the end-to-end figures.
    Untraced = 2,
    /// Timed, spans and counts on: the per-layer figures.
    Traced = 3,
}

impl Mode {
    fn from_u64(v: u64) -> Option<Mode> {
        Some(match v {
            0 => Mode::Stop,
            1 => Mode::Warm,
            2 => Mode::Untraced,
            3 => Mode::Traced,
            _ => return None,
        })
    }
}

/// How long each part of the run lasts on rank 0's clock.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warm: Duration,
    pub min_warm_rounds: u32,
    pub timed: Duration,
    /// Alternate untraced and traced rounds, so both halves of a traced
    /// run see the same machine conditions and their difference is the
    /// tracing overhead, not drift.
    pub interleave_traced: bool,
}

impl Plan {
    /// Build the workload objects, meet at the barrier, and stop.
    pub const SETUP_ONLY: Plan = Plan {
        warm: Duration::ZERO,
        min_warm_rounds: 0,
        timed: Duration::ZERO,
        interleave_traced: false,
    };
}

/// Operations checked and operations failed. A failure is an `MpiError`
/// or a payload or result mismatch.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok<T>(&mut self, what: &str, r: MpiResult<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(&format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn check(&mut self, what: &str, good: bool) -> bool {
        self.attempted += 1;
        if !good {
            self.fail(what);
        }
        good
    }

    fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: failed op: {why}");
        }
    }
}

/// Timing samples by series name (rank 0 only).
pub type Series = BTreeMap<&'static str, Samples>;

/// One series: the exact count and sum of every sample, plus a uniform
/// random subset of at most [`Samples::CAP`] of them for order statistics
/// (reservoir sampling). The subset's memory is written once up front, so
/// the benchmark's own footprint does not grow with the run length and
/// `peak_rss_mib` measures the library.
#[derive(Debug, Clone)]
pub struct Samples {
    pub count: u64,
    pub sum: f64,
    vals: Vec<f64>,
    gen: SplitMix,
}

impl Samples {
    pub const CAP: usize = 1 << 13;

    pub fn new(stream: u64) -> Samples {
        let mut vals = Vec::with_capacity(Self::CAP);
        vals.resize(Self::CAP, 0.0);
        vals.clear();
        Samples {
            count: 0,
            sum: 0.0,
            vals,
            gen: SplitMix::new(0x5A3D_1E5B, stream),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if self.vals.len() < Self::CAP {
            self.vals.push(v);
        } else {
            let j = self.gen.next_u64() % self.count;
            if let Some(slot) = self.vals.get_mut(j as usize) {
                *slot = v;
            }
        }
    }

    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Forget every sample; the subset's memory stays.
    pub fn clear(&mut self) {
        self.count = 0;
        self.sum = 0.0;
        self.vals.clear();
    }

    /// Fold in another series: totals add up, and each side keeps a
    /// random share of the subset in proportion to the samples it stands
    /// for.
    pub fn merge(&mut self, other: &Samples) {
        let total = self.count + other.count;
        let mut theirs = other.vals.clone();
        if self.vals.len() + theirs.len() > Self::CAP {
            let mine = (Self::CAP as u128 * self.count as u128 / total.max(1) as u128) as usize;
            keep_random(&mut self.vals, mine, &mut self.gen);
            keep_random(&mut theirs, Self::CAP - self.vals.len(), &mut self.gen);
        }
        self.vals.extend(theirs);
        self.count = total;
        self.sum += other.sum;
    }
}

/// Keep a uniformly random `n` of `vals` (partial Fisher-Yates).
fn keep_random(vals: &mut Vec<f64>, n: usize, gen: &mut SplitMix) {
    let n = n.min(vals.len());
    for i in 0..n {
        let j = i + (gen.next_u64() % (vals.len() - i) as u64) as usize;
        vals.swap(i, j);
    }
    vals.truncate(n);
}

pub struct Ctx<'p> {
    pub proc: &'p Process,
    pub world: Communicator,
    pub rank: usize,
    pub mode: Mode,
    pub tally: Tally,
    pub tracer: Tracer,
    /// Per-phase counts, recorded in traced rounds only.
    pub phases: Vec<Counts>,
    /// `[untraced, traced]` samples.
    pub series: [Series; 2],
    /// Rank 0's end-to-end inputs, per stretch of timed rounds.
    pub stretches: Stretches,
}

impl<'p> Ctx<'p> {
    pub fn new(proc: &'p Process, epoch: Instant, n_phases: usize) -> Ctx<'p> {
        let world = proc.world();
        world.set_errhandler(litempi_core::Errhandler::ErrorsReturn);
        Ctx {
            proc,
            rank: proc.rank(),
            world,
            mode: Mode::Warm,
            tally: Tally::default(),
            tracer: Tracer::new(epoch, 200_000),
            phases: vec![Counts::default(); n_phases],
            series: [Series::new(), Series::new()],
            stretches: Stretches::default(),
        }
    }

    /// `[untraced, traced]` slot of the current round; `None` when the
    /// round is not timed or this is not rank 0, the only client.
    fn slot(&self) -> Option<usize> {
        if self.rank != 0 {
            return None;
        }
        match self.mode {
            Mode::Untraced => Some(0),
            Mode::Traced => Some(1),
            Mode::Warm | Mode::Stop => None,
        }
    }

    /// Record a timing sample of the current round (rank 0, timed rounds).
    pub fn sample(&mut self, key: &'static str, v: f64) {
        let Some(slot) = self.slot() else { return };
        let series = &mut self.series[slot];
        let n = series.len() as u64;
        series.entry(key).or_insert_with(|| Samples::new(n)).push(v);
    }

    /// Record one round's wall time, an end-to-end input.
    pub fn sample_round(&mut self, ms: f64) {
        self.sample("round_ms", ms);
        if let Some(slot) = self.slot() {
            self.stretches.round(slot, ms);
        }
    }

    /// Record one sample of the workload's 8 B latency op, an end-to-end
    /// input.
    pub fn sample_latency(&mut self, us: f64) {
        self.sample("latency_us", us);
        if let Some(slot) = self.slot() {
            self.stretches.latency(slot, us);
        }
    }

    /// Begin counting a phase (traced rounds only).
    pub fn phase_start(&self) -> Option<PhaseProbe> {
        (self.mode == Mode::Traced).then(|| PhaseProbe::start(self.proc, self.rank == 0))
    }

    /// End a phase of `ops` benchmark operations (counted on rank 0).
    pub fn phase_end(&mut self, probe: Option<PhaseProbe>, phase: usize, ops: u64) {
        if let Some(p) = probe {
            let ops = if self.rank == 0 { ops } else { 0 };
            p.finish(self.proc, ops, &mut self.phases[phase]);
        }
    }

    /// Rank 0 picks the next round's mode and tells rank 1; rank 1 learns
    /// it. Returns `Mode::Stop` when the run is over.
    pub fn next_mode(&mut self, plan: &Plan, t0: Instant, rounds: u32) -> Mode {
        let mode = if self.rank == 0 {
            let t = t0.elapsed();
            let mode = if t < plan.warm || rounds < plan.min_warm_rounds {
                Mode::Warm
            } else if t >= plan.warm + plan.timed {
                Mode::Stop
            } else if plan.interleave_traced && rounds % 2 == 1 {
                Mode::Traced
            } else {
                Mode::Untraced
            };
            let sent = self.world.send(&[mode as u64], 1, TAG_CTRL);
            self.tally.ok("send round control", sent);
            mode
        } else {
            let mut cmd = [0u64];
            let got = self.world.recv_into(&mut cmd, 0, TAG_CTRL);
            match self.tally.ok("recv round control", got) {
                Some(_) => Mode::from_u64(cmd[0]).unwrap_or(Mode::Stop),
                None => Mode::Stop,
            }
        };
        self.mode = mode;
        if self.rank == 0 {
            self.stretches.tick(self.slot().is_some());
        }
        self.tracer.set_on(mode == Mode::Traced);
        mode
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Bind the calling thread to the `index`-th CPU it is allowed to run on,
/// as `mpiexec --bind-to core` would bind a rank, so placement is the same
/// in every run. Unbound, round time changed by more than 2x for seconds at
/// a time as the scheduler moved the threads. Returns the CPU, or `None`
/// when there are too few CPUs or the call fails.
pub fn bind_current_thread(index: usize) -> Option<usize> {
    let mut allowed = [0u64; 16];
    // SAFETY: the mask buffer is exactly the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .nth(index)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0;
    ok.then_some(cpu)
}

/// Deterministic 64-bit generator (SplitMix64): payloads, sizes and
/// reduction inputs all come from the workload seed through it.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An integer-valued `f64` in `[0, 2^20)`: sums of two stay exact.
    pub fn next_int_f64(&mut self) -> f64 {
        (self.next_u64() >> 44) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7, 1);
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7, 1);
                move |_| g.next_u64()
            })
            .collect();
        let c = SplitMix::new(8, 1).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        let mut g = SplitMix::new(1, 2);
        assert!((0..1000).all(|_| {
            let x = g.next_int_f64();
            x.fract() == 0.0 && x < (1u64 << 20) as f64
        }));
    }

    #[test]
    fn reservoir_keeps_exact_totals_and_bounded_memory() {
        let mut s = Samples::new(0);
        let n = 3 * Samples::CAP as u64;
        for i in 0..n {
            s.push(i as f64);
        }
        assert_eq!(s.count, n);
        assert_eq!(s.sum, (n * (n - 1) / 2) as f64);
        assert_eq!(s.values().len(), Samples::CAP);
        // A uniform subset: its median sits near the population's.
        let med = crate::stats::median(s.values());
        assert!((med / (n as f64 / 2.0) - 1.0).abs() < 0.02, "median {med}");
    }

    #[test]
    fn merged_reservoirs_weigh_each_side_by_its_count() {
        let (mut a, mut b) = (Samples::new(1), Samples::new(2));
        for _ in 0..3 * Samples::CAP {
            a.push(1.0);
        }
        for _ in 0..Samples::CAP {
            b.push(2.0);
        }
        a.merge(&b);
        assert_eq!(a.count, 4 * Samples::CAP as u64);
        assert_eq!(a.sum, 5.0 * Samples::CAP as f64);
        assert_eq!(a.values().len(), Samples::CAP);
        let twos = a.values().iter().filter(|v| **v == 2.0).count();
        assert_eq!(twos, Samples::CAP / 4);
        let mut c = Samples::new(3);
        c.push(5.0);
        c.merge(&Samples::new(4));
        assert_eq!((c.count, c.values()), (1, &[5.0][..]));
    }
}
