//! The three workloads. Every one runs 2 ranks (ranks are threads), one
//! VCI, the CH4 default build, and closed loops: rank 0 waits for
//! completion or an ack before it issues more. Receivers check every
//! payload byte and every reduction result against the seeded inputs.

use crate::counters::Counts;
use crate::rank::Series;
use crate::rank::{bind_current_thread, Ctx, Mode, Plan, SplitMix, Tally};
use crate::steal::Stretch;
use crate::trace::{Name, Tracer};
use litempi_apps::nekbone::{self, NekConfig};
use litempi_core::rma::{LockType, Window};
use litempi_core::{waitall, BuildConfig, Op, Universe};
use litempi_fabric::{ProviderProfile, Topology};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallMsg,
    BulkReliable,
    CgSolve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SmallMsg,
        Workload::BulkReliable,
        Workload::CgSolve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallMsg => "small_msg",
            Workload::BulkReliable => "bulk_reliable",
            Workload::CgSolve => "cg_solve",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fabric each workload runs on, always pinned to one VCI.
    pub fn profile(self) -> ProviderProfile {
        match self {
            Workload::SmallMsg | Workload::CgSolve => ProviderProfile::infinite(),
            Workload::BulkReliable => ProviderProfile::ofi().reliable(),
        }
        .with_vcis(1)
    }

    /// Phases of one round, in the order the per-phase counts are kept.
    pub fn phases(self) -> &'static [&'static str] {
        match self {
            Workload::SmallMsg => &["stream", "pingpong", "put"],
            Workload::BulkReliable => &["eager_windows", "rndv_windows", "pingpong"],
            Workload::CgSolve => &["solve", "allreduce", "iallreduce", "allreduce_1mib"],
        }
    }
}

/// What one rank brings back from a run.
pub struct RankOut {
    pub spawned: Instant,
    pub ready: Instant,
    pub barrier_ns: f64,
    pub n_vcis: usize,
    /// The CPU the rank was bound to, if binding succeeded.
    pub cpu: Option<usize>,
    pub tally: Tally,
    pub tracer: Tracer,
    pub phases: Vec<Counts>,
    pub series: [Series; 2],
    pub stretches: [Vec<Stretch>; 2],
}

impl RankOut {
    /// Fold a later job of the same rank into this one. The span log stays
    /// this job's; span totals, counts, samples and stretches add up.
    pub fn absorb(&mut self, o: RankOut) {
        self.tally.attempted += o.tally.attempted;
        self.tally.failed += o.tally.failed;
        self.tracer.merge_agg(&o.tracer);
        for (mine, theirs) in self.phases.iter_mut().zip(&o.phases) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.series.iter_mut().zip(o.series) {
            for (key, samples) in theirs {
                match mine.get_mut(key) {
                    Some(m) => m.merge(&samples),
                    None => {
                        mine.insert(key, samples);
                    }
                }
            }
        }
        for (mine, theirs) in self.stretches.iter_mut().zip(o.stretches) {
            mine.extend(theirs);
        }
    }
}

/// Seeded inputs, generated once per run before any job and shared
/// read-only by every job and rank. `setup_s` therefore times the
/// library's set-up, not the benchmark's input generation.
pub struct Inputs {
    seed: u64,
    /// `bulk_reliable` payloads.
    pool: Arc<Vec<Vec<u8>>>,
    /// `cg_solve` 1 MiB allreduce contributions of ranks 0 and 1.
    big: [Arc<Vec<f64>>; 2],
    /// Their element-wise sum, exact because the values are integers.
    big_expect: Arc<Vec<f64>>,
}

impl Inputs {
    pub fn new(w: Workload, seed: u64) -> Inputs {
        let mut inputs = Inputs {
            seed,
            pool: Arc::default(),
            big: [Arc::default(), Arc::default()],
            big_expect: Arc::default(),
        };
        match w {
            Workload::SmallMsg => {}
            Workload::BulkReliable => {
                let max = 1usize << MAX_LOG2 as u32;
                let pool = (0..POOL_BUFS)
                    .map(|i| {
                        let mut b = vec![0u8; max];
                        SplitMix::new(seed, 100 + i as u64).fill(&mut b);
                        b
                    })
                    .collect();
                inputs.pool = Arc::new(pool);
            }
            Workload::CgSolve => {
                let vec_of = |stream| {
                    let mut g = SplitMix::new(seed, stream);
                    (0..BIG_LEN).map(|_| g.next_int_f64()).collect::<Vec<f64>>()
                };
                let (v0, v1) = (vec_of(200), vec_of(201));
                inputs.big_expect = Arc::new(v0.iter().zip(&v1).map(|(a, b)| a + b).collect());
                inputs.big = [Arc::new(v0), Arc::new(v1)];
            }
        }
        inputs
    }
}

/// Run one 2-rank job: set up, meet at a barrier, then rounds as `plan`
/// says. Returns the instant `Universe::run` was entered and each rank's
/// output.
pub fn run_universe(
    w: Workload,
    inputs: &Inputs,
    plan: Plan,
    epoch: Instant,
) -> (Instant, Vec<RankOut>) {
    let entry = Instant::now();
    let outs = Universe::run(
        2,
        BuildConfig::ch4_default(),
        w.profile(),
        Topology::single_node(2),
        |proc| {
            let spawned = Instant::now();
            let cpu = bind_current_thread(proc.rank());
            let mut ctx = Ctx::new(&proc, epoch, w.phases().len());
            let mut state = State::setup(w, &mut ctx, inputs);
            let b0 = Instant::now();
            let r = ctx.world.barrier();
            ctx.tally.ok("setup barrier", r);
            let ready = Instant::now();
            let barrier_ns = (ready - b0).as_nanos() as f64;

            let t0 = Instant::now();
            let mut rounds = 0u32;
            while ctx.next_mode(&plan, t0, rounds) != Mode::Stop {
                let r0 = Instant::now();
                ctx.tracer.open(Name::BenchRound);
                state.round(&mut ctx);
                ctx.tracer.close();
                if ctx.rank == 0 {
                    ctx.sample_round(r0.elapsed().as_secs_f64() * 1e3);
                }
                rounds += 1;
            }
            state.teardown(&mut ctx);
            RankOut {
                spawned,
                ready,
                barrier_ns,
                n_vcis: proc.n_vcis(),
                cpu,
                tally: ctx.tally,
                tracer: ctx.tracer,
                phases: ctx.phases,
                series: ctx.series,
                stretches: ctx.stretches.done,
            }
        },
    );
    (entry, outs)
}

enum State {
    Small(Box<SmallMsg>),
    Bulk(Bulk),
    Cg(Cg),
}

impl State {
    fn setup(w: Workload, ctx: &mut Ctx, inputs: &Inputs) -> State {
        match w {
            Workload::SmallMsg => State::Small(Box::new(SmallMsg::setup(ctx, inputs.seed))),
            Workload::BulkReliable => State::Bulk(Bulk::setup(inputs)),
            Workload::CgSolve => State::Cg(Cg::setup(inputs, ctx.rank)),
        }
    }

    fn round(&mut self, ctx: &mut Ctx) {
        match self {
            State::Small(s) => s.round(ctx),
            State::Bulk(b) => b.round(ctx),
            State::Cg(c) => c.round(ctx),
        }
    }

    fn teardown(self, ctx: &mut Ctx) {
        if let State::Small(s) = self {
            let r = s.win.free();
            ctx.tally.ok("window free", r);
        }
    }
}

const TAG_DATA: i32 = 1;
const TAG_ACK: i32 = 2;
const TAG_PING: i32 = 3;
const TAG_PONG: i32 = 4;

fn digest(vals: &[u64]) -> u64 {
    vals.iter()
        .fold(0u64, |acc, v| acc.rotate_left(7).wrapping_add(*v))
}

/// `n` blocking 8 B round trips; each sample is half the round trip.
fn pingpong(ctx: &mut Ctx, gen: &mut SplitMix, n: usize, phase: usize) {
    let probe = ctx.phase_start();
    for _ in 0..n {
        let v = gen.next_u64();
        let mut x = [0u64];
        let t = Instant::now();
        ctx.tracer.open(Name::BenchPingpong);
        if ctx.rank == 0 {
            let r = ctx
                .tracer
                .span(Name::Send, || ctx.world.send(&[v], 1, TAG_PING));
            ctx.tally.ok("pingpong send", r);
            let r = ctx
                .tracer
                .span(Name::Recv, || ctx.world.recv_into(&mut x, 1, TAG_PONG));
            ctx.tally.ok("pingpong recv", r);
            ctx.tracer.close();
            let dt = t.elapsed();
            ctx.tally.check("pong payload", x[0] == !v);
            ctx.sample_latency(dt.as_secs_f64() * 1e6 / 2.0);
        } else {
            let r = ctx
                .tracer
                .span(Name::Recv, || ctx.world.recv_into(&mut x, 0, TAG_PING));
            ctx.tally.ok("pingpong recv", r);
            let r = ctx
                .tracer
                .span(Name::Send, || ctx.world.send(&[!x[0]], 0, TAG_PONG));
            ctx.tally.ok("pingpong send", r);
            ctx.tracer.close();
            ctx.tally.check("ping payload", x[0] == v);
        }
    }
    ctx.phase_end(probe, phase, n as u64);
}

// ------------------------------------------------------------- small_msg

/// Messages per stream window; the receiver acks each window.
const WINDOW: usize = 64;
const STREAM_WINDOWS: usize = 8;
const PINGPONGS: usize = 64;
/// Puts per passive-target epoch, with a flush every `FLUSH_EVERY`.
const PUTS: usize = 256;
const FLUSH_EVERY: usize = 64;

struct SmallMsg {
    win: Window,
    gen: SplitMix,
}

impl SmallMsg {
    fn setup(ctx: &mut Ctx, seed: u64) -> SmallMsg {
        let win = Window::create(&ctx.world, PUTS * 8, 8).expect("window create");
        SmallMsg {
            win,
            gen: SplitMix::new(seed, 1),
        }
    }

    fn round(&mut self, ctx: &mut Ctx) {
        self.stream(ctx);
        pingpong(ctx, &mut self.gen, PINGPONGS, 1);
        self.puts(ctx);
    }

    /// 8 B `isend` → `irecv` windows of 64, acked per window.
    fn stream(&mut self, ctx: &mut Ctx) {
        let probe = ctx.phase_start();
        for _ in 0..STREAM_WINDOWS {
            let vals: [u64; WINDOW] = std::array::from_fn(|_| self.gen.next_u64());
            let t = Instant::now();
            ctx.tracer.open(Name::BenchWindow);
            if ctx.rank == 0 {
                let mut reqs = Vec::with_capacity(WINDOW);
                for v in &vals {
                    let r = ctx.tracer.span(Name::Isend, || {
                        ctx.world.isend(std::slice::from_ref(v), 1, TAG_DATA)
                    });
                    reqs.extend(ctx.tally.ok("isend", r));
                }
                let r = ctx.tracer.span(Name::Waitall, || waitall(reqs));
                ctx.tally.ok("waitall sends", r);
                let mut ack = [0u64];
                let r = ctx
                    .tracer
                    .span(Name::Recv, || ctx.world.recv_into(&mut ack, 1, TAG_ACK));
                ctx.tally.ok("recv window ack", r);
                ctx.tracer.close();
                let dt = t.elapsed().as_secs_f64();
                ctx.tally
                    .check("window ack digest", ack[0] == digest(&vals));
                ctx.sample("stream_msgs_per_s", WINDOW as f64 / dt);
            } else {
                let mut bufs = [0u64; WINDOW];
                let mut reqs = Vec::with_capacity(WINDOW);
                for b in bufs.chunks_mut(1) {
                    let r = ctx
                        .tracer
                        .span(Name::Irecv, || ctx.world.irecv(b, 0, TAG_DATA));
                    reqs.extend(ctx.tally.ok("irecv", r));
                }
                let r = ctx.tracer.span(Name::Waitall, || waitall(reqs));
                ctx.tally.ok("waitall receives", r);
                for (got, want) in bufs.iter().zip(&vals) {
                    ctx.tally.check("stream payload", got == want);
                }
                let d = digest(&bufs);
                let r = ctx
                    .tracer
                    .span(Name::Send, || ctx.world.send(&[d], 0, TAG_ACK));
                ctx.tally.ok("send window ack", r);
                ctx.tracer.close();
            }
        }
        ctx.phase_end(probe, 0, (STREAM_WINDOWS * WINDOW) as u64);
    }

    /// 8 B puts under an exclusive passive-target lock; the target then
    /// reads its window memory and checks every slot.
    fn puts(&mut self, ctx: &mut Ctx) {
        let probe = ctx.phase_start();
        let vals: Vec<u64> = (0..PUTS).map(|_| self.gen.next_u64()).collect();
        let win = &self.win;
        let mut ack = [0u64];
        if ctx.rank == 0 {
            let t = Instant::now();
            ctx.tracer.open(Name::BenchPutEpoch);
            let r = ctx
                .tracer
                .span(Name::Lock, || win.lock(LockType::Exclusive, 1));
            ctx.tally.ok("lock", r);
            for (i, v) in vals.iter().enumerate() {
                let r = ctx
                    .tracer
                    .span(Name::Put, || win.put(std::slice::from_ref(v), 1, i));
                ctx.tally.ok("put", r);
                if (i + 1) % FLUSH_EVERY == 0 {
                    let r = ctx.tracer.span(Name::Flush, || win.flush(1));
                    ctx.tally.ok("flush", r);
                }
            }
            let r = ctx.tracer.span(Name::Unlock, || win.unlock(1));
            ctx.tally.ok("unlock", r);
            ctx.tracer.close();
            ctx.sample("puts_per_s", PUTS as f64 / t.elapsed().as_secs_f64());
            let r = ctx.world.send(&[digest(&vals)], 1, TAG_DATA);
            ctx.tally.ok("send epoch done", r);
            let r = ctx.world.recv_into(&mut ack, 1, TAG_ACK);
            ctx.tally.ok("recv epoch ack", r);
            ctx.tally.check("put slots verified", ack[0] == PUTS as u64);
        } else {
            let r = ctx.world.recv_into(&mut ack, 0, TAG_DATA);
            ctx.tally.ok("recv epoch done", r);
            let mem = win.read_local(0, PUTS * 8);
            let mut good = 0u64;
            for (slot, want) in mem.chunks_exact(8).zip(&vals) {
                let got = u64::from_le_bytes(slot.try_into().expect("8-byte slot"));
                good += u64::from(ctx.tally.check("put payload", got == *want));
            }
            let r = ctx.world.send(&[good], 0, TAG_ACK);
            ctx.tally.ok("send epoch ack", r);
        }
        ctx.phase_end(probe, 2, PUTS as u64);
    }
}

// --------------------------------------------------------- bulk_reliable

/// Messages per window; every message of a window has the same size.
const BULK_WINDOW: usize = 8;
/// One round draws one size from each of this many equal slices of the
/// log2 size range, in a seeded order, so every round has the same mix.
const STRATA: usize = 16;
const MIN_LOG2: f64 = 10.0;
const MAX_LOG2: f64 = 20.0;
/// The OFI profile's eager ceiling: larger messages take the rendezvous.
pub const EAGER_LIMIT: usize = 16 * 1024;
const POOL_BUFS: usize = BULK_WINDOW + 1;
const BULK_PINGPONGS: usize = 16;

struct Bulk {
    /// Seeded payload buffers, shared by both ranks.
    pool: Arc<Vec<Vec<u8>>>,
    /// Receive buffers (rank 1), allocated in the first (warm-up) round.
    bufs: Vec<Vec<u8>>,
    gen: SplitMix,
    windows: usize,
}

/// The message sizes of one round: one per stratum, in seeded order.
pub fn round_sizes(gen: &mut SplitMix) -> [usize; STRATA] {
    let mut sizes: [usize; STRATA] = std::array::from_fn(|k| {
        let u = (k as f64 + gen.next_f64()) / STRATA as f64;
        let size = (MIN_LOG2 + (MAX_LOG2 - MIN_LOG2) * u).exp2().round() as usize;
        size.clamp(1 << MIN_LOG2 as u32, 1 << MAX_LOG2 as u32)
    });
    for i in (1..STRATA).rev() {
        sizes.swap(i, (gen.next_u64() % (i as u64 + 1)) as usize);
    }
    sizes
}

impl Bulk {
    fn setup(inputs: &Inputs) -> Bulk {
        Bulk {
            pool: inputs.pool.clone(),
            bufs: vec![],
            gen: SplitMix::new(inputs.seed, 2),
            windows: 0,
        }
    }

    fn round(&mut self, ctx: &mut Ctx) {
        if ctx.rank == 1 && self.bufs.is_empty() {
            let max = 1usize << MAX_LOG2 as u32;
            self.bufs = (0..BULK_WINDOW).map(|_| vec![0xA5u8; max]).collect();
        }
        for size in round_sizes(&mut self.gen) {
            self.window(ctx, size);
        }
        pingpong(ctx, &mut self.gen, BULK_PINGPONGS, 2);
    }

    fn window(&mut self, ctx: &mut Ctx, size: usize) {
        let eager = size <= EAGER_LIMIT;
        let probe = ctx.phase_start();
        let first = self.windows;
        self.windows += 1;
        let src = |j: usize| (first + j) % POOL_BUFS;
        let t = Instant::now();
        ctx.tracer.open(Name::BenchWindow);
        if ctx.rank == 0 {
            let mut reqs = Vec::with_capacity(BULK_WINDOW);
            for j in 0..BULK_WINDOW {
                let payload = &self.pool[src(j)][..size];
                let r = ctx
                    .tracer
                    .span(Name::Isend, || ctx.world.isend(payload, 1, TAG_DATA));
                reqs.extend(ctx.tally.ok("isend", r));
            }
            let r = ctx.tracer.span(Name::Waitall, || waitall(reqs));
            ctx.tally.ok("waitall sends", r);
            let mut ack = [0u64];
            let r = ctx
                .tracer
                .span(Name::Recv, || ctx.world.recv_into(&mut ack, 1, TAG_ACK));
            ctx.tally.ok("recv window ack", r);
            ctx.tracer.close();
            let dt = t.elapsed().as_secs_f64();
            ctx.tally
                .check("window verified", ack[0] == BULK_WINDOW as u64);
            let (bytes_key, secs_key) = if eager {
                ("eager_bytes", "eager_secs")
            } else {
                ("rndv_bytes", "rndv_secs")
            };
            ctx.sample(bytes_key, (BULK_WINDOW * size) as f64);
            ctx.sample(secs_key, dt);
        } else {
            let mut reqs = Vec::with_capacity(BULK_WINDOW);
            for b in self.bufs.iter_mut() {
                let r = ctx
                    .tracer
                    .span(Name::Irecv, || ctx.world.irecv(&mut b[..size], 0, TAG_DATA));
                reqs.extend(ctx.tally.ok("irecv", r));
            }
            let r = ctx.tracer.span(Name::Waitall, || waitall(reqs));
            let statuses = ctx.tally.ok("waitall receives", r).unwrap_or_default();
            let mut good = 0u64;
            for (j, b) in self.bufs.iter().enumerate() {
                let count_ok = statuses.get(j).and_then(|s| s.count(1)) == Some(size);
                let bytes_ok = b[..size] == self.pool[src(j)][..size];
                good += u64::from(ctx.tally.check("bulk payload", count_ok && bytes_ok));
            }
            let r = ctx
                .tracer
                .span(Name::Send, || ctx.world.send(&[good], 0, TAG_ACK));
            ctx.tally.ok("send window ack", r);
            ctx.tracer.close();
        }
        ctx.phase_end(probe, usize::from(!eager), BULK_WINDOW as u64);
    }
}

// -------------------------------------------------------------- cg_solve

pub const NEK: NekConfig = NekConfig {
    elems: [8, 8, 8],
    order: 5,
    iterations: 20,
    rank_grid: [2, 1, 1],
};
/// Largest accepted distance from the closed-form solution.
pub const NEK_MAX_ERROR: f64 = 1e-9;
const CG_ALLREDUCES: usize = 128;
/// 128 Ki integer-valued f64 = 1 MiB.
const BIG_LEN: usize = 128 * 1024;
const BIG_CALLS: usize = 8;

struct Cg {
    gen: SplitMix,
    big: Arc<Vec<f64>>,
    big_expect: Arc<Vec<f64>>,
    /// Residual bits of the first solve; every later solve must match.
    residual: Option<u64>,
    /// This round's blocking allreduce times. The latency op pairs the
    /// i-th blocking call with the i-th `iallreduce` + `wait`, so both
    /// reductions move the end-to-end latency.
    blocking_us: Vec<f64>,
}

impl Cg {
    fn setup(inputs: &Inputs, rank: usize) -> Cg {
        Cg {
            gen: SplitMix::new(inputs.seed, 3),
            big: inputs.big[rank].clone(),
            big_expect: inputs.big_expect.clone(),
            residual: None,
            blocking_us: vec![0.0; CG_ALLREDUCES],
        }
    }

    fn round(&mut self, ctx: &mut Ctx) {
        self.solve(ctx);
        self.small_allreduces(ctx, false);
        self.small_allreduces(ctx, true);
        self.big_allreduces(ctx);
    }

    fn solve(&mut self, ctx: &mut Ctx) {
        let probe = ctx.phase_start();
        let t = Instant::now();
        ctx.tracer.open(Name::BenchSolve);
        let proc = ctx.proc;
        let r = ctx
            .tracer
            .span(Name::NekboneRun, || nekbone::run(proc, &NEK));
        ctx.tracer.close();
        let dt = t.elapsed().as_secs_f64();
        ctx.phase_end(probe, 0, 1);
        ctx.sample("solve_s", dt);
        let residual = match ctx.tally.ok("nekbone solve", r) {
            Some(rep) => {
                ctx.tally
                    .check("nekbone max_error", rep.max_error <= NEK_MAX_ERROR);
                let bits = rep.residual.to_bits();
                let first = *self.residual.get_or_insert(bits);
                ctx.tally.check("nekbone residual repeats", bits == first);
                rep.residual
            }
            None => f64::NAN,
        };
        // Both ranks must hold the same residual, bit for bit.
        let lo = ctx.world.allreduce(&[residual], &Op::Min);
        let hi = ctx.world.allreduce(&[residual], &Op::Max);
        if let (Some(lo), Some(hi)) = (
            ctx.tally.ok("residual min", lo),
            ctx.tally.ok("residual max", hi),
        ) {
            ctx.tally.check(
                "ranks agree on residual",
                lo[0].to_bits() == hi[0].to_bits(),
            );
        }
    }

    /// 8 B sum allreduces, blocking or `iallreduce` + `wait`.
    fn small_allreduces(&mut self, ctx: &mut Ctx, nonblocking: bool) {
        let probe = ctx.phase_start();
        for i in 0..CG_ALLREDUCES {
            let (a0, a1) = (self.gen.next_int_f64(), self.gen.next_int_f64());
            let mine = [if ctx.rank == 0 { a0 } else { a1 }];
            let t = Instant::now();
            ctx.tracer.open(Name::BenchAllreduce);
            let r = if nonblocking {
                let req = ctx.tracer.span(Name::IallreducePost, || {
                    ctx.world.iallreduce(&mine, &Op::Sum)
                });
                match ctx.tally.ok("iallreduce post", req) {
                    Some(req) => ctx.tracer.span(Name::SchedWait, || req.wait()),
                    None => Ok(vec![]),
                }
            } else {
                ctx.tracer
                    .span(Name::Allreduce, || ctx.world.allreduce(&mine, &Op::Sum))
            };
            ctx.tracer.close();
            let dt_us = t.elapsed().as_secs_f64() * 1e6;
            if let Some(v) = ctx.tally.ok("allreduce", r) {
                ctx.tally.check(
                    "allreduce sum exact",
                    v.first().map(|x| x.to_bits()) == Some((a0 + a1).to_bits()),
                );
            }
            if nonblocking {
                ctx.sample("iallreduce_us", dt_us);
                ctx.sample_latency(self.blocking_us[i] + dt_us);
            } else {
                ctx.sample("allreduce_us", dt_us);
                self.blocking_us[i] = dt_us;
            }
        }
        ctx.phase_end(probe, if nonblocking { 2 } else { 1 }, CG_ALLREDUCES as u64);
    }

    fn big_allreduces(&mut self, ctx: &mut Ctx) {
        let probe = ctx.phase_start();
        for _ in 0..BIG_CALLS {
            let t = Instant::now();
            ctx.tracer.open(Name::BenchAllreduce);
            let r = ctx.tracer.span(Name::Allreduce1Mib, || {
                ctx.world.allreduce(&self.big, &Op::Sum)
            });
            ctx.tracer.close();
            ctx.sample("allreduce_1mib_ms", t.elapsed().as_secs_f64() * 1e3);
            if let Some(v) = ctx.tally.ok("allreduce 1 MiB", r) {
                let exact = v.len() == BIG_LEN
                    && v.iter()
                        .zip(self.big_expect.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                ctx.tally.check("allreduce 1 MiB exact", exact);
            }
        }
        ctx.phase_end(probe, 3, BIG_CALLS as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_sizes_cover_every_stratum() {
        let mut g = SplitMix::new(42, 2);
        let mut sizes = round_sizes(&mut g);
        sizes.sort_unstable();
        assert!(sizes[0] >= 1024 && sizes[STRATA - 1] <= 1 << 20);
        for (k, s) in sizes.iter().enumerate() {
            let lo = MIN_LOG2 + (MAX_LOG2 - MIN_LOG2) * k as f64 / STRATA as f64;
            let hi = MIN_LOG2 + (MAX_LOG2 - MIN_LOG2) * (k + 1) as f64 / STRATA as f64;
            let l = (*s as f64).log2();
            assert!(
                l >= lo - 0.01 && l <= hi + 0.01,
                "size {s} outside stratum {k}"
            );
        }
        let eager = sizes.iter().filter(|&&s| s <= EAGER_LIMIT).count();
        assert!((6..=7).contains(&eager), "{eager} eager sizes");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
