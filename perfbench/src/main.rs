//! perfbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_msg|bulk_reliable|cg_solve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! alternates untraced and traced rounds, and reports the
//! per-layer metrics, the tracing overhead and the share of wall time no
//! layer span accounts for. Human-readable lines come first; the last
//! line of standard output is one JSON object. See `perfbench/METRICS.md`.

mod counters;
mod rank;
mod report;
mod stats;
mod steal;
mod trace;
mod workloads;

use counters::{ratio, Counts};
use litempi_core::{BuildConfig, Universe};
use litempi_fabric::{ProviderProfile, Topology};
use litempi_instr::Category;
use rank::{Plan, Series, SplitMix, Tally};
use stats::{median, Summary};
use std::time::{Duration, Instant};
use steal::{fastest_half, Stretch};
use trace::{Name, Tracer};
use workloads::{RankOut, Workload};

/// The timed rounds run as this many jobs of equal length, so the
/// set-ups measured between them are spread over the whole run.
const SUB_RUNS: u32 = 4;
/// Set-up-only jobs before each timed job and after the last. `setup_s`
/// is the median of these and the timed jobs' own set-ups.
const SETUPS_PER_GAP: usize = 5;
/// Warm-up before any timed round: at least this long and this many rounds.
const WARM: Duration = Duration::from_millis(500);
const MIN_WARM_ROUNDS: u32 = 5;
/// Wall-clock limit of a whole run; past it the run is reported failed.
const DEADLINE_CAP: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: perfbench --workload <small_msg|bulk_reliable|cg_solve> \
                     --seed <u64> --seconds <1..60> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let heap_pinned = pin_heap();
    start_watchdog(
        args.workload,
        Duration::from_secs(2 * args.seconds + 60).min(DEADLINE_CAP),
    );
    println!("# {}", provenance(&args, heap_pinned));
    let plan = Plan {
        warm: WARM,
        min_warm_rounds: MIN_WARM_ROUNDS,
        timed: Duration::from_secs(args.seconds),
        interleave_traced: args.trace,
    };
    let (tally, metrics) = measure(&args, plan);
    let failed_op_ratio = ratio(tally.failed, tally.attempted);
    println!(
        "{}: failed_op_ratio {failed_op_ratio} ({} failed of {} attempted)",
        args.workload.name(),
        tally.failed,
        tally.attempted
    );
    println!(
        "{}",
        report::result_json(
            tally.failed == 0,
            tally.attempted.max(1),
            tally.failed,
            &metrics
        )
    );
}

/// Set up, run and reduce one workload; prints the human-readable lines
/// and returns the failure tally and the declared metrics, in declared
/// order.
fn measure(args: &Args, plan: Plan) -> (Tally, Vec<(&'static str, f64)>) {
    let w = args.workload;
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut setup = SetupSamples::default();
    let inputs = workloads::Inputs::new(w, args.seed);
    let setup_only = |setup: &mut SetupSamples, tally: &mut Tally| {
        for _ in 0..SETUPS_PER_GAP {
            let (entry, outs) = guarded(w, || {
                workloads::run_universe(w, &inputs, Plan::SETUP_ONLY, epoch)
            });
            setup.add(entry, &outs);
            for o in outs {
                tally.attempted += o.tally.attempted;
                tally.failed += o.tally.failed;
            }
        }
    };
    let sub_plan = Plan {
        timed: plan.timed / SUB_RUNS,
        ..plan
    };
    let mut ranks: Option<(RankOut, RankOut)> = None;
    for _ in 0..SUB_RUNS {
        setup_only(&mut setup, &mut tally);
        let (entry, outs) = guarded(w, || workloads::run_universe(w, &inputs, sub_plan, epoch));
        setup.add(entry, &outs);
        let [r0, r1]: [RankOut; 2] = outs.try_into().ok().expect("two ranks");
        match ranks.as_mut() {
            None => ranks = Some((r0, r1)),
            Some((a0, a1)) => {
                a0.absorb(r0);
                a1.absorb(r1);
            }
        }
    }
    setup_only(&mut setup, &mut tally);
    let peak_rss_mib = peak_rss_kib() / 1024.0;
    let (rank0, rank1) = ranks.expect("at least one timed job");
    for r in [&rank0, &rank1] {
        tally.attempted += r.tally.attempted;
        tally.failed += r.tally.failed;
    }
    let untraced = Figures::of(&rank0.series[0], &rank0.stretches[0]);

    println!(
        "{w_name}: setup_s (shown in ms) {}",
        Summary::of(&setup.setup_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()).describe("ms"),
        w_name = w.name()
    );
    println!("{}: peak_rss_mib {peak_rss_mib:.2} MiB", w.name());
    let cpu = |o: &RankOut| o.cpu.map_or("unbound".to_string(), |c| format!("cpu {c}"));
    println!(
        "{}: rank 0 on {}, rank 1 on {}",
        w.name(),
        cpu(&rank0),
        cpu(&rank1)
    );
    untraced.print(w, "");

    let metrics: Vec<(&str, f64)> = if args.trace {
        let traced = Figures::of(&rank0.series[1], &rank0.stretches[1]);
        traced.print(w, " (traced)");
        per_layer(args, &setup, &rank0, &rank1, &untraced, &traced, &mut tally)
    } else {
        vec![
            ("setup_s", median(&setup.setup_s)),
            ("peak_rss_mib", peak_rss_mib),
            ("round_ms", untraced.round_ms),
            ("latency_p50_us", untraced.latency_p50_us),
            ("latency_p90_us", untraced.latency_p90_us),
        ]
    };
    let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        report::declared(args.trace),
        "metrics out of step with BENCHMARK.json"
    );
    (tally, metrics)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc's heap policy before any thread starts, and say whether it
/// took. By default glibc serves blocks of 128 KiB and more with `mmap` and
/// raises that threshold to the size of each such block freed, so whether
/// the library's per-call 1 MiB allreduce buffers and ~430 KiB nekbone
/// fields come from fresh, page-faulting mappings or from reused heap
/// depends on the order of early frees across the rank threads. One run
/// then paid ~1.4 ms per 1 MiB allreduce and the next ~0.4 ms, for the
/// whole run. With a fixed threshold above every block the benchmark
/// allocates and no trimming, every run takes the reused-heap path: the
/// figures still count each allocation and copy, but not page faults.
fn pin_heap() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: called from main before any other thread exists; mallopt
    // only sets allocator parameters and returns 0 when it rejects one.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 }
}

/// Run a job; a panic in it becomes a reported failure.
fn guarded<T>(w: Workload, job: impl FnOnce() -> T + std::panic::UnwindSafe) -> T {
    std::panic::catch_unwind(job).unwrap_or_else(|_| {
        eprintln!("perfbench: {}: a rank panicked", w.name());
        println!("{}", report::result_json(false, 1, 1, &[]));
        std::process::exit(1);
    })
}

/// A hang (a rank stuck forever, for instance behind a panicked peer)
/// becomes a counted failure and an exit, not a stuck job.
fn start_watchdog(w: Workload, limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "perfbench: {}: no result after {limit:?}; a rank is stuck",
            w.name()
        );
        println!("{}", report::result_json(false, 1, 1, &[]));
        std::process::exit(1);
    });
}

#[derive(Default)]
struct SetupSamples {
    setup_s: Vec<f64>,
    spawn_ms: Vec<f64>,
    barrier_ns: Vec<f64>,
}

impl SetupSamples {
    /// Record one job's set-up and refuse the run if the fabric did not
    /// resolve to the pinned single VCI (`LITEMPI_VCIS` overrides it).
    fn add(&mut self, entry: Instant, outs: &[RankOut]) {
        for o in outs {
            if o.n_vcis != 1 {
                eprintln!(
                    "perfbench: refusing to report: the fabric resolved {} VCIs, \
                     the benchmark pins 1 (is LITEMPI_VCIS set?)",
                    o.n_vcis
                );
                std::process::exit(3);
            }
        }
        let last = |f: fn(&RankOut) -> Instant| outs.iter().map(f).max().expect("ranks");
        self.setup_s.push((last(|o| o.ready) - entry).as_secs_f64());
        self.spawn_ms
            .push((last(|o| o.spawned) - entry).as_secs_f64() * 1e3);
        self.barrier_ns
            .push(outs.iter().map(|o| o.barrier_ns).sum::<f64>() / outs.len() as f64);
    }
}

/// The timed figures of one kind of round (rank 0's samples). The
/// end-to-end figures are medians over the faster half of the one-second
/// stretches (see `steal.rs`); the printed figures use every timed round.
struct Figures {
    rounds: u64,
    stretches: usize,
    kept: usize,
    steal_max: f64,
    round_ms: f64,
    latency_p50_us: f64,
    latency_p90_us: f64,
    series: Series,
}

impl Figures {
    fn of(series: &Series, stretches: &[Stretch]) -> Figures {
        let kept = fastest_half(stretches);
        assert!(!kept.is_empty(), "no timed rounds");
        let med = |f: fn(&Stretch) -> f64| median(&kept.iter().map(f).collect::<Vec<_>>());
        Figures {
            rounds: series["round_ms"].count,
            stretches: stretches.len(),
            steal_max: stretches.iter().map(|s| s.steal_share).fold(0.0, f64::max),
            round_ms: med(|s| s.round_ms),
            latency_p50_us: med(|s| s.latency_p50_us),
            latency_p90_us: med(|s| s.latency_p90_us),
            kept: kept.len(),
            series: series.clone(),
        }
    }

    fn summary(&self, key: &str, scale: f64) -> Summary {
        let v: Vec<f64> = self.series[key]
            .values()
            .iter()
            .map(|x| x * scale)
            .collect();
        Summary::of(&v)
    }

    /// Verified bytes per second over all windows of one size class.
    fn goodput_gibs(&self, class: &str) -> f64 {
        let sum = |k: String| self.series.get(k.as_str()).map_or(0.0, |s| s.sum);
        sum(format!("{class}_bytes")) / sum(format!("{class}_secs")) / (1u64 << 30) as f64
    }

    /// The workload's own figures, under the names the metrics document
    /// uses.
    fn print(&self, w: Workload, tag: &str) {
        let n = w.name();
        println!(
            "{n}{tag}: {} timed rounds in {} one-second stretches; end-to-end figures use the {} \
             with the fastest rounds; host steal share per stretch up to {:.3}",
            self.rounds, self.stretches, self.kept, self.steal_max,
        );
        println!(
            "{n}{tag}: round_ms {:.4} ms; every round: {}",
            self.round_ms,
            self.summary("round_ms", 1.0).describe("ms")
        );
        let latency = self.summary("latency_us", 1.0);
        match w {
            Workload::SmallMsg => {
                println!(
                    "{n}{tag}: msg_rate_mmsgs {}",
                    self.summary("stream_msgs_per_s", 1e-6).describe("Mmsg/s")
                );
                println!(
                    "{n}{tag}: latency_us (8 B pingpong, half round trip) {}",
                    latency.describe("us")
                );
                println!(
                    "{n}{tag}: put_rate_mops {}",
                    self.summary("puts_per_s", 1e-6).describe("Mop/s")
                );
            }
            Workload::BulkReliable => {
                println!(
                    "{n}{tag}: goodput_eager_gibs {:.4} GiB/s",
                    self.goodput_gibs("eager")
                );
                println!(
                    "{n}{tag}: goodput_rndv_gibs {:.4} GiB/s",
                    self.goodput_gibs("rndv")
                );
                println!(
                    "{n}{tag}: latency_us (8 B pingpong over the reliable fabric) {}",
                    latency.describe("us")
                );
            }
            Workload::CgSolve => {
                println!(
                    "{n}{tag}: solve_s {}",
                    self.summary("solve_s", 1.0).describe("s")
                );
                println!(
                    "{n}{tag}: allreduce_p50_us (8 B allreduce) {}",
                    self.summary("allreduce_us", 1.0).describe("us")
                );
                println!(
                    "{n}{tag}: iallreduce_p50_us (8 B iallreduce + wait) {}",
                    self.summary("iallreduce_us", 1.0).describe("us")
                );
                println!(
                    "{n}{tag}: allreduce_1mib_ms {}",
                    self.summary("allreduce_1mib_ms", 1.0).describe("ms")
                );
                println!(
                    "{n}{tag}: latency_us (8 B allreduce + 8 B iallreduce) {}",
                    latency.describe("us")
                );
            }
        }
        println!(
            "{n}{tag}: latency_p50_us {:.4} us, latency_p90_us {:.4} us",
            self.latency_p50_us, self.latency_p90_us
        );
    }
}

fn per_call_ns(t: &Tracer, name: Name) -> f64 {
    let a = t.agg(name);
    ratio(a.self_ns, a.calls)
}

fn per_layer(
    args: &Args,
    setup: &SetupSamples,
    rank0: &RankOut,
    rank1: &RankOut,
    untraced: &Figures,
    traced: &Figures,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let w = args.workload;
    // Share of rank 0's traced wall time that no layer span accounts for.
    let layer_ns: u64 = Name::ALL
        .iter()
        .filter(|n| n.is_layer())
        .map(|n| rank0.tracer.agg(*n).self_ns)
        .sum();
    let round_ns = rank0.tracer.agg(Name::BenchRound);
    let wall_ns = round_ns.total_ns as f64;
    let unattributed = 1.0 - layer_ns as f64 / wall_ns;
    let mut spans = Tracer::new(Instant::now(), 0);
    spans.merge_agg(&rank0.tracer);
    spans.merge_agg(&rank1.tracer);

    // Per-phase counts, summed over ranks, then over phases.
    let phases: Vec<Counts> = (0..w.phases().len())
        .map(|i| {
            let mut c = rank0.phases[i];
            c.merge(&rank1.phases[i]);
            c
        })
        .collect();
    let mut total = Counts::default();
    for (name, c) in w.phases().iter().zip(&phases) {
        println!("{}: phase {name}: {}", w.name(), c.describe());
        total.merge(c);
    }
    // Schedule charges per nonblocking collective where the workload has
    // them; elsewhere the prediction is zero over the whole round.
    let schedule_per_op = match w.phases().iter().position(|p| *p == "iallreduce") {
        Some(i) => phases[i].per_op(phases[i].category(Category::Schedule)),
        None => total.per_op(total.category(Category::Schedule)),
    };

    let log = log_path(args);
    match trace::write_log(&log, &[&rank0.tracer, &rank1.tracer]) {
        Ok(()) => println!("{}: span log {}", w.name(), log.display()),
        Err(e) => eprintln!("perfbench: could not write span log {}: {e}", log.display()),
    }
    println!(
        "{}: bench.round self time {:.1}% of traced wall time",
        w.name(),
        100.0 * round_ns.self_ns as f64 / wall_ns
    );

    let (crc, reduce, serial) = match w {
        Workload::SmallMsg => (0.0, 0.0, 0.0),
        Workload::BulkReliable => (crc32_ns_per_kib(args.seed), 0.0, 0.0),
        Workload::CgSolve => (0.0, reduce_ns_per_kib(args.seed), serial_solve_s(tally)),
    };
    let speedup = if serial > 0.0 {
        serial / median(untraced.series["solve_s"].values())
    } else {
        0.0
    };

    vec![
        ("core.universe.spawn_ms", median(&setup.spawn_ms)),
        ("core.coll.barrier_ns", median(&setup.barrier_ns)),
        ("core.pt2pt.isend_ns", per_call_ns(&spans, Name::Isend)),
        ("core.pt2pt.irecv_ns", per_call_ns(&spans, Name::Irecv)),
        ("core.pt2pt.send_ns", per_call_ns(&spans, Name::Send)),
        ("core.pt2pt.recv_ns", per_call_ns(&spans, Name::Recv)),
        (
            "core.request.waitall_ns",
            per_call_ns(&spans, Name::Waitall),
        ),
        ("core.rma.lock_ns", per_call_ns(&spans, Name::Lock)),
        ("core.rma.put_ns", per_call_ns(&spans, Name::Put)),
        ("core.rma.flush_ns", per_call_ns(&spans, Name::Flush)),
        ("core.rma.unlock_ns", per_call_ns(&spans, Name::Unlock)),
        (
            "core.coll.allreduce_ns",
            per_call_ns(&spans, Name::Allreduce),
        ),
        (
            "core.coll.allreduce_1mib_ns",
            per_call_ns(&spans, Name::Allreduce1Mib),
        ),
        (
            "core.sched.iallreduce_post_ns",
            per_call_ns(&spans, Name::IallreducePost),
        ),
        ("core.sched.wait_ns", per_call_ns(&spans, Name::SchedWait)),
        (
            "apps.nekbone.run_ms",
            per_call_ns(&spans, Name::NekboneRun) * 1e-6,
        ),
        ("apps.nekbone.serial_solve_s", serial),
        ("apps.nekbone.speedup", speedup),
        ("simd.crc32_ns_per_kib", crc),
        ("simd.reduce_sum_f64_ns_per_kib", reduce),
        ("fabric.endpoint.msgs_per_op", total.per_op(total.msgs_sent)),
        (
            "fabric.endpoint.bytes_per_op",
            total.per_op(total.bytes_sent),
        ),
        ("fabric.endpoint.am_per_op", total.per_op(total.am_sent)),
        (
            "fabric.matching.unexpected_ratio",
            ratio(total.unexpected, total.msgs_received),
        ),
        (
            "fabric.matching.max_posted_depth",
            total.max_posted_depth as f64,
        ),
        (
            "fabric.matching.wildcard_matches",
            total.wildcard_matches as f64,
        ),
        (
            "fabric.pool.hit_ratio",
            ratio(total.pool_hits, total.pool_takes),
        ),
        ("fabric.pool.takes_per_op", total.per_op(total.pool_takes)),
        ("fabric.pool.dropped", total.pool_dropped as f64),
        (
            "fabric.reliability.retransmit_ratio",
            total.per_msg(total.retransmits),
        ),
        (
            "fabric.reliability.acks_per_msg",
            total.per_msg(total.acks_sent),
        ),
        ("fabric.reliability.dup_dropped", total.dup_dropped as f64),
        ("fabric.reliability.crc_failures", total.crc_failures as f64),
        (
            "fabric.region.reg_cache_hit_ratio",
            ratio(total.reg_cache_hits, total.reg_lookups()),
        ),
        (
            "fabric.region.reg_lookups_per_op",
            total.per_op(total.reg_lookups()),
        ),
        ("fabric.vci.contended", total.vci_contended as f64),
        (
            "instr.injection_per_msg",
            total.per_msg(total.instr.injection_total()),
        ),
        ("instr.allocs_per_msg", total.per_msg(total.allocs)),
        (
            "instr.reliability_per_msg",
            total.per_msg(total.category(Category::Reliability)),
        ),
        (
            "instr.rma_per_op",
            total.per_op(total.category(Category::Rma)),
        ),
        ("instr.schedule_per_op", schedule_per_op),
        ("unattributed_share", unattributed),
        (
            "trace_overhead.round_ms",
            traced.round_ms - untraced.round_ms,
        ),
        (
            "trace_overhead.latency_p50_us",
            traced.latency_p50_us - untraced.latency_p50_us,
        ),
        (
            "trace_overhead.latency_p90_us",
            traced.latency_p90_us - untraced.latency_p90_us,
        ),
        ("bench.rounds_traced", traced.rounds as f64),
        ("bench.rounds_untraced", untraced.rounds as f64),
    ]
}

/// Run `f` repeatedly for about `budget`; returns total ns and calls.
fn timed_loop(budget: Duration, mut f: impl FnMut()) -> (f64, u64) {
    let t = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || t.elapsed() < budget {
        f();
        calls += 1;
    }
    (t.elapsed().as_nanos() as f64, calls)
}

/// `litempi_simd::crc32` over one round's `bulk_reliable` size mix.
fn crc32_ns_per_kib(seed: u64) -> f64 {
    let sizes = workloads::round_sizes(&mut SplitMix::new(seed, 2));
    let mut data = vec![0u8; 1 << 20];
    SplitMix::new(seed, 100).fill(&mut data);
    let mut acc = 0u32;
    let (ns, calls) = timed_loop(Duration::from_millis(200), || {
        for &s in &sizes {
            acc ^= litempi_simd::crc::crc32(std::hint::black_box(&data[..s]));
        }
    });
    std::hint::black_box(acc);
    let kib = calls as f64 * sizes.iter().sum::<usize>() as f64 / 1024.0;
    ns / kib
}

/// `litempi_simd::reduce` sum over 1 MiB of f64 at the active tier.
fn reduce_ns_per_kib(seed: u64) -> f64 {
    use litempi_simd::reduce::{reduce, ROp, RType};
    let mut input = vec![0u8; 1 << 20];
    let mut g = SplitMix::new(seed, 201);
    for c in input.chunks_exact_mut(8) {
        c.copy_from_slice(&g.next_int_f64().to_le_bytes());
    }
    let mut inout = vec![0u8; 1 << 20];
    let tier = litempi_simd::active();
    let (ns, calls) = timed_loop(Duration::from_millis(200), || {
        reduce(
            tier,
            ROp::Sum,
            RType::F64,
            &mut inout,
            std::hint::black_box(&input),
        );
    });
    std::hint::black_box(&inout);
    ns / (calls as f64 * 1024.0)
}

/// The `cg_solve` problem solved on one rank: median solve time.
fn serial_solve_s(tally: &mut Tally) -> f64 {
    let cfg = litempi_apps::NekConfig {
        rank_grid: [1, 1, 1],
        ..workloads::NEK
    };
    let out = Universe::run(
        1,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite().with_vcis(1),
        Topology::single_node(1),
        |proc| {
            let mut times = Vec::new();
            let mut t = Tally::default();
            let t0 = Instant::now();
            while times.len() < 3 || t0.elapsed() < Duration::from_millis(500) {
                let s = Instant::now();
                let r = litempi_apps::nekbone::run(&proc, &cfg);
                times.push(s.elapsed().as_secs_f64());
                if let Some(rep) = t.ok("serial nekbone solve", r) {
                    t.check(
                        "serial nekbone max_error",
                        rep.max_error <= workloads::NEK_MAX_ERROR,
                    );
                }
            }
            (median(&times), t)
        },
    );
    let (s, t) = out.into_iter().next().expect("one rank");
    tally.attempted += t.attempted;
    tally.failed += t.failed;
    s
}

fn log_path(args: &Args) -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    std::path::Path::new(&target)
        .join("perfbench")
        .join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ))
}

fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Configuration and build provenance, printed with every run.
fn provenance(args: &Args, heap_pinned: bool) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "workload={} seed={} seconds={} trace={} ranks=2 vcis_pinned=1 heap_pinned={heap_pinned} simd={} clmul={} \
         LITEMPI_VCIS={} LITEMPI_FORCE_SCALAR={} LITEMPI_KERNEL_TIER={} build={} cores={} cpu=\"{cpu}\" rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        litempi_simd::active().name(),
        litempi_simd::active_clmul(),
        env("LITEMPI_VCIS"),
        env("LITEMPI_FORCE_SCALAR"),
        env("LITEMPI_KERNEL_TIER"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_rev(),
    )
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has no `.git`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown(no .git)".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|_| {
            std::fs::read_to_string(".git/packed-refs").map(|p| {
                p.lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .unwrap_or("unknown")
                    .to_string()
            })
        })
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload cg_solve --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::CgSolve);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn every_workload_prints_exactly_the_declared_metrics() {
        let plan = Plan {
            warm: Duration::ZERO,
            min_warm_rounds: 2,
            timed: Duration::from_millis(800),
            interleave_traced: false,
        };
        for w in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload: w,
                    seed: 9,
                    seconds: 1,
                    trace,
                };
                let plan = Plan {
                    interleave_traced: trace,
                    ..plan
                };
                let (tally, metrics) = measure(&args, plan);
                assert_eq!(tally.failed, 0, "{} failed ops", w.name());
                let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, report::declared(trace));
                if !trace {
                    assert!(metrics.iter().all(|(_, v)| *v > 0.0), "{metrics:?}");
                }
            }
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload small_msg --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload small_msg --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload small_msg --seed 1 --seconds 1").is_err());
        assert!(args("--workload small_msg --seed").is_err());
    }
}
