//! One-second stretches of timed rounds.
//!
//! The benchmark runs in a virtual machine that shares its host, and the
//! host's other work slows it in bursts of seconds to minutes. On the
//! 2-vCPU host the bounds were tuned on, CPU steal (the eighth field of the
//! `cpu` line of `/proc/stat`) rose from about 1% to 11–31% for seconds at
//! a time, and a `bulk_reliable` round slowed by up to 2.4x. At other
//! times steal stayed near 0 while a `cg_solve` round still took 16 ms in
//! one run and 25 ms in another. Interference only ever adds time. So rank
//! 0 cuts its timed rounds into stretches, reduces each to its round median
//! and latency p50 and p90, and the end-to-end figures are medians over the
//! half of the stretches with the fastest rounds. A slower program is
//! slower in every stretch, so the figures still move with it. Each
//! stretch's steal share is kept for the printed report.

use crate::counters::ratio;
use crate::rank::Samples;
use crate::stats::{median, percentile};
use std::time::{Duration, Instant};

pub const STRETCH: Duration = Duration::from_secs(1);

/// Stolen and total CPU time of the whole machine, in clock ticks.
fn host_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    if f.len() < 8 {
        return (0, 0);
    }
    (f[7], f.iter().sum())
}

/// The end-to-end inputs of one stretch of one kind of round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stretch {
    pub steal_share: f64,
    pub round_ms: f64,
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
}

/// Rank 0's open stretch and the finished ones, per kind of timed round
/// (`[untraced, traced]`). An open stretch keeps a bounded random subset of
/// its samples, so its memory does not depend on how fast rounds go. The
/// subsets are allocated with the first stretch, after set-up.
#[derive(Debug, Default)]
pub struct Stretches {
    open: Option<(Instant, (u64, u64))>,
    rounds: Vec<Samples>,
    latencies: Vec<Samples>,
    pub done: [Vec<Stretch>; 2],
}

impl Stretches {
    pub fn round(&mut self, slot: usize, ms: f64) {
        self.rounds[slot].push(ms);
    }

    pub fn latency(&mut self, slot: usize, us: f64) {
        self.latencies[slot].push(us);
    }

    /// Called before each round: closes the open stretch once it is
    /// [`STRETCH`] old or the timed rounds are over, and opens one when
    /// timed rounds go on.
    pub fn tick(&mut self, timed: bool) {
        let now = Instant::now();
        if let Some((t0, steal0)) = self.open {
            if !timed || now - t0 >= STRETCH {
                self.close(steal0);
                self.open = None;
            }
        }
        if timed && self.open.is_none() {
            if self.rounds.is_empty() {
                self.rounds = vec![Samples::new(10), Samples::new(11)];
                self.latencies = vec![Samples::new(12), Samples::new(13)];
            }
            self.open = Some((now, host_steal()));
        }
    }

    fn close(&mut self, (stolen0, total0): (u64, u64)) {
        let (stolen1, total1) = host_steal();
        let steal_share = ratio(
            stolen1.saturating_sub(stolen0),
            total1.saturating_sub(total0),
        );
        for slot in 0..self.rounds.len() {
            let (rounds, lat) = (&mut self.rounds[slot], &mut self.latencies[slot]);
            if rounds.count > 0 && lat.count > 0 {
                let mut sorted = lat.values().to_vec();
                sorted.sort_by(f64::total_cmp);
                self.done[slot].push(Stretch {
                    steal_share,
                    round_ms: median(rounds.values()),
                    latency_p50_us: median(&sorted),
                    latency_p90_us: percentile(&sorted, 90.0),
                });
            }
            rounds.clear();
            lat.clear();
        }
    }
}

/// The half of the stretches with the fastest rounds, at least one.
pub fn fastest_half(stretches: &[Stretch]) -> Vec<Stretch> {
    let mut s = stretches.to_vec();
    s.sort_by(|a, b| a.round_ms.total_cmp(&b.round_ms));
    s.truncate(s.len().div_ceil(2).max(1));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stretch(steal_share: f64, round_ms: f64) -> Stretch {
        Stretch {
            steal_share,
            round_ms,
            latency_p50_us: 1.0,
            latency_p90_us: 2.0,
        }
    }

    #[test]
    fn keeps_the_fastest_half() {
        let s = [
            stretch(0.30, 9.0),
            stretch(0.01, 1.0),
            stretch(0.12, 5.0),
            stretch(0.02, 2.0),
            stretch(0.00, 3.0),
        ];
        let kept: Vec<f64> = fastest_half(&s).iter().map(|s| s.round_ms).collect();
        assert_eq!(kept, vec![1.0, 2.0, 3.0]);
        assert_eq!(fastest_half(&s[..1]).len(), 1);
        assert!(fastest_half(&[]).is_empty());
    }

    #[test]
    fn a_stretch_reduces_its_rounds_and_latencies() {
        let mut st = Stretches::default();
        st.tick(true);
        for i in 1..=100 {
            st.round(0, i as f64);
            st.latency(0, i as f64);
        }
        st.tick(false);
        assert_eq!(st.done[0].len(), 1);
        assert!(st.done[1].is_empty(), "no traced rounds, no traced stretch");
        let s = st.done[0][0];
        assert_eq!(
            (s.round_ms, s.latency_p50_us, s.latency_p90_us),
            (50.5, 50.5, 90.0)
        );
        assert!((0.0..=1.0).contains(&s.steal_share));
    }

    #[test]
    fn host_steal_reads_proc_stat() {
        let (stolen, total) = host_steal();
        assert!(total > 0 && stolen <= total);
    }
}
