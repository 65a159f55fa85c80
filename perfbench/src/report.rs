//! Metric names, units and the one-line JSON result.
//!
//! The end-to-end and per-layer names here are the ones declared in
//! `BENCHMARK.json`; a self-test keeps the two in step.

/// Reported with `--trace 0` by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("round_ms", "ms"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
];

/// Reported with `--trace 1` by every workload. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("core.universe.spawn_ms", "ms"),
    ("core.coll.barrier_ns", "ns"),
    ("core.pt2pt.isend_ns", "ns"),
    ("core.pt2pt.irecv_ns", "ns"),
    ("core.pt2pt.send_ns", "ns"),
    ("core.pt2pt.recv_ns", "ns"),
    ("core.request.waitall_ns", "ns"),
    ("core.rma.lock_ns", "ns"),
    ("core.rma.put_ns", "ns"),
    ("core.rma.flush_ns", "ns"),
    ("core.rma.unlock_ns", "ns"),
    ("core.coll.allreduce_ns", "ns"),
    ("core.coll.allreduce_1mib_ns", "ns"),
    ("core.sched.iallreduce_post_ns", "ns"),
    ("core.sched.wait_ns", "ns"),
    ("apps.nekbone.run_ms", "ms"),
    ("apps.nekbone.serial_solve_s", "s"),
    ("apps.nekbone.speedup", "x"),
    ("simd.crc32_ns_per_kib", "ns/KiB"),
    ("simd.reduce_sum_f64_ns_per_kib", "ns/KiB"),
    ("fabric.endpoint.msgs_per_op", "count"),
    ("fabric.endpoint.bytes_per_op", "B"),
    ("fabric.endpoint.am_per_op", "count"),
    ("fabric.matching.unexpected_ratio", "ratio"),
    ("fabric.matching.max_posted_depth", "count"),
    ("fabric.matching.wildcard_matches", "count"),
    ("fabric.pool.hit_ratio", "ratio"),
    ("fabric.pool.takes_per_op", "count"),
    ("fabric.pool.dropped", "count"),
    ("fabric.reliability.retransmit_ratio", "ratio"),
    ("fabric.reliability.acks_per_msg", "count"),
    ("fabric.reliability.dup_dropped", "count"),
    ("fabric.reliability.crc_failures", "count"),
    ("fabric.region.reg_cache_hit_ratio", "ratio"),
    ("fabric.region.reg_lookups_per_op", "count"),
    ("fabric.vci.contended", "count"),
    ("instr.injection_per_msg", "count"),
    ("instr.allocs_per_msg", "count"),
    ("instr.reliability_per_msg", "count"),
    ("instr.rma_per_op", "count"),
    ("instr.schedule_per_op", "count"),
    ("unattributed_share", "ratio"),
    ("trace_overhead.round_ms", "ms"),
    ("trace_overhead.latency_p50_us", "us"),
    ("trace_overhead.latency_p90_us", "us"),
    ("bench.rounds_traced", "count"),
    ("bench.rounds_untraced", "count"),
];

/// The metric names a run reports, in order.
pub fn declared(trace: bool) -> Vec<&'static str> {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    list.iter().map(|(n, _)| *n).collect()
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}, ..}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            // JSON has no NaN or infinity.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `(name, unit)` pairs of one top-level list of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, Option<String>)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let list = &text[start..];
        let list = &list[list.find('[').unwrap()..list.find(']').unwrap()];
        list.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name").unwrap(), field(obj, "unit")))
            .collect()
    }

    fn field(obj: &str, key: &str) -> Option<String> {
        let at = obj.find(&format!("\"{key}\""))?;
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 10, 0, &[("setup_s", 0.5), ("round_ms", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"round_ms\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        all.extend(Workload::ALL.iter().map(|w| w.name()));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric or workload name");
        for name in all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}
