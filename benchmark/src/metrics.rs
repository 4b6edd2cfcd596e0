//! The names every later performance claim uses. `BENCHMARK.json` at the
//! root of the repository lists the same metrics; a unit test keeps the two
//! in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before it counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system waits for or pays. The bounds are what the
/// two-core box the benchmark was sized on supports: over ten runs with ten
/// seeds the quartile spread of a wall time reached 13 % (the box drifts by
/// that much within minutes, whatever runs on it) and that of peak memory
/// 10 % (it follows the graph), so nothing tighter would tell a regression
/// from the weather. See "Noise" in the README.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("cold_s", "s", Lower, 0.25),
    e2e("warm_s", "s", Lower, 0.25),
    e2e("edges_per_s", "edges/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
];

/// Exact end-to-end numbers: any change is reported. They cannot carry a
/// bound of zero in `BENCHMARK.json` (they differ from seed to seed, and
/// `failure_rate` is zero), so they are printed by every run, compared by
/// `compare`, pinned by `golden.json`, and listed per layer.
pub const EXACT: [Metric; 2] = [
    e2e("sim_s", "sim_s", Lower, 0.0),
    e2e("failure_rate", "ratio", Lower, 0.0),
];

/// One row per layer metric; `<span>_s` is the median over traced
/// repetitions of the seconds spent in that span per repetition (cold pass
/// plus warm pass plus extras), counts are exact and identical in every
/// repetition.
pub const PER_LAYER: [Metric; 67] = [
    layer("datagen.generate_s", "s", Lower),
    layer("graph.io.text_write_s", "s", Lower),
    layer("graph.io.text_parse_s", "s", Lower),
    layer("graph.binfmt.write_s", "s", Lower),
    layer("graph.binfmt.decode_s", "s", Lower),
    layer("graph.binfmt.bytes_per_edge", "B/edge", Lower),
    layer("graph.source.open_s", "s", Lower),
    layer("graph.source.stream_s", "s", Lower),
    layer("graph.source.stream_t2_s", "s", Lower),
    layer("graph.source.peak_resident_bytes", "B", Lower),
    layer("partition.assign_s", "s", Lower),
    layer("partition.assign_source_s", "s", Lower),
    layer("partition.stream_stateful_s", "s", Lower),
    layer("partition.sweep_p16_s", "s", Lower),
    layer("partition.sweep_p64_s", "s", Lower),
    layer("partition.sweep_p256_s", "s", Lower),
    layer("partition.sweep_resident_s", "s", Lower),
    layer("partition.build_s", "s", Lower),
    layer("partition.build_t2_s", "s", Lower),
    layer("partition.metrics_s", "s", Lower),
    layer("partition.replication_factor", "ratio", Lower),
    layer("partition.comm_cost", "count", Lower),
    layer("partition.balance", "ratio", Lower),
    layer("engine.prepare_s", "s", Lower),
    layer("engine.pagerank_s", "s", Lower),
    layer("engine.sssp_s", "s", Lower),
    layer("engine.cc_s", "s", Lower),
    layer("engine.supersteps", "count", Lower),
    layer("engine.messages", "count", Lower),
    layer("engine.scanned_edges", "count", Lower),
    layer("engine.superstep_ms", "ms", Lower),
    layer("engine.scan_edges_per_s", "edges/s", Higher),
    layer("engine.mean_active_x1000", "count", Lower),
    layer("engine.low_active_supersteps", "count", Lower),
    layer("engine.pagerank_t2_s", "s", Lower),
    layer("algorithms.triangles_s", "s", Lower),
    layer("algorithms.triangles_count", "count", Higher),
    layer("cluster.sim_compute_s", "sim_s", Lower),
    layer("cluster.sim_network_s", "sim_s", Lower),
    layer("cluster.sim_storage_s", "sim_s", Lower),
    layer("cluster.remote_bytes", "B", Lower),
    layer("cluster.checkpoint_bytes", "B", Lower),
    layer("cluster.peak_executor_memory_gb", "GB", Lower),
    layer("core.session.load_s", "s", Lower),
    layer("core.session.schedule_s", "s", Lower),
    layer("core.session.cold_workload_s", "s", Lower),
    layer("core.session.warm_workload_s", "s", Lower),
    layer("core.session.dispatch_ms", "ms", Lower),
    layer("core.session.cache_hits", "count", Higher),
    layer("core.session.cache_misses", "count", Lower),
    layer("core.session.cut_switches", "count", Lower),
    layer("core.session.cached_cuts", "count", Lower),
    layer("core.session.provisioning_sim_s", "sim_s", Lower),
    layer("core.advisor.advice_sim_s", "sim_s", Lower),
    layer("core.advisor.measured_s", "s", Lower),
    layer("bench.oracle_s", "s", Lower),
    layer("bench.check_s", "s", Lower),
    layer("trace.unattributed_s", "s", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.span_cost_pct", "%", Lower),
    layer("traced.cold_s", "s", Lower),
    layer("traced.warm_s", "s", Lower),
    layer("sim_s", "sim_s", Lower),
    layer("failure_rate", "ratio", Lower),
    layer("work.graph_edges", "count", Higher),
    layer("work.results_per_rep", "count", Higher),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&EXACT).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        for name in crate::workloads::NAMES {
            assert!(valid_name(name));
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it saying what the
    /// program prints.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let listed = |key: &str, with_bound: bool| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    assert_eq!(
                        m.as_object().unwrap().len(),
                        if with_bound { 4 } else { 3 },
                        "{m:?}"
                    );
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                        m.get("better").unwrap().as_str().unwrap().to_string(),
                        m.get("bound").map(|b| b.as_f64().unwrap()),
                    )
                })
                .collect()
        };
        let ours = |table: &[Metric]| -> Vec<(String, String, String, Option<f64>)> {
            table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end", true), ours(&END_TO_END));
        assert_eq!(listed("per_layer", false), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                let why = w.get("why").unwrap().as_str().unwrap();
                assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
                w.get("name").unwrap().as_str().unwrap()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("paths").unwrap().as_array().unwrap(),
            [Json::Str("benchmark".into())]
        );
    }
}
