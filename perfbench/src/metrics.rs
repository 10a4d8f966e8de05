//! The metric registry: every end-to-end and per-layer metric by name
//! and unit, and the map from each per-layer metric to the end-to-end
//! metric and workload it should move.

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["sweep-cold", "trials-heavy", "zipf-open", "tune-frontier"];

/// End-to-end metrics (untraced runs): `(name, unit)`. Every workload
/// reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric (traced runs) with the end-to-end metric and
/// workloads it should move.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The end-to-end metric this layer figure should move.
    pub moves: &'static str,
    /// The workloads on which it should move it.
    pub on: &'static [&'static str],
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        on,
    }
}

const ZIPF: &[&str] = &["zipf-open"];
const SWEEP: &[&str] = &["sweep-cold"];
const HEAVY: &[&str] = &["trials-heavy"];
const TUNE: &[&str] = &["tune-frontier"];
const CLOSED: &[&str] = &["trials-heavy", "sweep-cold"];
const SERVE: &[&str] = &["sweep-cold", "trials-heavy", "zipf-open"];
const ALL: &[&str] = &WORKLOADS;

/// Every per-layer metric. A traced run prints all of them; a layer its
/// workload never reaches reads 0 and is listed as unreached.
pub const PER_LAYER: [LayerMetric; 41] = [
    lm("serve.spec.parse_us", "us", "latency_p50_ms", ZIPF),
    lm("serve.key.hash_us", "us", "latency_p50_ms", ZIPF),
    lm("serve.cache.probe_us", "us", "latency_p50_ms", ZIPF),
    lm("serve.integrity.open_us", "us", "latency_p50_ms", ZIPF),
    lm("serve.server.render_us", "us", "latency_p50_ms", ZIPF),
    lm(
        "serve.cache.result_hit_ratio",
        "ratio",
        "latency_p90_ms",
        ZIPF,
    ),
    lm("serve.cache.evictions", "count", "latency_p90_ms", ZIPF),
    lm(
        "serve.cache.design_hit_ratio",
        "ratio",
        "throughput_rps",
        SWEEP,
    ),
    lm("netlist.generate_ms", "ms", "throughput_rps", SWEEP),
    lm("sta.setup_ms", "ms", "throughput_rps", SWEEP),
    lm("sta.hold_plan_ms", "ms", "throughput_rps", SWEEP),
    lm("serve.compile_ms", "ms", "throughput_rps", SWEEP),
    lm("serve.compile_ms.rca16", "ms", "throughput_rps", SWEEP),
    lm("serve.compile_ms.ks16", "ms", "throughput_rps", SWEEP),
    lm("serve.compile_ms.mul8", "ms", "throughput_rps", SWEEP),
    lm("serve.compile_ms.alu8", "ms", "throughput_rps", SWEEP),
    lm("serve.compile_ms.random_dag", "ms", "throughput_rps", SWEEP),
    lm("serve.compile_ms.datapath", "ms", "throughput_rps", SWEEP),
    lm("serve.compile_ms.proc", "ms", "throughput_rps", SWEEP),
    lm("serve.integrity.seal_us", "us", "throughput_rps", SWEEP),
    lm(
        "resilience.journal.append_us",
        "us",
        "throughput_rps",
        SWEEP,
    ),
    lm("resilience.journal.scan_ms", "ms", "setup_s", ZIPF),
    lm("serve.evaluate_ms", "ms", "sim_mcycles_per_s", HEAVY),
    lm(
        "pipeline.sim_mcycles_per_s",
        "Mcycle/s",
        "sim_mcycles_per_s",
        HEAVY,
    ),
    lm("schemes.build_us", "us", "sim_mcycles_per_s", HEAVY),
    lm(
        "resilience.executor.parallel_eff",
        "ratio",
        "throughput_rps",
        CLOSED,
    ),
    lm("serve.engine.batch_ms", "ms", "latency_p90_ms", ZIPF),
    lm("serve.engine.batch_size", "count", "latency_p90_ms", ZIPF),
    lm("serve.engine.queue_wait_ms", "ms", "latency_p90_ms", ZIPF),
    lm(
        "serve.engine.unattributed_frac",
        "ratio",
        "latency_p50_ms",
        SWEEP,
    ),
    lm("serve.governor.shed", "count", "throughput_rps", SERVE),
    lm(
        "resilience.executor.retries",
        "count",
        "throughput_rps",
        SERVE,
    ),
    lm("tune.context_ms", "ms", "setup_s", TUNE),
    lm("tune.candidate_ms", "ms", "throughput_rps", TUNE),
    lm("lint.lint_ms", "ms", "throughput_rps", TUNE),
    lm("analyze.certify_ms", "ms", "throughput_rps", TUNE),
    lm("power.overhead_us", "us", "throughput_rps", TUNE),
    lm(
        "batch.lane_mcycles_per_s",
        "Mcycle/s",
        "throughput_rps",
        TUNE,
    ),
    lm("tune.unattributed_frac", "ratio", "latency_p50_ms", TUNE),
    lm("bench.gen_late_p99_ms", "ms", "latency_p90_ms", ZIPF),
    lm("bench.trace_overhead_frac", "ratio", "throughput_rps", ALL),
];

/// The per-layer entry of a metric name.
pub fn layer(name: &str) -> Option<&'static LayerMetric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The unit of a metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| layer(name).map(|m| m.unit))
}

#[cfg(test)]
/// Whether a name matches `[A-Za-z0-9_.-]+`, starts with a letter or
/// digit and is at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
            assert!(unit_of(n).is_some());
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names are unique");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    #[test]
    fn every_layer_metric_maps_to_an_end_to_end_metric_and_workload() {
        for m in PER_LAYER {
            assert!(
                END_TO_END.iter().any(|(n, _)| *n == m.moves),
                "{} moves unknown {}",
                m.name,
                m.moves
            );
            assert!(!m.on.is_empty(), "{}", m.name);
            for w in m.on {
                assert!(WORKLOADS.contains(w), "{} on unknown {w}", m.name);
            }
        }
    }

    #[test]
    fn the_registry_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(|v| v.as_str())
                            .expect("name")
                            .to_owned(),
                        m.get("unit")
                            .and_then(|v| v.as_str())
                            .expect("unit")
                            .to_owned(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
