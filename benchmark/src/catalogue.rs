//! The metric catalogue: every name, unit and direction `BENCHMARK.json`
//! declares. A run must report exactly these (the end-to-end set with
//! tracing off, the per-layer set from the traced run); a unit test holds
//! the JSON file and this table together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `exact` marks counts that must repeat bit for bit
/// for a given seed (simulated-domain values and byte counts).
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

pub const END_TO_END: &[Decl] = &[
    timing("wall_s", "s"),
    timing("setup_s", "s"),
    timing("peak_rss_mb", "MB"),
    timing("submit_to_outcome_s", "s"),
    timing("cache_hit_ms", "ms"),
];

pub const PER_LAYER: &[Decl] = &[
    // sim
    timing("sim.schedule_drain_ns_per_event", "ns"),
    timing("sim.cascade_ns_per_event", "ns"),
    exact("sim.events_drained", "count"),
    exact("sim.queue_depth_highwater", "count"),
    // geo
    timing("geo.base_rtt_ns", "ns"),
    // net
    timing("net.build_s", "s"),
    timing("net.clone_us", "us"),
    timing("net.clone_us.tail", "us"),
    timing("net.reseed_us", "us"),
    timing("net.window_s", "s"),
    timing("net.window_s.tail", "s"),
    exact("net.events_per_run", "count"),
    timing("net.ns_per_event.bitcoin", "ns"),
    timing("net.ns_per_event.lbc", "ns"),
    timing("net.ns_per_event.bcbpt", "ns"),
    timing("net.idle_window_s", "s"),
    exact("net.idle_events_per_run", "count"),
    timing("net.background_share", "ratio"),
    exact("net.tx_events_per_run", "count"),
    exact("net.msgs_probe", "count"),
    exact("net.msgs_cluster_control", "count"),
    exact("net.msgs_relay", "count"),
    timing("net.snapshot_mb", "MB"),
    // cluster
    timing("cluster.policy_build_us", "us"),
    timing("cluster.warmup_s.bitcoin", "s"),
    timing("cluster.warmup_s.lbc", "s"),
    timing("cluster.warmup_s.bcbpt", "s"),
    exact("cluster.warmup_probe_msgs", "count"),
    exact("cluster.count", "count"),
    exact("cluster.largest", "count"),
    timing("cluster.dispatch_ratio", "ratio"),
    // relay
    timing("relay.legacy.cell_s", "s"),
    timing("relay.full.cell_s", "s"),
    timing("relay.compact.cell_s", "s"),
    timing("relay.rlnc.cell_s", "s"),
    timing("relay.gf256_absorb_ns", "ns"),
    exact("relay.full.bytes_on_wire", "bytes"),
    exact("relay.full.waste_ratio", "ratio"),
    exact("relay.full.block_delay_ms", "ms"),
    exact("relay.compact.bytes_on_wire", "bytes"),
    exact("relay.compact.waste_ratio", "ratio"),
    exact("relay.compact.block_delay_ms", "ms"),
    exact("relay.rlnc.bytes_on_wire", "bytes"),
    exact("relay.rlnc.waste_ratio", "ratio"),
    exact("relay.rlnc.block_delay_ms", "ms"),
    // stats
    timing("stats.summary_ns_per_sample", "ns"),
    timing("stats.ecdf_ns_per_sample", "ns"),
    timing("stats.render_s", "s"),
    // core
    timing("core.scenario_parse_us", "us"),
    timing("core.campaign_serial_s", "s"),
    timing("core.campaign_residual_s", "s"),
    timing("core.run_p50_ms", "ms"),
    timing("core.run_p99_ms", "ms"),
    higher("core.pool_efficiency", "ratio"),
    timing("core.exec_batch_s", "s"),
    timing("core.exec_session_s", "s"),
    timing("core.exec_shard1_s", "s"),
    timing("core.shard_run_s", "s"),
    exact("core.part_bytes", "bytes"),
    timing("core.part_encode_s", "s"),
    timing("core.part_decode_s", "s"),
    timing("core.merge_s", "s"),
    exact("core.outcome_bytes", "bytes"),
    timing("core.outcome_encode_s", "s"),
    timing("core.outcome_decode_s", "s"),
    timing("core.checkpoint_overhead_ratio", "ratio"),
    exact("core.checkpoint_bytes_total", "bytes"),
    timing("core.warm_cache_hit_us", "us"),
    // serde_json
    higher("serde_json.encode_mb_per_s", "MB/s"),
    higher("serde_json.decode_mb_per_s", "MB/s"),
    timing("serde_json.decode_scaling", "ratio"),
    // obs
    timing("obs.trace_overhead_ratio", "ratio"),
    exact("obs.spans_recorded", "count"),
    // serve
    timing("serve.http_rtt_ms", "ms"),
    timing("serve.http_rtt_ms.tail", "ms"),
    timing("serve.submit_ack_ms", "ms"),
    timing("serve.job_run_s", "s"),
    timing("serve.outcome_fetch_ms", "ms"),
    timing("serve.overhead_ratio", "ratio"),
    timing("serve.job_1shard_s", "s"),
    exact("serve.spool_bytes", "bytes"),
    timing("serve.checkpoint_write_s_sum", "s"),
    timing("serve.spool_write_s_sum", "s"),
    timing("serve.spool_read_s_sum", "s"),
    timing("serve.queue_wait_s_sum", "s"),
    timing("serve.metrics_scrape_ms", "ms"),
    timing("serve.events_stream_ms", "ms"),
    exact("serve.runs_executed", "count"),
];

pub fn find(name: &str) -> Option<&'static Decl> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|decl| decl.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadKind;
    use serde::Value;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// Regression bounds, by end-to-end metric, in declaration order. The
    /// wall-clock metrics get the contract's maximum, 25 %: on the
    /// reference host the same deterministic work reads up to a quarter
    /// slower under sustained load than after an idle minute, and ten-run
    /// spreads of 11 % were seen. `cache_hit_ms` (two accept-poll sleeps)
    /// and `peak_rss_mb` repeat within 5 % and keep the issue's 10 %.
    const BOUNDS: [f64; 5] = [0.25, 0.25, 0.10, 0.25, 0.10];

    fn field<'a>(entries: &'a [(String, Value)], key: &str) -> &'a Value {
        serde::map_get(entries, key)
    }

    fn text(v: &Value) -> &str {
        v.as_str().expect("string")
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let top = doc.as_map().expect("object");
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<&str> = field(top, "workloads")
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| text(field(w.as_map().unwrap(), "name")))
            .collect();
        let ours: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let e2e = field(top, "end_to_end").as_seq().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for ((entry, decl), want) in e2e.iter().zip(END_TO_END).zip(BOUNDS) {
            let m = entry.as_map().unwrap();
            assert_eq!(text(field(m, "name")), decl.name);
            assert_eq!(text(field(m, "unit")), decl.unit, "{}", decl.name);
            assert_eq!(
                text(field(m, "better")),
                decl.better.as_str(),
                "{}",
                decl.name
            );
            assert_eq!(field(m, "bound"), &Value::F64(want), "{}", decl.name);
        }

        let layers = field(top, "per_layer").as_seq().unwrap();
        assert!(layers.len() <= 128);
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, decl) in layers.iter().zip(PER_LAYER) {
            let m = entry.as_map().unwrap();
            assert_eq!(m.len(), 3, "{}: exactly name, unit, better", decl.name);
            assert_eq!(text(field(m, "name")), decl.name);
            assert_eq!(text(field(m, "unit")), decl.unit, "{}", decl.name);
            assert_eq!(
                text(field(m, "better")),
                decl.better.as_str(),
                "{}",
                decl.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for decl in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(decl.name), "{} declared twice", decl.name);
            assert!(decl.name.len() <= 64);
            assert!(decl
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(decl.unit.len() <= 16);
            assert!(decl
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(find("wall_s").is_some() && find("nope").is_none());
    }
}
