//! Seed → inputs. Every workload's inputs are scenario JSON text generated
//! here as a pure function of `(workload, seed)`; the program under test
//! receives only that text (it is parsed back with `Scenario::from_json`
//! inside the timed region, exactly as a scenario file would be).

use bcbpt_cluster::{Protocol, ProtocolSpec};
use bcbpt_core::{RelaySpec, Scenario, Sweep, Workload};

/// The seed used when none is given; the pinned digests under `golden/`
/// apply to it only.
pub const DEFAULT_SEED: u64 = 48313;

/// Cold jobs one `serve-shards` run submits (and then resubmits).
pub const SERVE_JOBS: usize = 8;

/// The four workloads, named as `BENCHMARK.json` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    TxfloodFig3,
    PaperSlice,
    MiningRelay,
    ServeShards,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::TxfloodFig3,
        WorkloadKind::PaperSlice,
        WorkloadKind::MiningRelay,
        WorkloadKind::ServeShards,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::TxfloodFig3 => "txflood-fig3",
            WorkloadKind::PaperSlice => "paper-slice",
            WorkloadKind::MiningRelay => "mining-relay",
            WorkloadKind::ServeShards => "serve-shards",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn bcbpt_25() -> ProtocolSpec {
    ProtocolSpec::from(Protocol::Bcbpt { threshold_ms: 25.0 })
}

/// The paper's Fig. 3 experiment at demo scale: 400 nodes, three
/// protocols, 60 measuring runs per cell.
fn txflood_fig3(seed: u64) -> Scenario {
    let mut s = Scenario::builtin("fig3").expect("fig3 is a builtin");
    s.name = "bench-txflood-fig3".to_string();
    s.runs = 60;
    s.seed = seed;
    s
}

/// The paper's §V.B population with few runs: the fig3 environment at
/// 5000 nodes with the `ExperimentConfig::paper` warmup and window.
fn paper_slice(seed: u64) -> Scenario {
    let mut s = Scenario::builtin("fig3").expect("fig3 is a builtin");
    s.name = "bench-paper-slice".to_string();
    s.net.num_nodes = 5000;
    s.warmup_ms = 30_000.0;
    s.window_ms = 60_000.0;
    s.runs = 2;
    s.seed = seed;
    s.sweep = Some(Sweep::over_protocols([
        ProtocolSpec::from(Protocol::Bitcoin),
        bcbpt_25(),
    ]));
    s
}

/// Blocks instead of transactions: the relay builtin's environment with
/// 45-second mining windows, two clustering regimes × three relay families.
fn mining_relay(seed: u64) -> Scenario {
    let mut s = Scenario::builtin("relay").expect("relay is a builtin");
    s.name = "bench-mining-relay".to_string();
    s.workload = Workload::Mining {
        block_interval_ms: 1_000.0,
        duration_ms: 45_000.0,
    };
    s.runs = 2;
    s.seed = seed;
    s.sweep = Some(Sweep {
        protocols: vec![ProtocolSpec::from(Protocol::Bitcoin), bcbpt_25()],
        thresholds_ms: vec![],
        num_nodes: vec![],
        relays: vec![
            RelaySpec::new("full"),
            RelaySpec::new("compact"),
            RelaySpec::new("rlnc(chunks=16)"),
        ],
    });
    s
}

/// One `serve-shards` job body: the fig3 environment at 150 nodes. Job
/// `index` (0-based) is seeded `seed + 1 + index`, so the bodies of a
/// run are distinct scenarios with distinct store digests.
fn serve_job(seed: u64, index: usize) -> Scenario {
    let mut s = Scenario::builtin("fig3").expect("fig3 is a builtin");
    s.name = "bench-serve-shards".to_string();
    s.net.num_nodes = 150;
    s.warmup_ms = 2_000.0;
    s.window_ms = 5_000.0;
    s.runs = 100;
    s.seed = seed.wrapping_add(1 + index as u64);
    s
}

/// The scenario JSON texts a workload run feeds the program: one text for
/// the campaign workloads, [`SERVE_JOBS`] job bodies for `serve-shards`.
pub fn scenario_texts(kind: WorkloadKind, seed: u64) -> Vec<String> {
    match kind {
        WorkloadKind::TxfloodFig3 => vec![txflood_fig3(seed).to_json()],
        WorkloadKind::PaperSlice => vec![paper_slice(seed).to_json()],
        WorkloadKind::MiningRelay => vec![mining_relay(seed).to_json()],
        WorkloadKind::ServeShards => (0..SERVE_JOBS)
            .map(|i| serve_job(seed, i).to_json())
            .collect(),
    }
}

/// Measuring runs per cell of the traced run's scenario (`serve-shards`:
/// of each traced job).
fn trace_runs(kind: WorkloadKind) -> usize {
    match kind {
        WorkloadKind::TxfloodFig3 => 16,
        WorkloadKind::PaperSlice => 2,
        WorkloadKind::MiningRelay => 1,
        WorkloadKind::ServeShards => SERVE_TRACE_RUNS,
    }
}

/// Runs per cell of the job bodies the traced run submits to the daemon.
const SERVE_TRACE_RUNS: usize = 40;

/// The reduced copy of a workload's scenario the traced run stages layer
/// by layer: same population, warmup and window, fewer measuring runs per
/// cell, so the dozen whole-scenario executions of a traced run fit its
/// time. Run `k` of a campaign is a pure function of `(seed, k)`, so these
/// are exactly the first runs of the full scenario.
pub fn trace_scenario_text(kind: WorkloadKind, seed: u64) -> String {
    let mut s = match kind {
        WorkloadKind::TxfloodFig3 => txflood_fig3(seed),
        WorkloadKind::PaperSlice => paper_slice(seed),
        WorkloadKind::MiningRelay => mining_relay(seed),
        WorkloadKind::ServeShards => serve_job(seed, 0),
    };
    s.runs = trace_runs(kind);
    s.to_json()
}

/// The job bodies the traced run's daemon section submits: all the
/// `serve-shards` jobs on that workload, the first one elsewhere (where
/// the daemon is probed, not loaded) — each at the traced run count. The
/// extra body at the end (seeded past them) is the one-shard job.
pub fn serve_trace_bodies(kind: WorkloadKind, seed: u64) -> (Vec<String>, String) {
    let jobs = if kind == WorkloadKind::ServeShards {
        SERVE_JOBS
    } else {
        1
    };
    let body = |index: usize| {
        let mut s = serve_job(seed, index);
        s.runs = SERVE_TRACE_RUNS;
        s.to_json()
    };
    ((0..jobs).map(body).collect(), body(SERVE_JOBS))
}

/// The environment of the `relay.*` probes: the `mining-relay` scenario,
/// whose first cell's configuration each `fork_experiment` probe runs.
pub fn relay_probe_text(seed: u64) -> String {
    mining_relay(seed).to_json()
}

/// Whether every staged run of the traced scenario gets an idle twin (the
/// same window with nothing injected) or only run 0 of each cell: a
/// 5000-node window takes seconds.
pub fn idle_twin_every_run(kind: WorkloadKind) -> bool {
    kind != WorkloadKind::PaperSlice
}

/// SplitMix64: the benchmark's own input generator for seeded probe
/// inputs (node pairs, coefficient vectors) — a pure function of the seed
/// with no dependency on the program's RNG streams.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant for
    /// probe inputs.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for kind in WorkloadKind::ALL {
            let a = scenario_texts(kind, 7);
            let b = scenario_texts(kind, 7);
            assert_eq!(a, b, "{}: same seed, same inputs", kind.name());
            let c = scenario_texts(kind, 8);
            assert_ne!(a, c, "{}: another seed, other inputs", kind.name());
            assert_eq!(
                trace_scenario_text(kind, 7),
                trace_scenario_text(kind, 7),
                "{}",
                kind.name()
            );
            assert_eq!(serve_trace_bodies(kind, 7), serve_trace_bodies(kind, 7));
            assert_ne!(serve_trace_bodies(kind, 7), serve_trace_bodies(kind, 8));
        }
    }

    #[test]
    fn every_generated_scenario_parses_and_validates() {
        for kind in WorkloadKind::ALL {
            let mut texts = scenario_texts(kind, DEFAULT_SEED);
            texts.push(trace_scenario_text(kind, DEFAULT_SEED));
            let (bodies, one_shard) = serve_trace_bodies(kind, DEFAULT_SEED);
            assert!(
                !bodies.contains(&one_shard),
                "the one-shard job is never a cache hit"
            );
            texts.extend(bodies);
            texts.push(one_shard);
            texts.push(relay_probe_text(DEFAULT_SEED));
            for text in texts {
                let scenario = Scenario::from_json(&text).expect("parses");
                scenario.validate().expect("validates");
                assert_eq!(scenario.to_json(), text, "round-trips");
            }
        }
    }

    #[test]
    fn serve_jobs_are_distinct_scenarios() {
        let texts = scenario_texts(WorkloadKind::ServeShards, DEFAULT_SEED);
        assert_eq!(texts.len(), SERVE_JOBS);
        let digests: std::collections::BTreeSet<u64> = texts
            .iter()
            .map(|t| Scenario::from_json(t).unwrap().digest())
            .collect();
        assert_eq!(digests.len(), SERVE_JOBS);
        let first = Scenario::from_json(&texts[0]).unwrap();
        assert_eq!(first.seed, DEFAULT_SEED + 1);
    }

    #[test]
    fn workload_shapes_match_the_catalogue() {
        let fig3 = Scenario::from_json(&scenario_texts(WorkloadKind::TxfloodFig3, 1)[0]).unwrap();
        assert_eq!(
            (fig3.net.num_nodes, fig3.runs, fig3.cells().len()),
            (400, 60, 3)
        );
        let slice = Scenario::from_json(&scenario_texts(WorkloadKind::PaperSlice, 1)[0]).unwrap();
        assert_eq!(
            (slice.net.num_nodes, slice.runs, slice.cells().len()),
            (5000, 2, 2)
        );
        assert_eq!((slice.warmup_ms, slice.window_ms), (30_000.0, 60_000.0));
        let relay = Scenario::from_json(&scenario_texts(WorkloadKind::MiningRelay, 1)[0]).unwrap();
        assert_eq!(
            (relay.net.num_nodes, relay.runs, relay.cells().len()),
            (400, 2, 6)
        );
        assert_eq!(relay.net.block_size_bytes, 20_000);
    }

    #[test]
    fn splitmix_repeats_for_a_seed() {
        let mut a = SplitMix64::new(3);
        let mut b = SplitMix64::new(3);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| SplitMix64::new(x).below(10) < 10));
    }
}
