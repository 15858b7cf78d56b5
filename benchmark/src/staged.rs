//! A scenario executed by hand through the layers' public functions —
//! `Scenario::from_json` → `ProtocolRegistry::build` → `Network::build` →
//! `install_relay` → `warmup_ms`, then per measuring run `clone` →
//! `reseed_streams` → inject → `run_for_ms` → harvest — with a span around
//! each call. The timed run uses the front half as its set-up staging; the
//! traced run replays whole scenarios this way and must reproduce the black
//! box (`Scenario::run`) byte for byte, or its attribution is void.

use crate::spans::Recorder;
use bcbpt_cluster::ProtocolRegistry;
use bcbpt_core::{
    cluster_sizes, CampaignResult, CellOutcome, CellReport, ExperimentConfig, ForkReport,
    RelayForkExt, RunResult, Scenario, ScenarioCell, Workload,
};
use bcbpt_net::{MessageStats, Network, NodeId};
use bcbpt_sim::RngHub;

/// One sweep cell built and warmed by hand, with what each step cost.
pub struct WarmedCell {
    pub cell: ScenarioCell,
    pub cfg: ExperimentConfig,
    pub net: Network,
    pub policy_build_s: f64,
    pub build_s: f64,
    pub warmup_s: f64,
}

impl WarmedCell {
    /// `bitcoin`, `lbc`, `bcbpt`, … — the protocol family, which names the
    /// per-protocol metrics.
    pub fn family(&self) -> &str {
        self.cfg.protocol.family()
    }
}

/// Builds and warms one cell: everything a campaign does before its first
/// measuring run.
pub fn warm_cell(
    rec: &mut Recorder,
    registry: &ProtocolRegistry,
    scenario: &Scenario,
    cell: ScenarioCell,
) -> Result<WarmedCell, String> {
    let cfg = scenario.cell_config(&cell);
    let (policy, policy_build_s) =
        rec.leaf("cluster.policy_build", || registry.build(&cfg.protocol));
    let policy = policy?;
    let (net, build_s) = rec.leaf("net.build", || {
        Network::build(cfg.net.clone(), policy, cfg.seed)
    });
    let mut net = net?;
    if let Some(spec) = &cfg.relay {
        let (installed, _) = rec.leaf("relay.install", || -> Result<(), String> {
            net.install_relay(bcbpt_relay::registry().build(spec)?);
            Ok(())
        });
        installed?;
    }
    let ((), warmup_s) = rec.leaf("cluster.warmup", || net.warmup_ms(cfg.warmup_ms));
    Ok(WarmedCell {
        cell,
        cfg,
        net,
        policy_build_s,
        build_s,
        warmup_s,
    })
}

/// One set-up staging: scenario text in, every cell warmed. Returns the
/// parsed scenario, the warmed cells and the parse time in seconds.
pub fn stage_setup(
    rec: &mut Recorder,
    text: &str,
) -> Result<(Scenario, Vec<WarmedCell>, f64), String> {
    let (scenario, parse_s) = rec.leaf("core.scenario_parse", || Scenario::from_json(text));
    let scenario = scenario?;
    let (valid, _) = rec.leaf("core.validate", || scenario.validate());
    valid?;
    let registry = ProtocolRegistry::builtins();
    let mut cells = Vec::new();
    for cell in scenario.cells() {
        cells.push(warm_cell(rec, &registry, &scenario, cell)?);
    }
    Ok((scenario, cells, parse_s))
}

/// What one hand-staged measuring run cost and produced.
pub struct StagedRun {
    pub clone_s: f64,
    pub reseed_s: f64,
    pub window_s: f64,
    /// Events the run's window handled (the clone's counter minus the
    /// snapshot's).
    pub events: u64,
    pub traffic: MessageStats,
    pub harvest: Harvest,
}

/// The simulated-domain result of a staged run.
pub enum Harvest {
    /// A transaction-flood run; `None` when no measuring node could be
    /// picked (the campaign skips such runs).
    Tx(Option<RunResult>),
    Mining {
        mined: usize,
        stale: usize,
        tip_agreement: f64,
        block_delay_ms: Option<f64>,
    },
}

/// The campaign's measuring-node pick, through public calls: an online,
/// connected, honest node, within 32 draws.
fn pick_origin(net: &mut Network) -> Option<NodeId> {
    for _ in 0..32 {
        let candidate = net.pick_online_node()?;
        if net.links().degree(candidate) > 0 && !net.is_attacker(candidate) {
            return Some(candidate);
        }
    }
    None
}

fn replay_clone(rec: &mut Recorder, warmed: &WarmedCell, run_index: usize) -> (Network, f64, f64) {
    let (mut net, clone_s) = rec.leaf("net.clone", || warmed.net.clone());
    let ((), reseed_s) = rec.leaf("net.reseed", || {
        net.reseed_streams(&RngHub::new(warmed.cfg.seed).subhub("run", run_index as u64))
    });
    (net, clone_s, reseed_s)
}

/// Replays measuring run `run_index` of a warmed cell by hand.
pub fn staged_run(
    rec: &mut Recorder,
    warmed: &WarmedCell,
    workload: &Workload,
    warmup_traffic: &MessageStats,
    run_index: usize,
) -> StagedRun {
    let (mut net, clone_s, reseed_s) = replay_clone(rec, warmed, run_index);
    let base_events = warmed.net.events_processed();
    match workload {
        Workload::Mining {
            block_interval_ms,
            duration_ms,
        } => {
            let ((), window_s) = rec.leaf("net.window", || {
                net.enable_mining(*block_interval_ms);
                net.run_for_ms(*duration_ms);
            });
            let (harvest, _) = rec.leaf("net.harvest", || Harvest::Mining {
                mined: net.ledger().mined_count(),
                stale: net.ledger().stale_count(),
                tip_agreement: net.tip_agreement(),
                block_delay_ms: warmed
                    .cfg
                    .relay
                    .is_some()
                    .then(|| net.block_delay_mean_ms())
                    .filter(|d| d.is_finite()),
            });
            StagedRun {
                clone_s,
                reseed_s,
                window_s,
                events: net.events_processed() - base_events,
                traffic: net.stats().since(warmup_traffic),
                harvest,
            }
        }
        _ => {
            let (origin, window_s) = rec.leaf("net.window", || {
                let origin = pick_origin(&mut net)?;
                net.inject_watched_tx(origin, None).ok()?;
                net.run_for_ms(warmed.cfg.window_ms);
                Some(origin)
            });
            let (result, _) = rec.leaf("net.harvest", || {
                let origin = origin?;
                let watch = net.take_watch()?;
                Some(RunResult {
                    run_index,
                    origin: origin.as_u32(),
                    deltas_ms: watch.deltas_ms(),
                    arrival_delays_ms: watch.arrival_delays_ms(),
                    reached: watch.reached_count(),
                    online: net.online_count(),
                })
            });
            StagedRun {
                clone_s,
                reseed_s,
                window_s,
                events: net.events_processed() - base_events,
                traffic: net.stats().since(warmup_traffic),
                harvest: Harvest::Tx(result),
            }
        }
    }
}

/// The same window on a clone with nothing injected and no mining: what
/// the background (discovery ticks, churn) costs on its own. Returns the
/// window seconds and the events handled.
pub fn idle_run(
    rec: &mut Recorder,
    warmed: &WarmedCell,
    workload: &Workload,
    run_index: usize,
) -> (f64, u64) {
    let (mut net, _, _) = replay_clone(rec, warmed, run_index);
    let duration_ms = match workload {
        Workload::Mining { duration_ms, .. } => *duration_ms,
        _ => warmed.cfg.window_ms,
    };
    let ((), window_s) = rec.leaf("net.idle_window", || net.run_for_ms(duration_ms));
    (
        window_s,
        net.events_processed() - warmed.net.events_processed(),
    )
}

/// Assembles a cell's report from its staged runs, the way the campaign
/// fold does: runs in index order, traffic = warmup + Σ window traffic.
pub fn assemble_cell(warmed: &WarmedCell, runs: &[StagedRun]) -> CellOutcome {
    let warmup_traffic = warmed.net.stats().clone();
    let mut traffic = warmup_traffic.clone();
    let mining = runs
        .iter()
        .any(|r| matches!(r.harvest, Harvest::Mining { .. }));
    let report = if mining {
        let (mut mined_sum, mut stale_sum, mut tip_sum) = (0usize, 0usize, 0.0f64);
        let mut delays = Vec::new();
        for run in runs {
            traffic.merge(&run.traffic);
            if let Harvest::Mining {
                mined,
                stale,
                tip_agreement,
                block_delay_ms,
            } = &run.harvest
            {
                mined_sum += mined;
                stale_sum += stale;
                tip_sum += tip_agreement;
                delays.extend(*block_delay_ms);
            }
        }
        CellReport::Forks {
            report: ForkReport {
                protocol: warmed.cfg.protocol.to_string(),
                mined: mined_sum,
                stale: stale_sum,
                stale_rate: if mined_sum == 0 {
                    0.0
                } else {
                    stale_sum as f64 / mined_sum as f64
                },
                tip_agreement: if runs.is_empty() {
                    0.0
                } else {
                    tip_sum / runs.len() as f64
                },
                relay: warmed.cfg.relay.as_ref().map(|spec| RelayForkExt {
                    relay: spec.to_string(),
                    block_delay_ms: if delays.is_empty() {
                        0.0
                    } else {
                        delays.iter().sum::<f64>() / delays.len() as f64
                    },
                    bandwidth: traffic.bandwidth_report(),
                }),
            },
        }
    } else {
        let mut results = Vec::with_capacity(runs.len());
        for run in runs {
            if let Harvest::Tx(Some(result)) = &run.harvest {
                traffic.merge(&run.traffic);
                results.push(result.clone());
            }
        }
        CellReport::Campaign {
            campaign: CampaignResult {
                protocol: warmed.cfg.protocol.to_string(),
                runs: results,
                traffic,
                warmup_traffic,
                cluster_sizes: cluster_sizes(&warmed.net),
                num_nodes: warmed.cfg.net.num_nodes,
                failures: Vec::new(),
            },
        }
    };
    CellOutcome::new(
        warmed.cell.label.clone(),
        warmed.cell.protocol.to_string(),
        warmed.cell.num_nodes,
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_cluster::Protocol;
    use bcbpt_core::ScenarioOutcome;

    fn tiny(workload: Workload, relay: Option<&str>) -> Scenario {
        let mut base = ExperimentConfig::quick(Protocol::Bitcoin);
        base.net.num_nodes = 50;
        base.net.block_size_bytes = 20_000;
        base.warmup_ms = 1_000.0;
        base.window_ms = 8_000.0;
        base.runs = 3;
        if let Some(relay) = relay {
            base = base.with_relay(relay);
        }
        Scenario::from_experiment("tiny-staged", &base, workload).with_sweep(
            bcbpt_core::Sweep::over_protocols([Protocol::Bitcoin, Protocol::bcbpt_paper()]),
        )
    }

    fn replay(text: &str) -> String {
        let mut rec = Recorder::new(true);
        let (scenario, cells, _) = stage_setup(&mut rec, text).unwrap();
        let outcomes = cells
            .iter()
            .map(|warmed| {
                let warmup = warmed.net.stats().clone();
                let runs: Vec<StagedRun> = (0..scenario.runs)
                    .map(|k| staged_run(&mut rec, warmed, &scenario.workload, &warmup, k))
                    .collect();
                assemble_cell(warmed, &runs)
            })
            .collect();
        ScenarioOutcome::new(scenario.name.clone(), scenario.workload.clone(), outcomes).to_json()
    }

    #[test]
    fn staged_tx_flood_reproduces_the_black_box_bytes() {
        let text = tiny(Workload::TxFlood, None).to_json();
        let black_box = Scenario::from_json(&text).unwrap().run().unwrap().to_json();
        assert_eq!(replay(&text), black_box);
    }

    #[test]
    fn staged_mining_reproduces_the_black_box_bytes() {
        let workload = Workload::Mining {
            block_interval_ms: 1_000.0,
            duration_ms: 10_000.0,
        };
        for relay in [None, Some("rlnc(chunks=16)")] {
            let text = tiny(workload.clone(), relay).to_json();
            let black_box = Scenario::from_json(&text).unwrap().run().unwrap().to_json();
            assert_eq!(replay(&text), black_box, "relay {relay:?}");
        }
    }

    #[test]
    fn idle_window_handles_fewer_events_than_a_flooded_one() {
        let text = tiny(Workload::TxFlood, None).to_json();
        let mut rec = Recorder::new(false);
        let (scenario, cells, _) = stage_setup(&mut rec, &text).unwrap();
        let warmed = &cells[0];
        let warmup = warmed.net.stats().clone();
        let run = staged_run(&mut rec, warmed, &scenario.workload, &warmup, 0);
        let (_, idle_events) = idle_run(&mut rec, warmed, &scenario.workload, 0);
        assert!(idle_events > 0 && idle_events < run.events);
    }
}
