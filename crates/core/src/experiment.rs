//! Experiment campaigns: the paper's measuring-node methodology, repeated.
//!
//! §V.B: the simulation starts at the measured size of the real network,
//! clusters form during a warmup phase, then "normal Bitcoin simulator
//! events" launch and the measuring node records `Δt(m,n)` per connection;
//! "the latency is determined by an average of approximately 1000 runs".
//! [`ExperimentConfig::run`] reproduces that loop.

use crate::resilience::RunFailure;
use bcbpt_cluster::{ProtocolRegistry, ProtocolSpec};
use bcbpt_net::{Adversary, MessageStats, NetConfig, Network, NodeId, TxWatch};
use bcbpt_sim::RngHub;
use bcbpt_stats::{
    bootstrap_ci, BuildEcdfError, ConfidenceInterval, Ecdf, StreamingSummary, Summary,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One measuring run's harvest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Campaign-local run index.
    pub run_index: usize,
    /// The measuring node `m` of this run.
    pub origin: u32,
    /// `Δt(m,i)` per announcing peer, ms (Eq. 5).
    pub deltas_ms: Vec<f64>,
    /// Network-wide first-arrival delays, ms.
    pub arrival_delays_ms: Vec<f64>,
    /// Nodes reached (excluding the origin).
    pub reached: usize,
    /// Online population at injection time.
    pub online: usize,
}

/// The result of a whole campaign (many runs, one protocol).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The protocol label (e.g. `"bcbpt(dt=25ms)"`).
    pub protocol: String,
    /// Per-run results.
    pub runs: Vec<RunResult>,
    /// Total traffic over the campaign (warmup + measurement).
    pub traffic: MessageStats,
    /// Traffic of the warmup/cluster-formation phase alone.
    pub warmup_traffic: MessageStats,
    /// Cluster sizes at the end of the campaign (empty for non-clustering
    /// protocols), descending.
    pub cluster_sizes: Vec<usize>,
    /// Network size the campaign ran at.
    pub num_nodes: usize,
    /// Runs that panicked instead of retiring, ascending by `run_index` —
    /// caught per run ([`std::panic::catch_unwind`]) and folded in order,
    /// so a poisoned replay is data, not a dead campaign. Disjoint from
    /// `runs` (a run either retires or fails).
    pub failures: Vec<RunFailure>,
}

impl CampaignResult {
    /// The `Δt(m,n)` samples of all runs, borrowed — no per-sample clone.
    pub fn deltas_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.runs.iter().flat_map(|r| r.deltas_ms.iter().copied())
    }

    /// The network-wide arrival delays of all runs, borrowed.
    pub fn arrivals_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.runs
            .iter()
            .flat_map(|r| r.arrival_delays_ms.iter().copied())
    }

    /// All `Δt(m,n)` samples pooled across runs into one vector (use
    /// [`deltas_ms`](Self::deltas_ms) unless a slice is required).
    pub fn all_deltas_ms(&self) -> Vec<f64> {
        self.deltas_ms().collect()
    }

    /// All network-wide arrival delays pooled across runs into one vector
    /// (use [`arrivals_ms`](Self::arrivals_ms) unless a slice is required).
    pub fn all_arrivals_ms(&self) -> Vec<f64> {
        self.arrivals_ms().collect()
    }

    /// Streaming summary of the pooled deltas.
    pub fn delta_summary(&self) -> Summary {
        self.deltas_ms().collect()
    }

    /// Per-run mean `Δt(m,n)` accumulator: one observation per run that
    /// harvested at least one finite delta. Runs are the paper's
    /// independent replicates ("an average of approximately 1000 runs",
    /// §V.B) — samples *within* a run share one measuring origin and are
    /// correlated, so run-level statistics are what confidence-driven
    /// stop rules and honest uncertainty estimates consult.
    pub fn run_mean_summary(&self) -> StreamingSummary {
        let mut summary = StreamingSummary::new();
        for run in &self.runs {
            if let Some(mean) = run_mean_delta(run) {
                summary.record(mean);
            }
        }
        summary
    }

    /// Normal-approximation confidence interval on the per-run mean
    /// delta — the statistic `StopRule::CiHalfWidth` watches. `None` with
    /// fewer than two measuring runs.
    pub fn run_mean_ci(&self, level: f64) -> Option<ConfidenceInterval> {
        self.run_mean_summary().mean_ci(level)
    }

    /// ECDF of the pooled deltas.
    ///
    /// # Errors
    ///
    /// Returns [`BuildEcdfError::Empty`] if no run produced any delta.
    pub fn delta_ecdf(&self) -> Result<Ecdf, BuildEcdfError> {
        Ecdf::from_samples(self.deltas_ms())
    }

    /// ECDF of the pooled network-wide arrival delays.
    ///
    /// # Errors
    ///
    /// Returns [`BuildEcdfError::Empty`] if no run recorded arrivals.
    pub fn arrival_ecdf(&self) -> Result<Ecdf, BuildEcdfError> {
        Ecdf::from_samples(self.arrivals_ms())
    }

    /// Bootstrap confidence interval on the mean of the pooled deltas
    /// (percentile method, deterministic in the campaign seed surrogate 0).
    pub fn delta_mean_ci(&self, level: f64) -> Option<ConfidenceInterval> {
        let deltas = self.all_deltas_ms();
        bootstrap_ci(
            &deltas,
            |xs| xs.iter().sum::<f64>() / xs.len() as f64,
            600,
            level,
            0xC1,
        )
        .ok()
    }

    /// Bootstrap confidence interval on the sample variance of the pooled
    /// deltas — the statistic the paper's Fig. 3/Fig. 4 compare.
    pub fn delta_variance_ci(&self, level: f64) -> Option<ConfidenceInterval> {
        let deltas = self.all_deltas_ms();
        bootstrap_ci(
            &deltas,
            |xs| {
                if xs.len() < 2 {
                    return 0.0;
                }
                let m = xs.iter().sum::<f64>() / xs.len() as f64;
                xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
            },
            600,
            level,
            0xC2,
        )
        .ok()
    }

    /// Mean fraction of the online population reached per run.
    pub fn mean_coverage(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .map(|r| {
                if r.online <= 1 {
                    0.0
                } else {
                    r.reached as f64 / (r.online - 1) as f64
                }
            })
            .sum::<f64>()
            / self.runs.len() as f64
    }
}

/// What one measuring-run replay retired as.
// `Measured` is what nearly every run retires as, so boxing its inline
// traffic tables would buy an allocation per run and save nothing.
#[allow(clippy::large_enum_variant)]
enum RunOutcome {
    /// The run completed, with its harvest and measurement-window traffic.
    Measured(RunResult, MessageStats),
    /// The run was skipped because its origin churned away (the paper
    /// likewise averages over successful measurements, §V.B).
    Skipped,
    /// The run panicked; the payload was caught at the run boundary.
    Panicked(RunFailure),
}

/// Mean of a run's finite `Δt(m,n)` samples (`None` when the run
/// harvested no finite delta) — the per-run replicate statistic. The one
/// definition shared by the streaming fold and
/// [`CampaignResult::run_mean_summary`], so the stop rule's checkpoints
/// and post-hoc CIs can never diverge.
pub(crate) fn run_mean_delta(run: &RunResult) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0u64;
    for &d in &run.deltas_ms {
        if d.is_finite() {
            sum += d;
            count += 1;
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// The pooled accumulators over a folded run prefix — what a stop rule,
/// an observer and a coordinator envelope all read. One definition of the
/// per-run fold, shared by the live [`CampaignFold`] and by resume (which
/// refolds a persisted prefix through it to seed the fold bit-identically).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldedPrefix {
    /// Pooled `Δt(m,n)` accumulator.
    pub deltas: StreamingSummary,
    /// Per-run mean `Δt(m,n)` accumulator: one observation per successful
    /// run that harvested deltas. Runs are the paper's independent
    /// replicates ("an average of approximately 1000 runs", §V.B) —
    /// samples *within* a run share one measuring origin and are
    /// correlated, so confidence-driven stop rules consult this, not
    /// `deltas`.
    pub run_means: StreamingSummary,
    /// Successful measuring runs folded.
    pub measured: usize,
}

impl FoldedPrefix {
    /// The empty prefix (`StreamingSummary::new()`, whose extrema start at
    /// ±∞ — not the derived `Default`).
    pub fn new() -> Self {
        FoldedPrefix {
            deltas: StreamingSummary::new(),
            run_means: StreamingSummary::new(),
            measured: 0,
        }
    }

    /// Folds one successful measuring run.
    pub fn fold(&mut self, result: &RunResult) {
        self.deltas.extend(result.deltas_ms.iter().copied());
        if let Some(mean) = run_mean_delta(result) {
            self.run_means.record(mean);
        }
        self.measured += 1;
    }
}

/// One deterministic checkpoint of a streaming campaign: run `run_index`
/// has just folded (in run-index order, under the fold lock), and these
/// are the statistics accumulated over the folded prefix.
pub(crate) struct RunCheckpoint<'a> {
    /// The folded run's campaign-local index.
    pub run_index: usize,
    /// The folded run's harvest (`None` = the run was skipped because its
    /// origin churned away, or panicked — see `failure`).
    pub result: Option<&'a RunResult>,
    /// The folded run's failure, when it panicked instead of retiring.
    pub failure: Option<&'a RunFailure>,
    /// Every successful run this campaign range has folded so far,
    /// ascending by `run_index` (ends with `result` when it is `Some`) —
    /// lent so a checkpoint writer copies them once, when it persists.
    pub runs: &'a [RunResult],
    /// Every run failure this campaign range has folded so far.
    pub failures: &'a [RunFailure],
    /// Cumulative traffic over the folded prefix (warmup plus the folded
    /// runs' measurement windows) — what a checkpoint writer persists.
    pub traffic: &'a MessageStats,
    /// The pooled accumulators over the folded prefix (whole-prefix
    /// values, also on a resumed range — see `run_campaign_range`).
    pub folded: &'a FoldedPrefix,
}

/// In-order fold hook for streaming sessions: called once per run index
/// (ascending, regardless of worker scheduling) with the checkpoint
/// statistics. Returning `true` stops the campaign after this run — runs
/// with a higher index are discarded even if already computed, so the
/// decision (and the campaign output) depends only on the folded prefix
/// and is byte-identical across thread counts.
pub(crate) type RunControl<'a> = dyn FnMut(&RunCheckpoint<'_>) -> bool + Send + 'a;

/// Fold state of a streaming campaign: runs complete in any order on the
/// worker pool, park in `pending`, and fold strictly in run-index order.
struct CampaignFold<'c, 'f> {
    /// Next run index to fold.
    next: usize,
    /// Last run index included in the campaign (`usize::MAX` = no early
    /// stop decided yet).
    stop_at: usize,
    /// Out-of-order completions waiting for their turn.
    pending: BTreeMap<usize, RunOutcome>,
    /// Folded successful runs, in index order.
    runs: Vec<RunResult>,
    /// Warmup traffic plus the folded runs' window traffic.
    traffic: MessageStats,
    /// Pooled accumulators over the folded runs (seeded with the resumed
    /// prefix's, so checkpoints always carry whole-prefix values).
    prefix: FoldedPrefix,
    /// Folded run failures (panicking runs), in index order.
    failures: Vec<RunFailure>,
    /// Optional stop/observe hook, evaluated at every fold.
    control: Option<&'c mut RunControl<'f>>,
}

impl CampaignFold<'_, '_> {
    /// Parks `outcome` and folds every consecutively-ready run, evaluating
    /// the control hook at each checkpoint. `stop_signal` mirrors
    /// `stop_at` for lock-free worker checks.
    fn absorb(&mut self, index: usize, outcome: RunOutcome, stop_signal: &AtomicUsize) {
        if index > self.stop_at {
            return;
        }
        let _fold_span = bcbpt_obs::span("fold");
        self.pending.insert(index, outcome);
        // Wall-clock side channel: how far ahead of the fold frontier the
        // workers ran (ROADMAP's fold-contention question). Never read back.
        crate::obs::fold_park_depth().record_max(self.pending.len() as i64);
        while self.next <= self.stop_at {
            let Some(outcome) = self.pending.remove(&self.next) else {
                break;
            };
            let run_index = self.next;
            self.next += 1;
            let (result, failure) = match outcome {
                RunOutcome::Measured(result, window_traffic) => {
                    self.traffic.merge(&window_traffic);
                    self.prefix.fold(&result);
                    self.runs.push(result);
                    (self.runs.last(), None)
                }
                RunOutcome::Skipped => (None, None),
                RunOutcome::Panicked(failure) => {
                    self.failures.push(failure);
                    (None, self.failures.last())
                }
            };
            if let Some(control) = self.control.as_mut() {
                let checkpoint = RunCheckpoint {
                    run_index,
                    result,
                    failure,
                    runs: &self.runs,
                    failures: &self.failures,
                    traffic: &self.traffic,
                    folded: &self.prefix,
                };
                if control(&checkpoint) {
                    self.stop_at = run_index;
                    stop_signal.store(run_index, Ordering::Relaxed);
                    self.pending.clear();
                }
            }
        }
    }
}

/// Configuration of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Network configuration.
    pub net: NetConfig,
    /// The protocol under test, named as data (e.g. `"bcbpt(dt=25ms)"`).
    /// Resolved against a [`ProtocolRegistry`] when the campaign runs, so
    /// custom registered policies work anywhere a built-in does.
    pub protocol: ProtocolSpec,
    /// Optional block-relay strategy, named as data (e.g. `"compact"`,
    /// `"rlnc(chunks=16)"`). Resolved against [`bcbpt_relay::registry`]
    /// when the campaign runs and installed with bandwidth-waste
    /// accounting armed. `None` installs nothing: blocks go through the
    /// network's built-in full-body relay with the accounting off, and
    /// outcomes carry no relay extension.
    pub relay: Option<bcbpt_net::RelaySpec>,
    /// Cluster-formation warmup before measurements start, ms.
    pub warmup_ms: f64,
    /// Measurement window per run, ms (the tx must flood the network).
    pub window_ms: f64,
    /// Number of measuring runs (paper: ≈1000).
    pub runs: usize,
    /// Master seed; everything (placement, routes, churn, noise) derives
    /// from it.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A CI-scale configuration: small network, few runs. Finishes in
    /// seconds even in debug builds.
    pub fn quick(protocol: impl Into<ProtocolSpec>) -> Self {
        let mut net = NetConfig::test_scale();
        net.num_nodes = 150;
        ExperimentConfig {
            net,
            protocol: protocol.into(),
            relay: None,
            warmup_ms: 3_000.0,
            window_ms: 20_000.0,
            runs: 10,
            seed: 0xBCB9,
        }
    }

    /// The paper's experiment scale: 5000 nodes, ~1000 runs (§V.B). Run in
    /// release mode only.
    pub fn paper(protocol: impl Into<ProtocolSpec>) -> Self {
        ExperimentConfig {
            net: NetConfig::paper_scale(),
            protocol: protocol.into(),
            relay: None,
            warmup_ms: 30_000.0,
            window_ms: 60_000.0,
            runs: 1000,
            seed: 0xBCB9,
        }
    }

    /// Returns a copy with a different protocol but identical environment —
    /// the paired-comparison knob for Fig. 3/Fig. 4.
    #[must_use]
    pub fn with_protocol(&self, protocol: impl Into<ProtocolSpec>) -> Self {
        ExperimentConfig {
            protocol: protocol.into(),
            ..self.clone()
        }
    }

    /// Returns a copy with a different block-relay strategy but identical
    /// environment — the paired-comparison knob for the relay sweeps.
    #[must_use]
    pub fn with_relay(&self, relay: impl Into<bcbpt_net::RelaySpec>) -> Self {
        ExperimentConfig {
            relay: Some(relay.into()),
            ..self.clone()
        }
    }

    /// Runs the campaign with one worker thread per available core.
    ///
    /// Builds the network once and lets clusters form during warmup. Each
    /// of the `runs` measuring-node injections then executes on its own
    /// clone of that warmed-up snapshot, with every random stream re-derived
    /// from `(seed, run_index)` — runs are mutually independent, so the
    /// pool can execute them in any order while the merged output stays
    /// byte-identical to [`run_serial`](Self::run_serial). Runs whose origin
    /// churned away are skipped (the paper likewise averages over successful
    /// measurements, §V.B: "errors such as loss of connection ... are
    /// expected").
    ///
    /// Per-run results merge in run-index order; traffic counters aggregate
    /// associatively (warmup traffic + the sum of each run's window
    /// traffic).
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors (invalid configuration) and
    /// protocol-resolution errors (unknown protocol spec).
    pub fn run(&self) -> Result<CampaignResult, String> {
        self.run_in(&ProtocolRegistry::builtins())
    }

    /// Runs the campaign strictly on the calling thread. Reference
    /// implementation for the determinism contract: `run()` must produce
    /// byte-identical output.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors (invalid configuration).
    pub fn run_serial(&self) -> Result<CampaignResult, String> {
        self.run_with_threads(1)
    }

    /// Runs the campaign on exactly `threads` worker threads (`0` is
    /// treated as 1). The thread count is an execution detail of the host,
    /// not part of the experiment description — output is byte-identical
    /// for every value.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors (invalid configuration).
    pub fn run_with_threads(&self, threads: usize) -> Result<CampaignResult, String> {
        self.run_in_with_threads(&ProtocolRegistry::builtins(), threads)
    }

    /// Runs the campaign with the protocol resolved against `registry`
    /// instead of the built-in set — the entry point for custom registered
    /// policies. Uses one worker thread per available core.
    ///
    /// # Errors
    ///
    /// Propagates protocol-resolution and network-construction errors.
    pub fn run_in(&self, registry: &ProtocolRegistry) -> Result<CampaignResult, String> {
        self.run_in_with_threads(
            registry,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
    }

    /// [`run_in`](Self::run_in) with an explicit worker-thread count.
    ///
    /// # Errors
    ///
    /// Propagates protocol-resolution and network-construction errors.
    pub fn run_in_with_threads(
        &self,
        registry: &ProtocolRegistry,
        threads: usize,
    ) -> Result<CampaignResult, String> {
        self.run_campaign(registry, threads, None, None, None, None)
    }

    /// [`run_campaign`](Self::run_campaign) over the whole `0..runs` range.
    pub(crate) fn run_campaign(
        &self,
        registry: &ProtocolRegistry,
        threads: usize,
        adversary: Option<Box<dyn Adversary>>,
        warm: Option<&crate::warm::WarmCache>,
        inspect_warm: Option<&mut dyn FnMut(&Network)>,
        control: Option<&mut RunControl<'_>>,
    ) -> Result<CampaignResult, String> {
        self.run_campaign_range(
            registry,
            threads,
            adversary,
            warm,
            inspect_warm,
            control,
            0..self.runs,
            FoldedPrefix::new(),
        )
    }

    /// The full campaign loop, with the hooks the adversarial experiments
    /// and streaming sessions need: an optional behavioural [`Adversary`]
    /// installed *before* warmup (so attackers can game topology
    /// formation), an optional inspection of the warmed-up snapshot (for
    /// infiltration metrics) before the measuring runs fan out, and an
    /// optional [`RunControl`] hook evaluated at every run-index-ordered
    /// fold checkpoint (for live observation and adaptive stopping).
    ///
    /// An adversary controlling zero nodes leaves the output byte-identical
    /// to a plain run — the determinism contract `adversary::tests` pins.
    ///
    /// `run_range` restricts execution to a contiguous slice of the
    /// campaign's run indices — the shard primitive. Per-run RNG streams
    /// derive from `(seed, run_index)` (never from what ran before), so
    /// executing `lo..hi` in one process yields exactly the runs a full
    /// campaign would have produced at those indices; [`crate::shard`]
    /// merges such slices back into a whole campaign. `prefix` seeds the
    /// fold's pooled accumulators: empty for a fresh range, the refolded
    /// persisted prefix for a resumed one, so every [`RunCheckpoint`]
    /// carries whole-prefix statistics either way.
    ///
    /// `warm` optionally memoizes the built-and-warmed base network under
    /// its warm-recipe digest (see [`crate::warm`]): warmup is
    /// deterministic and runs execute on clones of the snapshot, so a
    /// cache hit is byte-identical to rebuilding. Campaigns with an
    /// adversary bypass the cache — the adversary shapes warmup.
    // Internal plumbing for the session/shard/adversary runners; the
    // hooks are orthogonal and each public wrapper passes most as None.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_campaign_range(
        &self,
        registry: &ProtocolRegistry,
        threads: usize,
        adversary: Option<Box<dyn Adversary>>,
        warm: Option<&crate::warm::WarmCache>,
        inspect_warm: Option<&mut dyn FnMut(&Network)>,
        control: Option<&mut RunControl<'_>>,
        run_range: std::ops::Range<usize>,
        prefix: FoldedPrefix,
    ) -> Result<CampaignResult, String> {
        let build = |adversary: Option<Box<dyn Adversary>>| -> Result<Network, String> {
            let _span = bcbpt_obs::span("warmup");
            let _timer = crate::obs::warmup_seconds().start_timer();
            let policy = registry.build(&self.protocol)?;
            let mut base = Network::build(self.net.clone(), policy, self.seed)?;
            if let Some(spec) = &self.relay {
                base.install_relay(bcbpt_relay::registry().build(spec)?);
            }
            if let Some(adversary) = adversary {
                base.set_adversary(adversary);
            }
            base.warmup_ms(self.warmup_ms);
            Ok(base)
        };
        let base = match (warm, adversary) {
            (Some(cache), None) => cache.warm_or_build(self, || build(None))?,
            (_, adversary) => build(adversary)?,
        };
        if let Some(inspect) = inspect_warm {
            inspect(&base);
        }
        let warmup_traffic = base.stats().clone();

        // Runs complete in any scheduling order but *fold* strictly in
        // run-index order: every statistic (and every stop decision the
        // control hook makes) depends only on the folded prefix, so the
        // output is byte-identical for every thread count.
        let stop_signal = AtomicUsize::new(usize::MAX);
        let fold = Mutex::new(CampaignFold {
            next: run_range.start,
            stop_at: usize::MAX,
            pending: BTreeMap::new(),
            runs: Vec::with_capacity(run_range.len()),
            traffic: warmup_traffic.clone(),
            prefix,
            failures: Vec::new(),
            control,
        });
        let measure_span = bcbpt_obs::span("measure");
        let measure_timer = std::time::Instant::now();
        if threads <= 1 || run_range.len() <= 1 {
            for i in run_range.clone() {
                if i > stop_signal.load(Ordering::Relaxed) {
                    break;
                }
                let outcome = self.execute_run(&base, &warmup_traffic, i);
                fold.lock()
                    .expect("fold lock")
                    .absorb(i, outcome, &stop_signal);
            }
        } else {
            // Work-stealing by atomic counter: each worker claims the next
            // unstarted run index, simulates it, and parks the outcome in
            // the fold, which drains consecutively-ready runs.
            let next = AtomicUsize::new(run_range.start);
            let base_ref = &base;
            let warmup_ref = &warmup_traffic;
            let fold_ref = &fold;
            let stop_ref = &stop_signal;
            std::thread::scope(|scope| {
                for _ in 0..threads.min(run_range.len()) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= run_range.end || i > stop_ref.load(Ordering::Relaxed) {
                            break;
                        }
                        let outcome = self.execute_run(base_ref, warmup_ref, i);
                        fold_ref
                            .lock()
                            .expect("fold lock")
                            .absorb(i, outcome, stop_ref);
                    });
                }
            });
        }
        crate::obs::measure_seconds().observe(measure_timer.elapsed());
        drop(measure_span);
        let fold = fold.into_inner().expect("fold lock");

        // Observability side channel only — counters never feed back into
        // the fold or the serialized result.
        crate::obs::net_bytes_total().add(fold.traffic.total_bytes());
        crate::obs::net_redundant_bytes_total().add(fold.traffic.total_redundant_bytes());

        let cluster_sizes = cluster_sizes(&base);
        Ok(CampaignResult {
            protocol: self.protocol.to_string(),
            runs: fold.runs,
            traffic: fold.traffic,
            warmup_traffic,
            cluster_sizes,
            num_nodes: self.net.num_nodes,
            failures: fold.failures,
        })
    }

    /// Executes one run behind a panic boundary: a panicking replay (a
    /// simulator bug, or an injected fault) retires as
    /// [`RunOutcome::Panicked`] instead of unwinding through the worker —
    /// the fold mutex is never poisoned and the campaign completes with
    /// the failure recorded as data. `base` is only read (runs clone it),
    /// so unwinding cannot leave it torn and `AssertUnwindSafe` is sound.
    fn execute_run(
        &self,
        base: &Network,
        warmup_traffic: &MessageStats,
        run_index: usize,
    ) -> RunOutcome {
        let _span = bcbpt_obs::span("run");
        let _timer = crate::obs::run_seconds().start_timer();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "fault-injection")]
            crate::resilience::fault::maybe_panic(run_index);
            self.measure_one(base, warmup_traffic, run_index)
        }));
        match caught {
            Ok(Some((result, traffic))) => RunOutcome::Measured(result, traffic),
            Ok(None) => RunOutcome::Skipped,
            Err(payload) => RunOutcome::Panicked(RunFailure::from_panic(run_index, payload)),
        }
    }

    /// One measuring run: clone the warmed-up snapshot, re-derive its RNG
    /// streams from `(campaign seed, run_index)`, inject, simulate the
    /// window, and harvest the watch plus the window's traffic delta.
    fn measure_one(
        &self,
        base: &Network,
        warmup_traffic: &MessageStats,
        run_index: usize,
    ) -> Option<(RunResult, MessageStats)> {
        let mut net = base.clone();
        net.reseed_streams(&RngHub::new(self.seed).subhub("run", run_index as u64));
        let origin = pick_origin(&mut net)?;
        net.inject_watched_tx(origin, None).ok()?;
        net.run_for_ms(self.window_ms);
        let watch: TxWatch = net.take_watch().expect("watch was just armed");
        let result = RunResult {
            run_index,
            origin: origin.as_u32(),
            deltas_ms: watch.deltas_ms(),
            arrival_delays_ms: watch.arrival_delays_ms(),
            reached: watch.reached_count(),
            online: net.online_count(),
        };
        Some((result, net.stats().since(warmup_traffic)))
    }
}

/// Picks a measuring node: online with at least one connection, and honest
/// (the paper's measuring node is the experimenter's own client, never an
/// attacker).
fn pick_origin(net: &mut Network) -> Option<NodeId> {
    for _ in 0..32 {
        let candidate = net.pick_online_node()?;
        if net.links().degree(candidate) > 0 && !net.is_attacker(candidate) {
            return Some(candidate);
        }
    }
    None
}

/// Cluster sizes reported by the policy, descending (empty when the policy
/// does not cluster).
pub fn cluster_sizes(net: &Network) -> Vec<usize> {
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for i in 0..net.num_nodes() as u32 {
        if let Some(c) = net.cluster_of(NodeId::from_index(i)) {
            *counts.entry(c).or_insert(0) += 1;
        }
    }
    let mut sizes: Vec<usize> = counts.into_values().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_cluster::Protocol;

    fn tiny(protocol: Protocol) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(protocol);
        cfg.net.num_nodes = 60;
        cfg.warmup_ms = 1_000.0;
        cfg.window_ms = 15_000.0;
        cfg.runs = 3;
        cfg
    }

    #[test]
    fn bitcoin_campaign_produces_deltas() {
        let result = tiny(Protocol::Bitcoin).run().unwrap();
        assert_eq!(result.protocol, "bitcoin");
        assert!(!result.runs.is_empty());
        let deltas = result.all_deltas_ms();
        assert!(!deltas.is_empty());
        assert!(deltas.iter().all(|&d| d > 0.0));
        assert!(result.cluster_sizes.is_empty(), "bitcoin does not cluster");
        assert!(result.mean_coverage() > 0.9, "tx should flood the network");
    }

    #[test]
    fn bcbpt_campaign_clusters_and_measures() {
        let result = tiny(Protocol::bcbpt_paper()).run().unwrap();
        assert!(!result.cluster_sizes.is_empty());
        assert_eq!(result.cluster_sizes.iter().sum::<usize>(), 60);
        assert!(result.delta_ecdf().is_ok());
        assert!(
            result.traffic.probe_messages() > result.warmup_traffic.probe_messages() / 2,
            "probing happens during warmup"
        );
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = tiny(Protocol::Lbc).run().unwrap();
        let b = tiny(Protocol::Lbc).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_output_matches_serial() {
        // The determinism contract of the parallel runner: any thread
        // count, byte-identical campaign.
        for protocol in [Protocol::Bitcoin, Protocol::bcbpt_paper()] {
            let mut cfg = tiny(protocol);
            cfg.runs = 6;
            let serial = cfg.run_serial().unwrap();
            for threads in [2, 3, 8] {
                let parallel = cfg.run_with_threads(threads).unwrap();
                assert_eq!(parallel, serial, "{} threads diverged from serial", threads);
            }
        }
    }

    #[test]
    fn runs_are_independent_of_preceding_runs() {
        // Dropping the first runs must not change later runs' results:
        // per-run streams derive from (seed, run_index), not from what ran
        // before.
        let mut cfg = tiny(Protocol::Bitcoin);
        cfg.runs = 4;
        let four = cfg.run_serial().unwrap();
        cfg.runs = 2;
        let two = cfg.run_serial().unwrap();
        assert_eq!(&four.runs[..2], &two.runs[..]);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = tiny(Protocol::Bitcoin);
        let a = cfg.run().unwrap();
        cfg.seed += 1;
        let b = cfg.run().unwrap();
        assert_ne!(a.all_deltas_ms(), b.all_deltas_ms());
    }

    #[test]
    fn with_protocol_keeps_environment() {
        let base = tiny(Protocol::Bitcoin);
        let other = base.with_protocol(Protocol::Lbc);
        assert_eq!(base.seed, other.seed);
        assert_eq!(base.net, other.net);
        assert_eq!(other.protocol, ProtocolSpec::from(Protocol::Lbc));
    }

    #[test]
    fn custom_registered_policy_runs_a_campaign() {
        // The open end of the protocol API: a spec outside the built-in
        // set resolves through a caller-extended registry and produces a
        // normal campaign.
        let mut registry = ProtocolRegistry::builtins();
        registry.register("uniform", |_spec| {
            Ok(Box::new(bcbpt_net::RandomPolicy::new()))
        });
        let cfg = tiny(Protocol::Bitcoin).with_protocol("uniform");
        assert!(cfg.run().is_err(), "builtin registry rejects the spec");
        let result = cfg.run_in(&registry).unwrap();
        assert_eq!(result.protocol, "uniform");
        assert!(!result.runs.is_empty());
        // RandomPolicy is exactly what "bitcoin" resolves to, so the
        // campaign numbers must match the built-in run.
        let bitcoin = tiny(Protocol::Bitcoin).run().unwrap();
        assert_eq!(result.all_deltas_ms(), bitcoin.all_deltas_ms());
    }

    #[test]
    fn summary_and_ecdf_agree() {
        let result = tiny(Protocol::Bitcoin).run().unwrap();
        let summary = result.delta_summary();
        let ecdf = result.delta_ecdf().unwrap();
        assert_eq!(summary.count() as usize, ecdf.len());
        assert!((summary.mean() - ecdf.mean()).abs() < 1e-9);
    }

    #[test]
    fn confidence_intervals_bracket_estimates() {
        let result = tiny(Protocol::Bitcoin).run().unwrap();
        let mean_ci = result.delta_mean_ci(0.95).unwrap();
        assert!(mean_ci.contains(mean_ci.estimate));
        assert!((mean_ci.estimate - result.delta_summary().mean()).abs() < 1e-9);
        let var_ci = result.delta_variance_ci(0.95).unwrap();
        assert!(var_ci.contains(var_ci.estimate));
        assert!(var_ci.lo >= 0.0);
    }

    #[test]
    fn empty_campaign_behaves() {
        let mut cfg = tiny(Protocol::Bitcoin);
        cfg.runs = 0;
        let result = cfg.run().unwrap();
        assert!(result.runs.is_empty());
        assert_eq!(result.mean_coverage(), 0.0);
        assert!(result.delta_ecdf().is_err());
        assert!(result.delta_mean_ci(0.95).is_none());
    }
}
