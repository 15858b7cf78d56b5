//! The campaign service: a bounded job queue feeding a shard-scheduling
//! worker pool, fronted by the hand-rolled HTTP API in [`crate::http`].
//!
//! # Execution model
//!
//! A submitted [`Scenario`] becomes a *job*. Each job is split into
//! `shards` shard tasks (default 1) that enter one shared queue; the
//! worker pool pulls tasks in FIFO order, so a multi-shard job's shards
//! run concurrently across workers while other jobs queue behind them.
//! Every task — whatever the scenario declares — executes through the one
//! scenario executor, [`run_shard_with`], with a checkpoint sink and the
//! warm-snapshot cache, and the worker that completes a job's last shard
//! merges the parts with [`merge_shards`]. A one-shard job of a scenario
//! with an adaptive stop rule evaluates the rule itself (shard 0/1 sees
//! every run); with more shards the job's tasks share an in-process
//! [`LocalCoordinator`].
//!
//! # Event streams
//!
//! Single-shard jobs (the default) stream their live [`RunEvent`]s into a
//! per-job [`EventLog`]; any number of `GET /jobs/:id/events` subscribers
//! replay-then-tail it and receive exactly the byte stream the driver's
//! `--jsonl` flag writes (it is the same executor's observer).
//! Multi-shard jobs interleave run indices across workers, so their
//! stream is synthesized at merge time at cell granularity
//! (started/completed per cell, then `scenario_completed`) — still
//! validator-clean, just without per-run detail.
//!
//! # Caching
//!
//! Completed outcomes are stored on disk keyed by [`Scenario::digest`]
//! (the canonical content digest). A resubmission with an equal digest is
//! answered from the store — byte-identical outcome, replayed event
//! stream, no runs executed — and counts as a cache hit in `/stats`.
//! Warmed network snapshots are cached across jobs (and across the cells
//! of one sweep) under their warm-recipe digest.
//!
//! # Shutdown
//!
//! `POST /shutdown` (or SIGINT/SIGTERM when signal polling is on) flips
//! the drain flag: workers stop pulling tasks, and every running shard
//! parks at its next checkpoint — the sink appends the record to the
//! shard's journal, then returns an error, which aborts the shard run
//! without losing folded work. Parked and still-queued jobs keep their
//! spool directories; a service restarted on the same spool re-enqueues
//! them and resumes from the journals, replaying the already-folded prefix
//! of the event stream via [`checkpoint_replay_events`]. Subscribers of a
//! parked job see their chunked stream close without the
//! `scenario_completed` terminator — the signal to re-subscribe after
//! restart.

use crate::events::{EventLog, Next};
use crate::http::{self, ChunkedWriter, Request};
use crate::signals;
use crate::spool::{digest_hex, JournalFile, Spool, SpooledJob};
use bcbpt_cluster::ProtocolRegistry;
use bcbpt_core::{
    checkpoint_replay_events, merge_shards, run_shard_with, Checkpoint, CheckpointBody, Journal,
    LocalCoordinator, PartialOutcome, RunEvent, Scenario, ScenarioOutcome, Sealed, ShardObserver,
    ShardPlan, ShardRunOptions, ShardSpec, StopCoordinator, WarmCache,
};
use bcbpt_obs::{Counter, Gauge, Registry, WallHistogram};
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the service is wired up; [`ServeConfig::new`] gives the defaults.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port — see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker-pool size: how many shard tasks execute at once.
    pub workers: usize,
    /// Maximum number of jobs waiting in the queue; submissions beyond it
    /// are refused with `503`.
    pub queue_capacity: usize,
    /// Spool directory (outcome store + crash/drain ledger).
    pub spool: PathBuf,
    /// Warm-snapshot cache capacity (warmed networks held in memory).
    pub warm_capacity: usize,
    /// Folds per checkpoint record while a shard runs (lower = finer
    /// drain granularity).
    pub checkpoint_every: usize,
    /// Poll for SIGINT/SIGTERM (via [`signals`], on a thread of its own)
    /// and treat one as a drain request. The CLI turns this on; in-process
    /// tests leave it off.
    pub poll_signals: bool,
}

impl ServeConfig {
    /// Defaults: loopback on an ephemeral port, one worker per core, a
    /// 64-job queue, 8 cached warm snapshots, checkpoint every fold.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 64,
            spool: spool.into(),
            warm_capacity: 8,
            checkpoint_every: 1,
            poll_signals: false,
        }
    }
}

/// How often the signal poller looks at the flag the handler sets.
const SIGNAL_POLL: Duration = Duration::from_millis(50);

/// Job lifecycle. `Queued → Running → Done`, with `Failed` (run-time
/// error) and `Parked` (drained mid-run, resumable on restart) as exits.
#[derive(Clone)]
enum Phase {
    Queued,
    Running,
    Done,
    Failed(String),
    Parked,
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed(_) => "failed",
            Phase::Parked => "parked",
        }
    }
}

/// One submitted scenario and everything the service tracks about it.
struct Job {
    id: String,
    digest: u64,
    /// Canonical compact scenario JSON (digest preimage, collision guard).
    canonical: String,
    scenario: Scenario,
    shards: usize,
    /// In-process stop coordinator for adaptive multi-shard jobs: every
    /// shard task of the job submits folded-prefix envelopes to it and
    /// blocks on its per-cell stop decisions (see [`LocalCoordinator`]).
    /// `None` for single-shard and fixed-budget jobs.
    coordinator: Option<Arc<LocalCoordinator>>,
    /// Served from the outcome store without executing anything.
    cached: bool,
    phase: Mutex<Phase>,
    events: EventLog,
    parts: Mutex<Vec<Option<PartialOutcome>>>,
    /// The stored outcome bytes (`ScenarioOutcome::to_json()` + newline).
    outcome: Mutex<Option<Arc<String>>>,
}

impl Job {
    fn phase(&self) -> Phase {
        self.phase.lock().expect("job phase lock").clone()
    }

    fn set_phase(&self, phase: Phase) {
        *self.phase.lock().expect("job phase lock") = phase;
    }

    /// The `GET /jobs/:id` body. Status only — a poller reads this every
    /// few milliseconds, so the outcome stays on its own route.
    fn status_json(&self) -> String {
        let phase = self.phase();
        let mut entries = vec![
            ("job".to_string(), Value::Str(self.id.clone())),
            ("state".to_string(), Value::Str(phase.name().to_string())),
            ("digest".to_string(), Value::Str(digest_hex(self.digest))),
            (
                "scenario".to_string(),
                Value::Str(self.scenario.name.clone()),
            ),
            ("shards".to_string(), Value::U64(self.shards as u64)),
            ("cached".to_string(), Value::Bool(self.cached)),
        ];
        if let Phase::Failed(error) = &phase {
            entries.push(("error".to_string(), Value::Str(error.clone())));
        }
        serde_json::to_string(&Value::Map(entries)).expect("status serializes")
    }
}

/// A unit of work in the queue: one shard of a job.
struct Task {
    job: Arc<Job>,
    shard: usize,
    /// When the task entered the queue (feeds the queue-wait histogram).
    enqueued: Instant,
}

/// Per-server instruments, all registered on this server's own
/// [`Registry`] so co-resident servers (the test suite runs several per
/// process) keep independent `/stats` and `/metrics` numbers. The
/// process-global registry carries the sim/runner/shard/spool metrics;
/// `GET /metrics` renders both, concatenated.
struct ServerMetrics {
    registry: Registry,
    /// Submissions answered from the digest-keyed outcome store.
    cache_hits: Arc<Counter>,
    /// Measuring runs actually executed (cache hits execute none).
    runs_executed: Arc<Counter>,
    /// Shard tasks currently queued (set at scrape time).
    queue_depth: Arc<Gauge>,
    /// Workers currently executing a task (maintained by the pool).
    workers_busy: Arc<Gauge>,
    /// Bytes on disk under the spool (set at scrape time).
    spool_bytes: Arc<Gauge>,
    /// Time a task spent queued before a worker picked it up.
    queue_wait: Arc<WallHistogram>,
    /// Requests by endpoint: `(counter, route label)` — label-free static
    /// names, one counter per route family.
    requests: Vec<(Arc<Counter>, &'static str)>,
}

/// Endpoint families `/metrics` counts requests for. Registration order
/// here fixes the `requests` index used by [`ServerMetrics::request_counter`].
const ENDPOINTS: &[(&str, &str)] = &[
    ("bcbpt_serve_req_healthz_total", "/healthz"),
    ("bcbpt_serve_req_stats_total", "/stats"),
    ("bcbpt_serve_req_metrics_total", "/metrics"),
    ("bcbpt_serve_req_shutdown_total", "/shutdown"),
    ("bcbpt_serve_req_scenarios_total", "/scenarios"),
    ("bcbpt_serve_req_jobs_total", "/jobs"),
    ("bcbpt_serve_req_other_total", "other"),
];

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Registry::new();
        let cache_hits = registry.counter(
            "bcbpt_serve_cache_hits_total",
            "Submissions answered from the digest-keyed outcome store",
        );
        let runs_executed = registry.counter(
            "bcbpt_serve_runs_executed_total",
            "Measuring runs executed by this server's workers",
        );
        let queue_depth = registry.gauge(
            "bcbpt_serve_queue_depth",
            "Shard tasks waiting in the queue",
        );
        let workers_busy = registry.gauge(
            "bcbpt_serve_workers_busy",
            "Workers currently executing a task",
        );
        let spool_bytes = registry.gauge(
            "bcbpt_serve_spool_bytes",
            "Bytes on disk under the spool directory",
        );
        let queue_wait = registry.histogram(
            "bcbpt_serve_queue_wait_seconds",
            "Time a task waited in the queue before a worker picked it up",
        );
        let requests = ENDPOINTS
            .iter()
            .map(|&(name, route)| {
                (
                    registry.counter(name, "HTTP requests routed to this endpoint"),
                    route,
                )
            })
            .collect();
        ServerMetrics {
            registry,
            cache_hits,
            runs_executed,
            queue_depth,
            workers_busy,
            spool_bytes,
            queue_wait,
            requests,
        }
    }

    /// The request counter for a route family (`"/jobs"`, `"other"`, …).
    fn count_request(&self, route: &str) {
        let counter = self
            .requests
            .iter()
            .find(|(_, r)| *r == route)
            .or_else(|| self.requests.last())
            .map(|(c, _)| c)
            .expect("endpoint table is non-empty");
        counter.inc();
    }
}

struct ServerState {
    config: ServeConfig,
    spool: Spool,
    warm: WarmCache,
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    queue: Mutex<VecDeque<Task>>,
    queue_wake: Condvar,
    drain: AtomicBool,
    stopping: AtomicBool,
    next_job: AtomicU64,
    metrics: ServerMetrics,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    fn request_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
        self.queue_wake.notify_all();
    }

    fn fresh_job_id(&self) -> String {
        format!("job-{}", self.next_job.fetch_add(1, Ordering::SeqCst))
    }
}

/// The running service: an accept loop, a worker pool and their shared
/// state. Construct with [`Server::start`], stop by draining (HTTP
/// `POST /shutdown`, [`Server::request_drain`], or a polled signal), then
/// [`Server::wait`] for everything to settle.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The signal poller, when [`ServeConfig::poll_signals`] asked for one.
    signals: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, restores any jobs left in the spool by a previous process
    /// (completed parts are kept; unfinished shards re-enter the queue,
    /// resuming from their checkpoints), and starts the worker pool and
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Bind or spool I/O failures.
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        // Register the process-global sim/runner/shard/spool metrics up
        // front so the first `/metrics` scrape already lists every family.
        crate::obs::register_metrics();
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let spool = Spool::open(&config.spool)?;
        let next_job = spool.max_job_number() + 1;
        let warm_capacity = config.warm_capacity;
        let workers = config.workers.max(1);
        let state = Arc::new(ServerState {
            config,
            spool,
            warm: WarmCache::new(warm_capacity),
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_wake: Condvar::new(),
            drain: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            next_job: AtomicU64::new(next_job),
            metrics: ServerMetrics::new(),
        });
        restore_spooled_jobs(&state);
        let worker_handles = (0..workers)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .map_err(|e| format!("spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let accept = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    let conn_state = Arc::clone(&state);
                    http::accept_loop(
                        &listener,
                        || state.stopping.load(Ordering::SeqCst),
                        move |stream, request| route(&conn_state, stream, request),
                    );
                })
                .map_err(|e| format!("spawn accept loop: {e}"))?
        };
        // Nothing else looks at the signal flag: the poller turns it into
        // the same drain request `POST /shutdown` makes, and ends with the
        // drain — whoever asked for it.
        let signals = if state.config.poll_signals {
            let state = Arc::clone(&state);
            let poller = std::thread::Builder::new()
                .name("serve-signals".to_string())
                .spawn(move || {
                    while !state.draining() {
                        if signals::drain_requested() {
                            return state.request_drain();
                        }
                        std::thread::sleep(SIGNAL_POLL);
                    }
                })
                .map_err(|e| format!("spawn signal poller: {e}"))?;
            Some(poller)
        } else {
            None
        };
        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            workers: worker_handles,
            signals,
        })
    }

    /// The bound address (resolves the `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a drain, exactly like `POST /shutdown`.
    pub fn request_drain(&self) {
        self.state.request_drain();
    }

    /// Blocks until the service has drained and every thread exited:
    /// workers park or finish their running jobs, the accept loop stops,
    /// open event streams are closed. Returns once the process can exit
    /// without losing work.
    ///
    /// # Errors
    ///
    /// A panicked worker or accept thread.
    pub fn wait(mut self) -> Result<(), String> {
        for worker in self.workers.drain(..) {
            worker.join().map_err(|_| "worker thread panicked")?;
        }
        // Workers only return under a drain, which also ends the poller.
        if let Some(signals) = self.signals.take() {
            signals.join().map_err(|_| "signal poller panicked")?;
        }
        self.state.stopping.store(true, Ordering::SeqCst);
        // Close every stream a subscriber might still be tailing: without
        // this, a subscriber of a queued (never-started) job would hang
        // forever. Finished logs ignore the abort.
        for job in self.state.jobs.lock().expect("jobs lock").values() {
            job.events.abort();
        }
        // The accept loop joins its connection handlers on the way out.
        if let Some(accept) = self.accept.take() {
            http::wake(self.addr);
            accept.join().map_err(|_| "accept thread panicked")?;
        }
        Ok(())
    }
}

/// Rebuilds the job table from spool directories left by a previous
/// process: jobs whose shards all completed are merged immediately,
/// everything else is re-enqueued (resuming from checkpoints).
fn restore_spooled_jobs(state: &Arc<ServerState>) {
    let (spooled, warnings) = state.spool.scan_jobs();
    for warning in warnings {
        bcbpt_obs::warn!("spool: {warning}");
    }
    for SpooledJob {
        id,
        shards,
        scenario,
        parts,
    } in spooled
    {
        let adaptive = scenario.stop.is_some_and(|s| s.is_adaptive());
        let parsed: Vec<Option<PartialOutcome>> = parts
            .iter()
            .enumerate()
            .map(|(shard, text)| {
                let part = PartialOutcome::from_json(text.as_deref()?)
                    .and_then(|part| part.verify_seal().map(|()| part));
                trusted(&format!("job {id} part {shard}"), part)
            })
            .collect();
        // A coordinated job restored mid-flight needs a fresh coordinator;
        // decisions recorded in already-completed parts are re-imposed so
        // resumed shards truncate to the same prefix the finished ones did.
        let coordinator = if adaptive && shards > 1 {
            match LocalCoordinator::new(&scenario, shards, state.config.checkpoint_every.max(1)) {
                Ok(coordinator) => {
                    if let Some(part) = parsed.iter().flatten().next() {
                        for (cell, stop_at) in part.cell_stop_indices().into_iter().enumerate() {
                            if let Err(e) = coordinator.preset(cell, stop_at) {
                                bcbpt_obs::warn!("spool: job {id}: preset cell {cell}: {e}");
                            }
                        }
                    }
                    Some(Arc::new(coordinator))
                }
                Err(e) => {
                    bcbpt_obs::warn!("spool: job {id}: coordinator: {e} — job will fail");
                    None
                }
            }
        } else {
            None
        };
        let job = Arc::new(Job {
            id: id.clone(),
            digest: scenario.digest(),
            canonical: serde_json::to_string(&scenario).expect("scenario serializes"),
            scenario,
            shards,
            coordinator,
            cached: false,
            phase: Mutex::new(Phase::Queued),
            events: EventLog::new(),
            parts: Mutex::new(parsed),
            outcome: Mutex::new(None),
        });
        state
            .jobs
            .lock()
            .expect("jobs lock")
            .insert(id, Arc::clone(&job));
        let missing: Vec<usize> = {
            let parts = job.parts.lock().expect("job parts lock");
            (0..job.shards).filter(|&i| parts[i].is_none()).collect()
        };
        if missing.is_empty() {
            // Crashed after the last part, before the merge: finish now.
            finish_if_complete(state, &job);
            continue;
        }
        let mut queue = state.queue.lock().expect("queue lock");
        for shard in missing {
            queue.push_back(Task {
                job: Arc::clone(&job),
                shard,
                enqueued: Instant::now(),
            });
        }
        drop(queue);
        state.queue_wake.notify_all();
    }
}

/// What was read from one spooled file, if this binary can trust it. A
/// part or checkpoint journal that does not parse, was sealed under
/// another wire-format version (a spool that outlived an upgrade) or is
/// corrupt reads as absent — logged, never an error — so its shard runs
/// again from scratch.
fn trusted<T>(what: &str, read: Result<T, String>) -> Option<T> {
    read.map_err(|e| bcbpt_obs::warn!("spool: {what}: {e} — ignoring the file"))
        .ok()
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(state: &Arc<ServerState>) {
    loop {
        let task = {
            let mut queue = state.queue.lock().expect("queue lock");
            loop {
                if state.draining() {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                let (guard, _) = state
                    .queue_wake
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock");
                queue = guard;
            }
        };
        state.metrics.queue_wait.observe(task.enqueued.elapsed());
        state.metrics.workers_busy.add(1);
        run_shard_task(state, &task.job, task.shard);
        state.metrics.workers_busy.sub(1);
    }
}

/// Executes one shard of a job through the checkpointed shard path, then
/// merges if it was the last one.
fn run_shard_task(state: &Arc<ServerState>, job: &Arc<Job>, shard: usize) {
    if matches!(job.phase(), Phase::Queued) {
        job.set_phase(Phase::Running);
    }
    let registry = ProtocolRegistry::builtins();
    let spec = match ShardSpec::new(shard, job.shards) {
        Ok(spec) => spec,
        Err(e) => return fail_job(state, job, e),
    };
    // Crash-idempotent resume: a journal continues from whatever prefix of
    // it is whole, and a file that is not a journal this binary can read
    // (torn inside its header, or a checkpoint of an older format) reads
    // as "start this shard from scratch", never as an error.
    let resume = state
        .spool
        .load_checkpoint(&job.id, shard)
        .and_then(|bytes| {
            let journal = Journal::read(&bytes);
            trusted(&format!("job {} checkpoint {shard}", job.id), journal)
        });
    let live_stream = job.shards == 1;
    if live_stream {
        if let Some(journal) = &resume {
            match checkpoint_replay_events(&job.scenario, journal) {
                Ok(events) => {
                    // The already-folded prefix, reconstructed — not
                    // re-executed, so it does not count as runs executed.
                    for event in &events {
                        job.events
                            .push(serde_json::to_string(event).expect("event serializes"));
                    }
                }
                Err(e) => return fail_job(state, job, format!("checkpoint replay: {e}")),
            }
        }
    }
    let journal_path = state.spool.checkpoint_path(&job.id, shard);
    let valid_len = resume.as_ref().map_or(0, |journal| journal.valid_len);
    let mut journal_file = match JournalFile::open(&journal_path, valid_len as u64) {
        Ok(file) => file,
        Err(e) => return fail_job(state, job, format!("{}: {e}", journal_path.display())),
    };
    let sink_state = Arc::clone(state);
    let coordinated = job.coordinator.is_some();
    let mut sink_fn = move |record: &Checkpoint| -> Result<(), String> {
        {
            let _timer = crate::obs::spool_write_seconds().start_timer();
            journal_file
                .append(&record.to_json())
                .map_err(|e| format!("{}: {e}", journal_path.display()))?;
        }
        // The record is in the journal; refusing here parks the shard with
        // zero lost work (the drain contract) — except on a cell-warmed
        // record, whose fold arrives in the record right after it.
        // Coordinated shards run to completion instead: parking one shard
        // would leave its peers blocked on the cell's stop decision forever.
        let parks = !matches!(record.body, CheckpointBody::CellWarmed { .. });
        if parks && !coordinated && sink_state.draining() {
            return Err("service draining — parked at a durable checkpoint".to_string());
        }
        Ok(())
    };
    let observe_state = Arc::clone(state);
    let observe_job = Arc::clone(job);
    let mut observe_fn = move |event: &RunEvent| {
        if matches!(
            event,
            RunEvent::RunCompleted { .. } | RunEvent::RunFailed { .. }
        ) {
            observe_state.metrics.runs_executed.inc();
        }
        observe_job
            .events
            .push(serde_json::to_string(event).expect("event serializes"));
    };
    let observe: Option<&mut ShardObserver<'_>> = if live_stream {
        Some(&mut observe_fn)
    } else {
        None
    };
    let result = run_shard_with(
        &job.scenario,
        spec,
        &registry,
        ShardRunOptions {
            threads: Some(1),
            resume,
            checkpoint_every: state.config.checkpoint_every,
            sink: Some(&mut sink_fn),
            observe,
            warm_cache: Some(&state.warm),
            coordinator: job
                .coordinator
                .as_deref()
                .map(|c| c as &dyn StopCoordinator),
        },
    );
    match result {
        Ok(part) => {
            if !live_stream {
                // Multi-shard runs synthesize their stream at merge time,
                // but the executed run count is real either way.
                state.metrics.runs_executed.add(part.runs_used() as u64);
            }
            if let Err(e) = state.spool.write_part(&job.id, shard, &part.to_json()) {
                return fail_job(state, job, format!("part store: {e}"));
            }
            job.parts.lock().expect("job parts lock")[shard] = Some(part);
            finish_if_complete(state, job);
        }
        Err(_) if state.drain.load(Ordering::SeqCst) => {
            job.set_phase(Phase::Parked);
            job.events.abort();
        }
        Err(e) => fail_job(state, job, e),
    }
}

/// If every shard part is in, merge and complete the job.
fn finish_if_complete(state: &Arc<ServerState>, job: &Arc<Job>) {
    let parts: Vec<PartialOutcome> = {
        let mut slots = job.parts.lock().expect("job parts lock");
        if slots.iter().any(Option::is_none) {
            return;
        }
        slots
            .iter_mut()
            .map(|s| s.take().expect("checked"))
            .collect()
    };
    match merge_shards(parts) {
        Ok(outcome) => complete_job(state, job, &outcome),
        Err(e) => fail_job(state, job, e),
    }
}

/// Persists the outcome + event stream under the job's content digest,
/// retires the job directory, and flips the job to `done`.
fn complete_job(state: &Arc<ServerState>, job: &Arc<Job>, outcome: &ScenarioOutcome) {
    let bytes = format!("{}\n", outcome.to_json());
    if job.shards > 1 {
        for event in synthesized_events(outcome, job.scenario.runs) {
            job.events
                .push(serde_json::to_string(&event).expect("event serializes"));
        }
    }
    let lines = job.events.lines();
    if let Err(e) = state
        .spool
        .store_outcome(job.digest, &job.canonical, &bytes, &lines)
    {
        return fail_job(state, job, format!("outcome store: {e}"));
    }
    state.spool.remove_job(&job.id);
    *job.outcome.lock().expect("job outcome lock") = Some(Arc::new(bytes));
    job.set_phase(Phase::Done);
    job.events.finish();
}

fn fail_job(state: &Arc<ServerState>, job: &Arc<Job>, error: String) {
    // Scenario execution is deterministic: a restart would fail the same
    // way, so the job directory is retired rather than retried forever.
    state.spool.remove_job(&job.id);
    job.set_phase(Phase::Failed(error));
    job.events.abort();
}

/// Cell-granularity stream for jobs whose per-run events were spread
/// across workers: started/closed per cell, `scenario_completed` last —
/// the same shape the session emits, minus run-level events.
fn synthesized_events(outcome: &ScenarioOutcome, runs: usize) -> Vec<RunEvent> {
    let planned_runs = if outcome.workload.is_campaign() {
        runs
    } else {
        0
    };
    let mut events = Vec::with_capacity(outcome.cells.len() * 2 + 1);
    let mut failed_cells = 0usize;
    for (cell, report) in outcome.cells.iter().enumerate() {
        events.push(RunEvent::CellStarted {
            cell,
            label: report.label.clone(),
            planned_runs,
        });
        match report.error() {
            Some(error) => {
                failed_cells += 1;
                events.push(RunEvent::CellFailed {
                    cell,
                    label: report.label.clone(),
                    error: error.to_string(),
                });
            }
            None => events.push(RunEvent::CellCompleted {
                cell,
                report: Box::new(report.clone()),
                runs_used: planned_runs,
                stopped_early: false,
            }),
        }
    }
    events.push(RunEvent::ScenarioCompleted {
        scenario: outcome.scenario.clone(),
        cells: outcome.cells.len(),
        failed_cells,
    });
    events
}

// ---------------------------------------------------------------------
// HTTP front end
// ---------------------------------------------------------------------

fn route(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> Result<(), String> {
    let family = match request.path.as_str() {
        "/healthz" => "/healthz",
        "/stats" => "/stats",
        "/metrics" => "/metrics",
        "/shutdown" => "/shutdown",
        "/scenarios" => "/scenarios",
        path if path.starts_with("/jobs/") => "/jobs",
        _ => "other",
    };
    state.metrics.count_request(family);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => http::respond_json(stream, 200, "{\"ok\": true}"),
        ("GET", "/stats") => http::respond_json(stream, 200, &stats_json(state)),
        ("GET", "/metrics") => http::respond(
            stream,
            200,
            "text/plain; version=0.0.4",
            metrics_text(state).as_bytes(),
        ),
        ("POST", "/shutdown") => {
            state.request_drain();
            http::respond_json(stream, 200, "{\"draining\": true}")
        }
        ("POST", "/scenarios") => submit(state, stream, request),
        (_, path) if path.starts_with("/jobs/") => job_route(state, stream, request),
        ("GET", _) => http::respond_error(stream, 404, "no such resource"),
        _ => http::respond_error(stream, 405, "method not allowed"),
    }
}

fn stats_json(state: &ServerState) -> String {
    refresh_scrape_gauges(state);
    let mut queued = 0u64;
    let mut running = 0u64;
    let mut done = 0u64;
    let mut failed = 0u64;
    let mut parked = 0u64;
    for job in state.jobs.lock().expect("jobs lock").values() {
        match job.phase() {
            Phase::Queued => queued += 1,
            Phase::Running => running += 1,
            Phase::Done => done += 1,
            Phase::Failed(_) => failed += 1,
            Phase::Parked => parked += 1,
        }
    }
    let entries = vec![
        ("jobs_queued".to_string(), Value::U64(queued)),
        ("jobs_running".to_string(), Value::U64(running)),
        ("jobs_done".to_string(), Value::U64(done)),
        ("jobs_failed".to_string(), Value::U64(failed)),
        ("jobs_parked".to_string(), Value::U64(parked)),
        (
            "cache_hits".to_string(),
            Value::U64(state.metrics.cache_hits.value()),
        ),
        ("warm_hits".to_string(), Value::U64(state.warm.hits())),
        ("warm_misses".to_string(), Value::U64(state.warm.misses())),
        (
            "warm_cached".to_string(),
            Value::U64(state.warm.len() as u64),
        ),
        (
            "runs_executed".to_string(),
            Value::U64(state.metrics.runs_executed.value()),
        ),
        (
            "workers".to_string(),
            Value::U64(state.config.workers.max(1) as u64),
        ),
        (
            "queue_capacity".to_string(),
            Value::U64(state.config.queue_capacity as u64),
        ),
        (
            "draining".to_string(),
            Value::Bool(state.drain.load(Ordering::SeqCst)),
        ),
        (
            "queue_depth".to_string(),
            Value::U64(state.metrics.queue_depth.value().max(0) as u64),
        ),
        (
            "workers_busy".to_string(),
            Value::U64(state.metrics.workers_busy.value().max(0) as u64),
        ),
        (
            "spool_bytes".to_string(),
            Value::U64(state.metrics.spool_bytes.value().max(0) as u64),
        ),
    ];
    serde_json::to_string(&Value::Map(entries)).expect("stats serialize")
}

/// Refreshes the gauges that are sampled at scrape time rather than
/// maintained continuously: queue depth (the queue knows its length) and
/// spool size (a directory walk — the spool is small).
fn refresh_scrape_gauges(state: &ServerState) {
    state
        .metrics
        .queue_depth
        .set(state.queue.lock().expect("queue lock").len() as i64);
    state
        .metrics
        .spool_bytes
        .set(state.spool.disk_bytes() as i64);
}

/// Refreshes the scrape-time gauges and renders the process-global
/// registry followed by this server's own: one Prometheus text document
/// covering sim, runner, shard and service metrics.
fn metrics_text(state: &ServerState) -> String {
    refresh_scrape_gauges(state);
    let mut out = bcbpt_obs::global().render_prometheus();
    state.metrics.registry.render_prometheus_into(&mut out);
    out
}

/// Parses a `POST /scenarios` body: either a full [`Scenario`] JSON
/// object, or the shorthand `{"builtin": "<name>", "quick": true}`.
fn parse_submission(body: &[u8]) -> Result<Scenario, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value: Value =
        serde_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let entries = value
        .as_map()
        .ok_or("body must be a JSON object (a Scenario, or {\"builtin\": name})")?;
    if entries.iter().any(|(k, _)| k == "builtin") {
        let name = serde::map_get(entries, "builtin")
            .as_str()
            .ok_or("\"builtin\" must be a scenario name")?;
        let scenario = Scenario::builtin(name).ok_or_else(|| {
            format!(
                "unknown built-in {name:?} (known: {})",
                Scenario::builtin_names().join(", ")
            )
        })?;
        let quick = matches!(serde::map_get(entries, "quick"), Value::Bool(true));
        Ok(if quick {
            scenario.quick_scaled()
        } else {
            scenario
        })
    } else {
        use serde::Deserialize as _;
        Scenario::from_value(&value).map_err(|e| format!("invalid scenario: {e}"))
    }
}

fn submit(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> Result<(), String> {
    let scenario = match parse_submission(&request.body) {
        Ok(scenario) => scenario,
        Err(e) => return http::respond_error(stream, 400, &e),
    };
    if let Err(e) = scenario.validate() {
        return http::respond_error(stream, 400, &e);
    }
    let shards = match request.query_param("shards") {
        None => 1,
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return http::respond_error(stream, 400, "shards must be a positive integer"),
        },
    };
    let adaptive = scenario.stop.is_some_and(|s| s.is_adaptive());
    // Adaptive multi-shard jobs run under an in-process stop coordinator.
    // Every shard of the cell must execute concurrently (each blocks on
    // the cell's stop decision, which needs envelopes from all of them),
    // so the fleet must fit the worker pool.
    let coordinator = if adaptive && shards > 1 {
        if shards > state.config.workers.max(1) {
            return http::respond_error(
                stream,
                400,
                &format!(
                    "adaptive-stop jobs need all shards running concurrently (each blocks \
                     on the coordinated stop decision), but shards={shards} exceeds the \
                     {} worker(s); submit with fewer shards",
                    state.config.workers.max(1)
                ),
            );
        }
        match LocalCoordinator::new(&scenario, shards, state.config.checkpoint_every.max(1)) {
            Ok(coordinator) => Some(Arc::new(coordinator)),
            Err(e) => return http::respond_error(stream, 400, &e),
        }
    } else {
        None
    };
    if shards > 1 {
        if let Err(e) = ShardPlan::plan(scenario.runs, shards) {
            return http::respond_error(stream, 400, &e);
        }
    }
    let digest = scenario.digest();
    let canonical = serde_json::to_string(&scenario).expect("scenario serializes");
    // Digest-keyed store: an already-computed scenario is answered from
    // disk — stored bytes, stored stream, zero runs executed.
    if let Some(outcome) = state.spool.load_outcome(digest, &canonical) {
        state.metrics.cache_hits.inc();
        let lines = state.spool.load_events(digest).unwrap_or_else(|| {
            match ScenarioOutcome::from_json(&outcome) {
                Ok(parsed) => synthesized_events(&parsed, scenario.runs)
                    .iter()
                    .map(|e| serde_json::to_string(e).expect("event serializes"))
                    .collect(),
                Err(_) => Vec::new(),
            }
        });
        let job = Arc::new(Job {
            id: state.fresh_job_id(),
            digest,
            canonical,
            scenario,
            shards,
            coordinator: None,
            cached: true,
            phase: Mutex::new(Phase::Done),
            events: EventLog::completed(lines),
            parts: Mutex::new(Vec::new()),
            outcome: Mutex::new(Some(Arc::new(outcome))),
        });
        state
            .jobs
            .lock()
            .expect("jobs lock")
            .insert(job.id.clone(), Arc::clone(&job));
        return http::respond_json(stream, 200, &submit_response(&job));
    }
    if state.drain.load(Ordering::SeqCst) {
        return http::respond_error(stream, 503, "service is draining");
    }
    let queued = state
        .jobs
        .lock()
        .expect("jobs lock")
        .values()
        .filter(|j| matches!(j.phase(), Phase::Queued))
        .count();
    if queued >= state.config.queue_capacity {
        return http::respond_error(
            stream,
            503,
            &format!(
                "queue full ({queued} job(s) waiting, capacity {})",
                state.config.queue_capacity
            ),
        );
    }
    let job = Arc::new(Job {
        id: state.fresh_job_id(),
        digest,
        canonical,
        scenario,
        shards,
        coordinator,
        cached: false,
        phase: Mutex::new(Phase::Queued),
        events: EventLog::new(),
        parts: Mutex::new(vec![None; shards]),
        outcome: Mutex::new(None),
    });
    if let Err(e) = state.spool.write_job(&job.id, shards, &job.scenario) {
        return http::respond_error(stream, 500, &format!("spool: {e}"));
    }
    state
        .jobs
        .lock()
        .expect("jobs lock")
        .insert(job.id.clone(), Arc::clone(&job));
    {
        let mut queue = state.queue.lock().expect("queue lock");
        for shard in 0..shards {
            queue.push_back(Task {
                job: Arc::clone(&job),
                shard,
                enqueued: Instant::now(),
            });
        }
    }
    state.queue_wake.notify_all();
    http::respond_json(stream, 202, &submit_response(&job))
}

fn submit_response(job: &Job) -> String {
    let entries = vec![
        ("job".to_string(), Value::Str(job.id.clone())),
        ("digest".to_string(), Value::Str(digest_hex(job.digest))),
        ("cached".to_string(), Value::Bool(job.cached)),
        ("shards".to_string(), Value::U64(job.shards as u64)),
    ];
    serde_json::to_string(&Value::Map(entries)).expect("submit response serializes")
}

fn job_route(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> Result<(), String> {
    let rest = &request.path["/jobs/".len()..];
    let (id, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let job = state.jobs.lock().expect("jobs lock").get(id).cloned();
    let Some(job) = job else {
        return http::respond_error(stream, 404, &format!("no job {id:?}"));
    };
    match (request.method.as_str(), tail) {
        ("GET", None) => http::respond_json(stream, 200, &job.status_json()),
        ("GET", Some("events")) => stream_job_events(stream, &job),
        ("GET", Some("outcome")) => {
            let outcome = job.outcome.lock().expect("job outcome lock").clone();
            match outcome {
                Some(bytes) => http::respond(stream, 200, "application/json", bytes.as_bytes()),
                None => http::respond_error(
                    stream,
                    409,
                    &format!("job {id} is {} — no outcome yet", job.phase().name()),
                ),
            }
        }
        ("GET", Some(_)) => http::respond_error(stream, 404, "no such job resource"),
        _ => http::respond_error(stream, 405, "method not allowed"),
    }
}

/// The chunked JSONL event stream: replay from line zero, tail until the
/// log finishes (clean terminator) or aborts (stream cut short).
fn stream_job_events(stream: &mut TcpStream, job: &Job) -> Result<(), String> {
    let mut writer = ChunkedWriter::begin(stream, "application/x-ndjson")?;
    let mut cursor = 0usize;
    loop {
        match job.events.next(cursor) {
            Next::Line(line) => {
                writer.write_chunk(format!("{line}\n").as_bytes())?;
                cursor += 1;
            }
            Next::Done => return writer.finish(),
            // Parked/failed: close without the terminator so the
            // subscriber can tell a cut stream from a completed one.
            Next::Aborted => return Ok(()),
        }
    }
}
