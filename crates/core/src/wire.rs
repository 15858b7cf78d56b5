//! The wire format of the shard and coordinator protocols: every type that
//! crosses a process boundary, the two format versions, and the one seal
//! they all share.
//!
//! Three families, each under its own version constant:
//!
//! - [`SHARD_FORMAT_VERSION`] — [`WarmSnapshot`] and [`PartialOutcome`]
//!   (what `scenario shard run` writes and `scenario shard merge` reads);
//! - [`CHECKPOINT_FORMAT_VERSION`] — [`Checkpoint`], one record of the
//!   append-only journal a killed shard resumes from ([`Journal::read`]);
//! - [`COORD_FORMAT_VERSION`] — [`CoordinatorConfig`], [`PrefixEnvelope`]
//!   and [`StopDecision`] (the coordinated-stop round of
//!   [`crate::coordinate`]).
//!
//! A part and a checkpoint journal carry *sources* only — snapshot
//! identity, the run stream, run failures, integer window traffic and the
//! stop index — and nothing derivable from them: the merge and resume
//! refold whatever statistics they need from the run stream, in run-index
//! order, which is the only way to get them bit-identical anyway. (Format
//! v3 also shipped the folded `deltas`/`run_means`/`ecdf` accumulators and
//! a `runs_used` count per slice; no reader ever used them, so v4 dropped
//! them.) The journal carries each of them *once*: a fold is one appended
//! record, so checkpointing costs bytes proportional to what was folded,
//! not to the prefix folded so far.
//!
//! Every envelope is [`Sealed`]: it stamps the version of its family and
//! an FNV-1a content digest over its own canonical serialization. A
//! receiver calls [`Sealed::verify_seal`] before trusting a single field,
//! so format skew and corruption that still parses are both refused with
//! the envelope's own name and remediation hint — never merged, resumed or
//! folded. Which *scenario* an envelope belongs to is a separate question,
//! answered by the [`Scenario::digest`](crate::Scenario::digest) it echoes.

use crate::adversary::WarmInfiltration;
use crate::experiment::{ExperimentConfig, RunResult};
use crate::forks::ForkRun;
use crate::resilience::RunFailure;
use crate::scenario::{CellReport, Workload};
use crate::session::StopRule;
use crate::shard::ShardPlan;
use bcbpt_net::{MessageStats, Network};
use bcbpt_stats::StreamingSummary;
use serde::{Deserialize, Serialize};

/// Version of the shard wire format ([`WarmSnapshot`] and
/// [`PartialOutcome`] envelopes). Bumped whenever their serialized shape
/// or the digest recipe changes; every receiver refuses any other version.
/// Version 2 added per-part content digests and the `failures` stream
/// (panic isolation). Version 3 replaced the shard-0-only
/// `Whole`/`Deferred` cells with sharded paired, mining and replicated
/// variants, and added coordinated-stop truncation metadata (`stop_at`,
/// per-boundary traffic snapshots in checkpoints). Version 4 removed
/// everything derivable from the run stream (see the module docs) and
/// keys parts by [`Scenario::digest`](crate::Scenario::digest).
pub const SHARD_FORMAT_VERSION: u32 = 4;

/// Version of the checkpoint journal's [`Checkpoint`] records. It continues
/// the shard family's numbering, which checkpoints shared up to version 4
/// (one whole-prefix document per file, rewritten at every fold): a file
/// left by such a binary is refused by that number, never half-understood.
/// Version 5 is the append-only journal of chained records.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 5;

/// Version of the coordinator wire format ([`CoordinatorConfig`],
/// [`PrefixEnvelope`], [`StopDecision`]). Bumped on any change to the
/// serialized shape or to the decision semantics. Version 2 keys all
/// three by [`Scenario::digest`](crate::Scenario::digest).
pub const COORD_FORMAT_VERSION: u32 = 2;

/// FNV-1a over `bytes` — the content-digest primitive of every wire
/// envelope and of [`Scenario::digest`](crate::Scenario::digest) (stable,
/// dependency-free, and plenty for integrity checks; this is
/// corruption/mismatch detection, not cryptography).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A versioned, digest-sealed wire envelope. An implementor contributes
/// its name, its family's version constant, a remediation hint and access
/// to its `version`/`digest` fields; sealing and verification are the
/// provided methods, so all envelopes share one digest recipe (clone, zero
/// the digest, compact JSON, FNV-1a).
pub trait Sealed: Serialize + Clone {
    /// What error messages call the envelope, e.g. `"checkpoint"`.
    const NAME: &'static str;
    /// The wire-format version this binary speaks for the envelope.
    const VERSION: u32;
    /// What to do about an instance that does not verify.
    const REMEDY: &'static str;

    /// The version the instance is stamped with.
    fn version(&self) -> u32;

    /// The stored content digest.
    fn digest_mut(&mut self) -> &mut u64;

    /// Recomputes and stores the content digest. Producers call it last;
    /// tests that deliberately edit an envelope re-seal it to reach the
    /// deeper consistency checks.
    fn seal(&mut self) {
        *self.digest_mut() = fingerprint(self).1;
    }

    /// Checks the stamped version against this binary's, then the stored
    /// digest against the fields.
    ///
    /// # Errors
    ///
    /// Names the envelope, the mismatch and the remedy.
    fn verify_seal(&self) -> Result<(), String> {
        if self.version() != Self::VERSION {
            return Err(version_skew::<Self>(u64::from(self.version())));
        }
        let (stored, expected) = fingerprint(self);
        if stored != expected {
            return Err(format!(
                "{} digest {stored:#018x} does not match its contents ({expected:#018x}) — {}",
                Self::NAME,
                Self::REMEDY
            ));
        }
        Ok(())
    }
}

/// What refusing a `T` stamped with wire-format version `found` says.
fn version_skew<T: Sealed>(found: u64) -> String {
    format!(
        "{} has wire-format version {found} but this binary speaks {} — {}",
        T::NAME,
        T::VERSION,
        T::REMEDY
    )
}

/// The digest `envelope` stores and the one its other fields imply.
fn fingerprint<T: Sealed>(envelope: &T) -> (u64, u64) {
    let mut zeroed = envelope.clone();
    let stored = std::mem::take(zeroed.digest_mut());
    let json = serde_json::to_string(&zeroed).expect("wire envelope serializes");
    (stored, fnv1a64(json.as_bytes()))
}

/// Implements [`Sealed`] for an envelope with `version` and `digest` fields.
macro_rules! sealed {
    ($ty:ty, $name:literal, $version:ident, $remedy:literal) => {
        impl Sealed for $ty {
            const NAME: &'static str = $name;
            const VERSION: u32 = $version;
            const REMEDY: &'static str = $remedy;
            fn version(&self) -> u32 {
                self.version
            }
            fn digest_mut(&mut self) -> &mut u64 {
                &mut self.digest
            }
        }
    };
}

sealed!(
    WarmSnapshot,
    "warm snapshot",
    SHARD_FORMAT_VERSION,
    "the file carrying it is corrupt, was edited or comes from another binary; re-run the shard"
);
sealed!(
    PartialOutcome,
    "part",
    SHARD_FORMAT_VERSION,
    "the part file is corrupt, was edited or comes from another binary; re-run this shard"
);
sealed!(
    Checkpoint,
    "checkpoint",
    CHECKPOINT_FORMAT_VERSION,
    "the file is torn, corrupt or from another binary; delete it and re-run the shard without \
     --resume"
);
sealed!(
    CoordinatorConfig,
    "coordinator config",
    COORD_FORMAT_VERSION,
    "transport corruption, or a coordinator from another build; run the fleet on one binary"
);
sealed!(
    PrefixEnvelope,
    "prefix envelope",
    COORD_FORMAT_VERSION,
    "transport corruption, or a shard from another build; the prefix is rejected"
);
sealed!(
    StopDecision,
    "stop decision",
    COORD_FORMAT_VERSION,
    "transport corruption, or a coordinator from another build; the decision is rejected"
);

/// The serialized identity of one cell's warmed-up snapshot.
///
/// The actual warm state (topology, cluster membership, pending events,
/// RNG positions) is never shipped: it is *replayed* — every shard
/// rebuilds `Network::build(net, policy, seed)` and warms it for
/// `warmup_ms`, which is deterministic, so all shards converge on the
/// same state. What travels in the envelope is the recipe plus a content
/// digest over the warmed state's observable fingerprint (online count,
/// warmup traffic counters, cluster sizes). [`crate::merge_shards`]
/// requires every shard's snapshot of a cell to be identical and
/// digest-valid, so a shard built by a different binary, scenario or
/// diverged warmup is rejected instead of silently corrupting the merge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmSnapshot {
    /// Shard wire-format version ([`SHARD_FORMAT_VERSION`]).
    pub version: u32,
    /// Protocol label of the cell (e.g. `"bcbpt(dt=25ms)"`).
    pub protocol: String,
    /// Network size the cell ran at.
    pub num_nodes: usize,
    /// Campaign master seed.
    pub seed: u64,
    /// Warmup duration that produced the snapshot, ms.
    pub warmup_ms: f64,
    /// Measurement window each run will simulate, ms.
    pub window_ms: f64,
    /// Online population at the end of warmup.
    pub online: usize,
    /// Traffic counters of the warmup phase — byte-exact across shards.
    pub warmup_traffic: MessageStats,
    /// Cluster sizes at the end of warmup, descending (empty for
    /// non-clustering protocols).
    pub cluster_sizes: Vec<usize>,
    /// FNV-1a content digest over the canonical serialization of every
    /// field above (with `digest` itself zeroed).
    pub digest: u64,
}

impl WarmSnapshot {
    /// Captures the envelope of `cfg`'s warmed-up network.
    pub fn capture(cfg: &ExperimentConfig, warmed: &Network) -> Self {
        let mut snapshot = WarmSnapshot {
            version: SHARD_FORMAT_VERSION,
            protocol: cfg.protocol.to_string(),
            num_nodes: cfg.net.num_nodes,
            seed: cfg.seed,
            warmup_ms: cfg.warmup_ms,
            window_ms: cfg.window_ms,
            online: warmed.online_count(),
            warmup_traffic: warmed.stats().clone(),
            cluster_sizes: crate::experiment::cluster_sizes(warmed),
            digest: 0,
        };
        snapshot.seal();
        snapshot
    }
}

/// One shard's slice of one measuring-run campaign: the runs of the
/// shard's (possibly stop-truncated) range and nothing derivable from
/// them. Streaming cells carry one; paired adversarial cells carry two
/// (clean and attacked).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSlice {
    /// Identity of the warmed-up snapshot the runs replayed.
    pub snapshot: WarmSnapshot,
    /// This shard's measuring runs, ascending by `run_index`.
    pub runs: Vec<RunResult>,
    /// Runs in this shard's range that panicked (caught per run),
    /// ascending by `run_index`, disjoint from `runs`.
    pub failures: Vec<RunFailure>,
    /// Sum of the kept range's measurement-window traffic (total minus
    /// warmup) — integer counters, so cross-shard merge is exact.
    pub window_traffic: MessageStats,
    /// The global stop index, when a stop rule (coordinated, or shard
    /// 0/1's own) ended the cell early: runs `>= stop_at` were truncated
    /// away on every shard, so this shard kept its plan's range up to it.
    /// `None` when the cell consumed its whole budget. The merge requires
    /// all shards to agree.
    pub stop_at: Option<usize>,
}

/// One cell's contribution to a [`PartialOutcome`].
// One value per cell, built once and serialized immediately — the size
// skew between `Paired` and the rest never multiplies across a hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellShard {
    /// A streaming campaign cell's run-range slice.
    Campaign {
        /// The shard's slice.
        slice: CampaignSlice,
    },
    /// A paired adversarial campaign cell's run-range slices: every shard
    /// runs its range of *both* campaigns (clean baseline under an inert
    /// force, attacked under the real one) off the same warmed snapshots
    /// `adversarial_campaign` uses, plus the warm-time infiltration
    /// measurements (identical on every shard — the merge checks).
    Paired {
        /// The clean (inert-force) campaign's slice.
        clean: CampaignSlice,
        /// The attacked campaign's slice.
        attacked: CampaignSlice,
        /// Warm-time infiltration of the attacked campaign.
        infiltration: WarmInfiltration,
        /// Warm-time infiltration of the clean baseline.
        clean_infiltration: WarmInfiltration,
    },
    /// A replicated-mining cell's run-range slice: this shard's mining
    /// runs off the shared warmed snapshot, one per planned run index.
    Mining {
        /// Identity of the warmed-up snapshot the runs replayed.
        snapshot: WarmSnapshot,
        /// The relay spec label, when the cell installs one (rides along
        /// because the snapshot envelope does not carry it).
        relay: Option<String>,
        /// This shard's mining runs, ascending by `run_index`.
        runs: Vec<ForkRun>,
    },
    /// A single-shot cell (partition, eclipse, legacy `runs: 0` mining)
    /// executed whole on *every* shard: the runs are deterministic, so
    /// all copies agree, and the merge verifies byte-identity before
    /// keeping shard 0's.
    Replicated {
        /// The cell's complete report.
        report: CellReport,
    },
    /// The cell failed at run time on this shard; the merge surfaces the
    /// error as a [`CellReport::Failed`].
    Failed {
        /// The run-time error.
        error: String,
    },
}

/// Label and environment of one cell inside a [`PartialOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialCell {
    /// Cell label (protocol, plus `@n=…` on a size sweep).
    pub label: String,
    /// The protocol spec the cell ran.
    pub protocol: String,
    /// Network size the cell ran at.
    pub num_nodes: usize,
    /// This shard's contribution.
    pub part: CellShard,
}

/// One shard's serialized result: what `scenario shard run` writes and
/// `scenario shard merge` consumes.
///
/// The wire format is JSON with this field layout (see `ARCHITECTURE.md`
/// for the full table):
///
/// | field | contents |
/// |---|---|
/// | `version` | [`SHARD_FORMAT_VERSION`] |
/// | `scenario` | scenario name |
/// | `scenario_digest` | [`Scenario::digest`](crate::Scenario::digest) of the exact scenario run |
/// | `workload` | the scenario's [`Workload`] (echoed for self-description) |
/// | `scenario_runs` | the scenario's whole `runs` budget |
/// | `plan` | this shard's [`ShardPlan`] — must equal the plan recomputed from `(scenario_runs, shard_index, shard_count)` |
/// | `cells` | one [`PartialCell`] per sweep cell, in sweep order |
/// | `digest` | FNV-1a over the canonical serialization with `digest` zeroed |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialOutcome {
    /// Shard wire-format version.
    pub version: u32,
    /// The scenario's name.
    pub scenario: String,
    /// Digest of the exact scenario the shard ran.
    pub scenario_digest: u64,
    /// The workload that ran.
    pub workload: Workload,
    /// The scenario's whole `runs` budget. Plans are deterministic, so
    /// the merge recomputes every shard's range from this and refuses a
    /// part whose `plan` disagrees — a lone part edited to claim it *is*
    /// the whole campaign cannot silently truncate the merge.
    pub scenario_runs: usize,
    /// This shard's coordinate and run range.
    pub plan: ShardPlan,
    /// Per-cell contributions, in sweep order.
    pub cells: Vec<PartialCell>,
    /// FNV-1a content digest over the canonical serialization of every
    /// field above (with `digest` itself zeroed). Covers the *whole*
    /// part, run streams included, so any byte of on-disk corruption
    /// that still parses is caught before it merges.
    pub digest: u64,
}

impl PartialOutcome {
    /// Serializes the part as indented JSON (the `shard run --out` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("partial outcome serializes")
    }

    /// Parses a part from JSON. Parsing does not verify the seal;
    /// [`crate::merge_shards`]/[`crate::salvage_merge`] call
    /// [`verify_seal`](Sealed::verify_seal).
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid shard part: {e}"))
    }

    /// Total run indices this shard consumed across its range-sharded
    /// cells (metadata; replicated cells contribute 0, paired cells count
    /// both campaigns): the plan's range, cut at each slice's stop index.
    pub fn runs_used(&self) -> usize {
        let kept = |slice: &CampaignSlice| self.plan.kept_range(slice.stop_at).len();
        self.cells
            .iter()
            .map(|cell| match &cell.part {
                CellShard::Campaign { slice } => kept(slice),
                CellShard::Paired {
                    clean, attacked, ..
                } => kept(clean) + kept(attacked),
                CellShard::Mining { .. } => self.plan.len(),
                CellShard::Replicated { .. } | CellShard::Failed { .. } => 0,
            })
            .sum()
    }

    /// Per-cell stop indices, in sweep order: `Some(S)` for a streaming
    /// cell truncated by a stop decision, `None` otherwise. A service
    /// restoring a partially completed coordinated job pre-seeds a fresh
    /// coordinator from a finished part's values so resumed shards stay
    /// consistent with completed ones.
    pub fn cell_stop_indices(&self) -> Vec<Option<usize>> {
        self.cells
            .iter()
            .map(|cell| match &cell.part {
                CellShard::Campaign { slice } => slice.stop_at,
                _ => None,
            })
            .collect()
    }
}

/// Measurement-window traffic of the folded prefix frozen at one
/// coordinator checkpoint boundary. A coordinated shard records one of
/// these per boundary it crosses so that a later stop decision (possibly
/// delivered after a crash + resume) can truncate the window traffic to
/// the exact prefix the decision covers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixTraffic {
    /// Exclusive run-index bound of the frozen prefix (a checkpoint
    /// position clamped into this shard's range).
    pub upto: usize,
    /// Measurement-window traffic (total minus warmup) of runs
    /// `run_start..upto`.
    pub traffic: MessageStats,
}

/// Mid-cell progress of a checkpointed shard, as [`Journal::read`]
/// rebuilds it: the folded prefix of the in-flight campaign cell as a
/// [`CampaignSlice`] would carry it, plus the next run index to execute.
/// On `--resume` the shard re-warms the cell, verifies the recomputed
/// [`WarmSnapshot`] equals `snapshot`, refolds `runs` to seed its
/// statistics, and continues from `next_run`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellProgress {
    /// Index of the in-flight cell (== number of completed cells).
    pub cell_index: usize,
    /// Identity of the warmed-up snapshot the folded runs replayed.
    pub snapshot: WarmSnapshot,
    /// Folded measuring runs, ascending by `run_index`.
    pub runs: Vec<RunResult>,
    /// Folded run failures (panicking runs), ascending by `run_index`.
    pub failures: Vec<RunFailure>,
    /// Measurement-window traffic of the folded prefix (total minus
    /// warmup) — integer counters, exact under resume.
    pub window_traffic: MessageStats,
    /// Window traffic frozen at each coordinator checkpoint boundary this
    /// shard has crossed, ascending by `upto`. Empty for uncoordinated
    /// runs.
    pub boundary_traffic: Vec<PrefixTraffic>,
    /// First run index the resumed shard must execute.
    pub next_run: usize,
}

/// What one [`Checkpoint`] record adds to the journal.
// One value per fold, built once and serialized immediately — the size
// skew between `Folds`/`CellDone` and the rest never multiplies.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckpointBody {
    /// The journal's first record: which shard of which scenario wrote it.
    Header {
        /// The scenario's name.
        scenario: String,
        /// [`Scenario::digest`](crate::Scenario::digest) of the exact
        /// scenario the shard is running.
        scenario_digest: u64,
        /// The scenario's whole `runs` budget.
        scenario_runs: usize,
        /// The shard's coordinate and run range.
        plan: ShardPlan,
    },
    /// Cell `cell_index` warmed and is about to fold its first run.
    CellWarmed {
        /// Index of the cell (== number of `CellDone` records before it).
        cell_index: usize,
        /// Identity of the warmed-up snapshot its runs replay.
        snapshot: WarmSnapshot,
    },
    /// The folds of cell `cell_index` since its previous record
    /// ([`ShardRunOptions::checkpoint_every`](crate::ShardRunOptions) of
    /// them, fewer when the cell ends first).
    Folds {
        /// Index of the in-flight cell.
        cell_index: usize,
        /// The measuring runs folded since the previous record.
        runs: Vec<RunResult>,
        /// The run failures folded since the previous record.
        failures: Vec<RunFailure>,
        /// Measurement-window traffic of the *whole* folded prefix
        /// (total minus warmup) — cumulative, so the newest record wins.
        window_traffic: MessageStats,
        /// Window traffic frozen at the coordinator boundaries crossed
        /// since the previous record.
        boundary_traffic: Vec<PrefixTraffic>,
        /// First run index not folded yet.
        next_run: usize,
    },
    /// A cell finished. A [`CellShard::Campaign`] cell's `runs` and
    /// `failures` are left empty here — they are the cell's `Folds`
    /// records, cut at `stop_at` — so nothing is written twice; every
    /// other kind of cell is carried whole.
    CellDone {
        /// The finished cell, as the part will carry it.
        cell: PartialCell,
    },
}

/// One digest-sealed record of a shard's checkpoint journal: the file a
/// killed shard process resumes from, still producing a part byte-identical
/// to an uninterrupted run.
///
/// The journal is JSON lines, appended to and never rewritten — one
/// [`to_json`](Self::to_json) line per record, so a checkpoint costs bytes
/// proportional to the folds it adds, not to the prefix folded so far:
///
/// | field | contents |
/// |---|---|
/// | `version` | [`CHECKPOINT_FORMAT_VERSION`] |
/// | `prev` | `digest` of the previous record (0 for the header) |
/// | `body` | a [`CheckpointBody`]: header, cell-warmed, folds or cell-done |
/// | `digest` | FNV-1a over the canonical serialization with `digest` zeroed |
///
/// Because `digest` covers `prev`, the seals form a chain: a record is
/// only as valid as everything before it. [`Journal::read`] follows the
/// chain and stops at the first line that is torn, edited or out of place
/// — a crash mid-append costs the folds of that one record, nothing else.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Checkpoint wire-format version.
    pub version: u32,
    /// Digest of the record before this one; 0 for the header.
    pub prev: u64,
    /// What the record adds.
    pub body: CheckpointBody,
    /// FNV-1a content digest over the canonical serialization of every
    /// field above (with `digest` itself zeroed).
    pub digest: u64,
}

impl Checkpoint {
    /// Serializes the record as its one journal line (no newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serializes")
    }
}

/// The valid prefix of a checkpoint journal, folded back into the state a
/// resumed shard continues from: the header's identity, the cells that
/// finished, the in-flight cell's progress, and where to append next.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The scenario's name.
    pub scenario: String,
    /// Digest of the exact scenario the shard was running.
    pub scenario_digest: u64,
    /// The scenario's whole `runs` budget.
    pub scenario_runs: usize,
    /// The shard's coordinate and run range.
    pub plan: ShardPlan,
    /// Cells completed so far, in sweep order — restored verbatim on
    /// resume (they are final).
    pub cells_done: Vec<PartialCell>,
    /// The in-flight cell's folded prefix, absent at cell boundaries.
    pub current: Option<CellProgress>,
    /// Digest of the last valid record: the `prev` of the next one.
    pub chain: u64,
    /// Length in bytes of the valid prefix. A resumed shard truncates the
    /// file to this before it appends, so a torn tail never sits between
    /// two valid records.
    pub valid_len: usize,
}

impl Journal {
    /// Reads a journal file's bytes: follows the records from the header
    /// for as long as each is a complete line, parses, verifies its seal,
    /// chains to the one before and fits the state so far — and keeps
    /// exactly that prefix. Whatever follows (a torn append, a flipped
    /// byte and everything sealed after it) is dropped, not an error: the
    /// resumed shard re-executes those folds.
    ///
    /// # Errors
    ///
    /// No valid header — the file is empty, torn inside its first record,
    /// or not a journal of this format. A file stamped with another
    /// wire-format version (a whole-prefix checkpoint of format 4 or
    /// older) is refused by that version.
    pub fn read(bytes: &[u8]) -> Result<Journal, String> {
        // The complete line starting at `offset`, and where the next starts.
        let line_at = |offset: usize| {
            let len = bytes[offset..].iter().position(|&b| b == b'\n')?;
            Some((&bytes[offset..offset + len], offset + len + 1))
        };
        let header = line_at(0)
            .ok_or_else(|| "the file holds no complete record".to_string())
            .and_then(|(line, end)| Journal::open(parse_record(line, 0)?, end));
        let mut journal = header.map_err(|broke| {
            // A whole-prefix checkpoint (format ≤ 4) is one indented
            // document, not lines: sniff the version of either shape.
            let first_line = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
            let version = [first_line, bytes].into_iter().find_map(|text| {
                let text = std::str::from_utf8(text).ok()?;
                let value: serde::Value = serde_json::from_str(text).ok()?;
                match serde::map_get(value.as_map()?, "version") {
                    serde::Value::U64(version) => Some(*version),
                    _ => None,
                }
            });
            match version {
                Some(found) if found != u64::from(CHECKPOINT_FORMAT_VERSION) => {
                    version_skew::<Checkpoint>(found)
                }
                _ => format!(
                    "checkpoint journal has no valid header record ({broke}) — {}",
                    Checkpoint::REMEDY
                ),
            }
        })?;
        while let Some((line, end)) = line_at(journal.valid_len) {
            let applied = parse_record(line, journal.chain).and_then(|r| journal.apply(r));
            if let Err(broke) = applied {
                bcbpt_obs::info!(
                    "checkpoint journal: {broke} — dropping the {} byte(s) after byte {}",
                    bytes.len() - journal.valid_len,
                    journal.valid_len
                );
                break;
            }
            journal.valid_len = end;
        }
        Ok(journal)
    }

    /// Starts a journal from its first record, which must be the header
    /// and ends at byte `valid_len`.
    fn open(record: Checkpoint, valid_len: usize) -> Result<Journal, String> {
        let CheckpointBody::Header {
            scenario,
            scenario_digest,
            scenario_runs,
            plan,
        } = record.body
        else {
            return Err("the first record is not a header".to_string());
        };
        Ok(Journal {
            scenario,
            scenario_digest,
            scenario_runs,
            plan,
            cells_done: Vec::new(),
            current: None,
            chain: record.digest,
            valid_len,
        })
    }

    /// Folds one chained record into the state, or — leaving the state as
    /// it was — says why the record does not follow from it.
    fn apply(&mut self, record: Checkpoint) -> Result<(), String> {
        let next_cell = self.cells_done.len();
        match record.body {
            CheckpointBody::Header { .. } => return Err("a second header".to_string()),
            CheckpointBody::CellWarmed {
                cell_index,
                snapshot,
            } => {
                if cell_index != next_cell || self.current.is_some() {
                    return Err(format!("cell {cell_index} warmed out of order"));
                }
                self.current = Some(CellProgress {
                    cell_index,
                    snapshot,
                    runs: Vec::new(),
                    failures: Vec::new(),
                    window_traffic: MessageStats::new(),
                    boundary_traffic: Vec::new(),
                    next_run: self.plan.run_start,
                });
            }
            CheckpointBody::Folds {
                cell_index,
                runs,
                failures,
                window_traffic,
                boundary_traffic,
                next_run,
            } => {
                let progress = self
                    .current
                    .as_mut()
                    .filter(|p| p.cell_index == cell_index && p.next_run <= next_run)
                    .ok_or_else(|| format!("folds of cell {cell_index} out of order"))?;
                progress.runs.extend(runs);
                progress.failures.extend(failures);
                progress.window_traffic = window_traffic;
                progress.boundary_traffic.extend(boundary_traffic);
                progress.next_run = next_run;
            }
            CheckpointBody::CellDone { mut cell } => {
                // `current`, when present, is this cell's: `CellWarmed`
                // only ever opens cell `next_cell`.
                if let (CellShard::Campaign { slice }, Some(progress)) =
                    (&mut cell.part, self.current.take())
                {
                    let kept_end = self.plan.kept_range(slice.stop_at).end;
                    slice.runs = progress.runs;
                    slice.runs.retain(|r| r.run_index < kept_end);
                    slice.failures = progress.failures;
                    slice.failures.retain(|f| f.run_index < kept_end);
                }
                self.cells_done.push(cell);
            }
        }
        self.chain = record.digest;
        Ok(())
    }
}

/// One journal line as a record that verifies and chains to `prev`.
fn parse_record(line: &[u8], prev: u64) -> Result<Checkpoint, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("invalid checkpoint: {e}"))?;
    let record: Checkpoint =
        serde_json::from_str(text).map_err(|e| format!("invalid checkpoint: {e}"))?;
    record.verify_seal()?;
    if record.prev != prev {
        return Err(format!(
            "checkpoint chains to {:#018x}, not to the record before it ({prev:#018x})",
            record.prev
        ));
    }
    Ok(record)
}

/// The coordinator's identity card, fetched by every joining shard: which
/// scenario (by content digest), how many shards, what cadence, which
/// rule. A shard refuses to coordinate with a config that does not match
/// its own launch parameters — two fleets pointed at one coordinator by
/// mistake fail loudly instead of folding each other's prefixes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordinatorConfig {
    /// Coordinator wire-format version.
    pub version: u32,
    /// The scenario's name (diagnostics; the digest is authoritative).
    pub scenario: String,
    /// [`Scenario::digest`](crate::Scenario::digest) of the exact
    /// scenario being coordinated.
    pub scenario_digest: u64,
    /// The scenario's whole `runs` budget.
    pub scenario_runs: usize,
    /// Number of shards in the fleet.
    pub shard_count: usize,
    /// Checkpoint cadence in run indices: the rule is evaluated at every
    /// global run index divisible by this (and at the full budget).
    pub cadence: usize,
    /// The adaptive stop rule the coordinator evaluates.
    pub stop: StopRule,
    /// FNV-1a content digest (fields above, `digest` zeroed).
    pub digest: u64,
}

impl CoordinatorConfig {
    /// Serializes the config (the `GET /coord/config` body).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("coordinator config serializes")
    }

    /// Parses a config from JSON (does not verify the seal).
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid coordinator config: {e}"))
    }
}

/// One shard's folded prefix at one boundary position: everything an
/// adaptive rule consults, digest-sealed. `deltas` pools every finite
/// `Δt(m,n)` sample of runs `run_start..upto`; `run_means` holds one
/// mean per successful measuring run in that range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixEnvelope {
    /// Coordinator wire-format version.
    pub version: u32,
    /// [`Scenario::digest`](crate::Scenario::digest) of the scenario this
    /// prefix belongs to.
    pub scenario_digest: u64,
    /// Which sweep cell the prefix belongs to.
    pub cell_index: usize,
    /// Which shard folded it.
    pub shard_index: usize,
    /// The fleet size the shard was launched with.
    pub shard_count: usize,
    /// One past the last global run index folded into the accumulators.
    pub upto: usize,
    /// Pooled `Δt(m,n)` accumulator over `run_start..upto`.
    pub deltas: StreamingSummary,
    /// Per-run-mean accumulator over the same range.
    pub run_means: StreamingSummary,
    /// Successful measuring runs in the range.
    pub measured_runs: usize,
    /// FNV-1a content digest (fields above, `digest` zeroed).
    pub digest: u64,
}

impl PrefixEnvelope {
    /// Serializes the envelope (the `POST /coord/submit` body).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("prefix envelope serializes")
    }

    /// Parses an envelope from JSON (does not verify the seal).
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid prefix envelope: {e}"))
    }
}

/// The coordinator's verdict for one cell, broadcast to every shard:
/// `stop_at: Some(S)` means *keep only run indices `< S`* (a strict
/// prefix of the budget); `None` means the rule never fired and the cell
/// consumes its whole `runs` budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StopDecision {
    /// Coordinator wire-format version.
    pub version: u32,
    /// [`Scenario::digest`](crate::Scenario::digest) of the scenario
    /// decided on.
    pub scenario_digest: u64,
    /// Which sweep cell was decided.
    pub cell_index: usize,
    /// `Some(S)`: truncate to runs `< S` (`0 < S < scenario_runs`);
    /// `None`: run the full budget.
    pub stop_at: Option<usize>,
    /// Label of the rule that decided (diagnostics).
    pub rule: String,
    /// FNV-1a content digest (fields above, `digest` zeroed).
    pub digest: u64,
}

impl StopDecision {
    /// Serializes the decision (the coordinator's response payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("stop decision serializes")
    }

    /// Parses a decision from JSON (does not verify the seal).
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid stop decision: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinate::{LocalCoordinator, StopCoordinator};
    use crate::shard::{run_shard_with, ShardRunOptions, ShardSpec};
    use crate::Scenario;
    use bcbpt_cluster::{Protocol, ProtocolRegistry};

    /// What every [`Sealed`] envelope must do: verify as produced, and
    /// refuse both a version-skewed instance (even a resealed one) and a
    /// flipped digest — each under its own name, with its own remedy.
    fn refuses_skew_and_corruption<T>(sealed: &T)
    where
        T: Sealed + Deserialize + PartialEq + std::fmt::Debug,
    {
        let name = T::NAME;
        sealed.verify_seal().expect(name);
        let json = serde_json::to_string(sealed).unwrap();
        let (stamp, old) = (T::VERSION, T::VERSION - 1);
        let stamped = format!("{{\"version\":{stamp},");
        assert!(json.starts_with(&stamped), "{name} leads with its version");
        let skewed = json.replacen(&stamped, &format!("{{\"version\":{old},"), 1);
        let mut skewed: T = serde_json::from_str(&skewed).unwrap();
        for resealed in [false, true] {
            let err = skewed.verify_seal().unwrap_err();
            let expected = format!(
                "{name} has wire-format version {old} but this binary speaks {stamp} — {}",
                T::REMEDY
            );
            assert_eq!(err, expected, "{name}, resealed: {resealed}");
            skewed.seal();
        }
        let mut flipped = sealed.clone();
        *flipped.digest_mut() ^= 1;
        let err = flipped.verify_seal().unwrap_err();
        assert!(err.starts_with(&format!("{name} digest 0x")), "{err}");
        assert!(err.ends_with(T::REMEDY), "{err}");
        flipped.seal();
        assert_eq!(&flipped, sealed, "{name}: resealing restores the digest");
    }

    #[test]
    fn every_envelope_type_refuses_version_skew_and_a_flipped_digest() {
        let mut base = ExperimentConfig::quick(Protocol::Bitcoin);
        base.net.num_nodes = 40;
        base.warmup_ms = 500.0;
        base.window_ms = 5_000.0;
        base.runs = 4;
        let scenario = Scenario::from_experiment("tiny-wire", &base, Workload::TxFlood).with_stop(
            StopRule::CiHalfWidth {
                level: 0.95,
                rel_width: 0.25,
                min_runs: 2,
            },
        );
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut sink = |checkpoint: &Checkpoint| -> Result<(), String> {
            checkpoints.push(checkpoint.clone());
            Ok(())
        };
        let part = run_shard_with(
            &scenario,
            ShardSpec::new(0, 1).unwrap(),
            &ProtocolRegistry::builtins(),
            ShardRunOptions {
                sink: Some(&mut sink),
                ..ShardRunOptions::default()
            },
        )
        .unwrap();
        let CellShard::Campaign { slice } = &part.cells[0].part else {
            panic!("streaming cell carries a campaign part");
        };
        refuses_skew_and_corruption(&slice.snapshot);
        refuses_skew_and_corruption(&part);
        let folds = checkpoints
            .iter()
            .find(|c| matches!(c.body, CheckpointBody::Folds { .. }));
        refuses_skew_and_corruption(folds.expect("a folds record"));

        let coordinator = LocalCoordinator::new(&scenario, 2, 2).unwrap();
        let config = coordinator.config().unwrap();
        refuses_skew_and_corruption(&config);
        let mut envelope = PrefixEnvelope {
            version: COORD_FORMAT_VERSION,
            scenario_digest: config.scenario_digest,
            cell_index: 0,
            shard_index: 0,
            shard_count: 2,
            upto: 2,
            deltas: StreamingSummary::new(),
            run_means: StreamingSummary::new(),
            measured_runs: 0,
            digest: 0,
        };
        envelope.seal();
        refuses_skew_and_corruption(&envelope);
        coordinator.preset(0, Some(2)).unwrap();
        let decision = coordinator.decisions().remove(0).expect("preset decision");
        refuses_skew_and_corruption(&decision);
    }
}
