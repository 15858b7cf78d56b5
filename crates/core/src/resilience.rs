//! Failure model of long-running campaigns: structured run failures,
//! salvage/repair planning, and a deterministic fault-injection harness
//! (the digest-sealed checkpoint journal itself is [`crate::wire`]'s).
//!
//! The campaign machinery ([`crate::shard`], [`crate::ScenarioSession`])
//! turns the simulator into long-running distributed infrastructure, so
//! it needs an explicit failure story:
//!
//! * **A panicking run** is caught per run ([`RunFailure`]) and folded in
//!   run-index order like any other outcome — the campaign completes and
//!   the failure is data, byte-identical across thread counts.
//! * **A killed shard process** resumes from its journal of
//!   [`Checkpoint`](crate::Checkpoint) records ([`crate::Journal`]): the
//!   folds of its run range, appended as they happen under chained seals,
//!   so a SIGKILL costs at most `--checkpoint-every` runs of work.
//! * **A corrupt part file** is quarantined by the salvage merge instead
//!   of aborting the whole batch; the [`RepairPlan`] names the exact
//!   `--shard i/N` re-runs that complete it.
//! * **All of the above are testable**: a serde [`FaultPlan`] injected
//!   behind the `fault-injection` feature drives each recovery path
//!   deterministically in CI.

use serde::{Deserialize, Serialize};

/// A measuring run that panicked instead of retiring: the structured
/// outcome the campaign folds (in run-index order, like a measured or
/// skipped run) so one poisoned replay cannot kill the whole campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunFailure {
    /// Campaign-local index of the run that panicked.
    pub run_index: usize,
    /// The panic payload, rendered to text (`String`/`&str` payloads are
    /// carried verbatim; anything else becomes a placeholder).
    pub payload: String,
}

impl RunFailure {
    /// Builds the structured failure from a caught panic payload.
    pub(crate) fn from_panic(
        run_index: usize,
        payload: Box<dyn std::any::Any + Send>,
    ) -> RunFailure {
        let payload = if let Some(text) = payload.downcast_ref::<String>() {
            text.clone()
        } else if let Some(text) = payload.downcast_ref::<&str>() {
            (*text).to_string()
        } else {
            "non-string panic payload".to_string()
        };
        RunFailure { run_index, payload }
    }
}

/// A deterministic fault to inject into a shard run (`scenario shard run
/// --inject-fault <json>`), available behind the `fault-injection`
/// feature. Serde round-trippable; the CLI accepts the serialized form,
/// e.g. `{"PanicAtRun":{"run_index":2}}` or `"TornCheckpoint"`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPlan {
    /// Panic inside the measuring run with this campaign-local index —
    /// exercises per-run panic isolation.
    PanicAtRun {
        /// The run index that panics.
        run_index: usize,
    },
    /// Hard-exit the process (no unwinding, no cleanup — a simulated
    /// SIGKILL) after `n` runs have folded — exercises checkpoint/resume.
    DieAfterRuns {
        /// Folded runs to allow before dying.
        n: usize,
    },
    /// Flip one byte of the serialized part before writing it —
    /// exercises the salvage merge's quarantine.
    CorruptOutput {
        /// Offset of the byte to flip (taken modulo the output length).
        byte_offset: usize,
    },
    /// Write only half of the first checkpoint, directly to its final
    /// path, then hard-exit — exercises torn-checkpoint rejection on
    /// `--resume`.
    TornCheckpoint,
}

impl FaultPlan {
    /// Parses the CLI form (serialized JSON).
    ///
    /// # Errors
    ///
    /// Returns the parse error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid fault plan {text:?}: {e}"))
    }

    /// Short human-readable form, e.g. `"die-after-runs(3)"`.
    pub fn label(&self) -> String {
        match self {
            FaultPlan::PanicAtRun { run_index } => format!("panic-at-run({run_index})"),
            FaultPlan::DieAfterRuns { n } => format!("die-after-runs({n})"),
            FaultPlan::CorruptOutput { byte_offset } => format!("corrupt-output({byte_offset})"),
            FaultPlan::TornCheckpoint => "torn-checkpoint".to_string(),
        }
    }
}

/// The process-global fault injector: arming a [`FaultPlan`] makes the
/// campaign machinery consult it at each injection point. Inert unless
/// armed; compiled out entirely without the `fault-injection` feature.
#[cfg(feature = "fault-injection")]
pub mod fault {
    use super::FaultPlan;
    use std::sync::{Mutex, MutexGuard};

    /// Exit code of an injected hard crash (`DieAfterRuns`,
    /// `TornCheckpoint`) — distinct from ordinary error exits so tests
    /// can tell a simulated SIGKILL from a real failure.
    pub const FAULT_EXIT_CODE: i32 = 86;

    struct Armed {
        plan: FaultPlan,
        folded: usize,
    }

    static ARMED: Mutex<Option<Armed>> = Mutex::new(None);

    /// The armed slot. An injected panic unwinds through campaign workers
    /// while this mutex is *not* held, but a caller's panic between `arm`
    /// and drop could still poison it — recover the inner state instead
    /// of propagating the poison into every later campaign.
    fn slot() -> MutexGuard<'static, Option<Armed>> {
        ARMED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Disarms the injector when dropped, so a test cannot leak its fault
    /// into the next one.
    pub struct FaultGuard {
        _private: (),
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *slot() = None;
        }
    }

    /// Arms `plan` process-wide until the returned guard drops. Arming is
    /// global: callers running campaigns concurrently (tests!) must
    /// serialize around it.
    pub fn arm(plan: FaultPlan) -> FaultGuard {
        *slot() = Some(Armed { plan, folded: 0 });
        FaultGuard { _private: () }
    }

    /// The currently armed plan, if any.
    pub fn armed() -> Option<FaultPlan> {
        slot().as_ref().map(|a| a.plan.clone())
    }

    /// Injection point inside each measuring run (before simulation).
    pub(crate) fn maybe_panic(run_index: usize) {
        let hit = matches!(
            &*slot(),
            Some(Armed {
                plan: FaultPlan::PanicAtRun { run_index: at },
                ..
            }) if *at == run_index
        );
        if hit {
            panic!("injected fault: run {run_index} panicked (PanicAtRun)");
        }
    }

    /// Injection point after each run folds (and after any checkpoint for
    /// it was written): `DieAfterRuns { n }` hard-exits once `n` runs
    /// have folded process-wide.
    pub(crate) fn note_run_folded() {
        let mut guard = slot();
        let die = match guard.as_mut() {
            Some(Armed {
                plan: FaultPlan::DieAfterRuns { n },
                folded,
            }) => {
                *folded += 1;
                *folded >= *n
            }
            _ => false,
        };
        drop(guard);
        if die {
            hard_exit("DieAfterRuns");
        }
    }

    /// Simulated SIGKILL: exits with [`FAULT_EXIT_CODE`] immediately, no
    /// unwinding, no cleanup.
    pub fn hard_exit(what: &str) -> ! {
        eprintln!("injected fault: simulated hard crash ({what}) — exiting without cleanup");
        std::process::exit(FAULT_EXIT_CODE);
    }

    /// Applies `CorruptOutput` to a serialized part, flipping one byte in
    /// place. Returns `true` when a corruption was injected.
    pub fn corrupt_output(bytes: &mut [u8]) -> bool {
        let offset = match &*slot() {
            Some(Armed {
                plan: FaultPlan::CorruptOutput { byte_offset },
                ..
            }) => *byte_offset,
            _ => return false,
        };
        if bytes.is_empty() {
            return false;
        }
        let at = offset % bytes.len();
        bytes[at] ^= 0x01;
        true
    }

    /// `true` when `TornCheckpoint` is armed — the checkpoint writer then
    /// tears its first write and hard-exits.
    pub fn torn_checkpoint_armed() -> bool {
        matches!(
            &*slot(),
            Some(Armed {
                plan: FaultPlan::TornCheckpoint,
                ..
            })
        )
    }
}

/// One part file the salvage merge refused to use, and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedPart {
    /// The part's source label (file path as given to the merge).
    pub source: String,
    /// The shard index the part claimed, when it parsed far enough to
    /// tell.
    pub shard_index: Option<usize>,
    /// Why the part was quarantined.
    pub reason: String,
}

/// Machine-readable repair instructions emitted by the salvage merge when
/// quarantines leave the shard set incomplete: exactly which shards to
/// re-run, with ready-to-paste commands.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairPlan {
    /// The scenario name the surviving parts agree on.
    pub scenario: String,
    /// The shard count the surviving parts agree on.
    pub shard_count: usize,
    /// Parts that were quarantined, with reasons.
    pub quarantined: Vec<QuarantinedPart>,
    /// Shard indices with no valid part, ascending.
    pub missing_shards: Vec<usize>,
    /// One `scenario shard run … --shard i/N --out <path>` command per
    /// missing shard (the scenario file placeholder must be substituted
    /// with the original scenario file).
    pub commands: Vec<String>,
}

impl RepairPlan {
    /// Serializes the plan as indented JSON (what `shard merge --salvage`
    /// prints when the set is incomplete).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("repair plan serializes")
    }
}

/// Result of a salvage merge: the merged outcome when enough valid parts
/// survived, otherwise a [`RepairPlan`]; quarantined parts are listed
/// either way.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageReport {
    /// The merged outcome, present only when every shard index had a
    /// valid part.
    pub outcome: Option<crate::ScenarioOutcome>,
    /// Parts that were quarantined, with reasons (empty on a fully clean
    /// merge).
    pub quarantined: Vec<QuarantinedPart>,
    /// Repair instructions, present when the surviving set is incomplete.
    pub repair: Option<RepairPlan>,
}
