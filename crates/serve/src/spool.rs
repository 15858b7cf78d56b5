//! The service's persistent state, all of it plain files under one spool
//! directory:
//!
//! ```text
//! <spool>/outcomes/<digest>.json           stored ScenarioOutcome bytes
//! <spool>/outcomes/<digest>.scenario.json  canonical scenario JSON (collision guard)
//! <spool>/events/<digest>.jsonl            the run's serialized event stream
//! <spool>/jobs/<id>/job.json               submitted job (scenario + shard count)
//! <spool>/jobs/<id>/part-<i>.json          completed shard parts
//! <spool>/jobs/<id>/checkpoint-<i>.json    shard i's checkpoint journal (JSON lines)
//! ```
//!
//! Outcomes and events are keyed by [`Scenario::digest`] (canonical
//! content digest, PR 7) so a resubmitted scenario is answered from disk,
//! byte-identically, without re-executing anything. The digest is 64-bit,
//! so a collision is unlikely but representable — every hit is verified
//! against the stored canonical scenario JSON and treated as a miss on
//! mismatch. Job directories are the crash/drain ledger: they appear at
//! submit time, accumulate parts and checkpoints while running, and are
//! removed only once the outcome is durably stored — a restarted service
//! re-enqueues whatever directories remain.
//!
//! Every file but the journals is written atomically (temp file + rename):
//! a crash leaves the previous state or nothing, never a torn file. A
//! checkpoint journal is the one file that grows in place — a
//! [`JournalFile`] appends one sealed [`Checkpoint`](bcbpt_core::Checkpoint)
//! line per record, so a shard's checkpointing writes each fold once — and
//! it needs no atomicity: the records' seals chain, so
//! [`Journal::read`](bcbpt_core::Journal::read) keeps exactly the prefix
//! that was written whole, and the resumed shard cuts the file back to it
//! before appending. A crash mid-append costs the folds of that one record.

use bcbpt_core::Scenario;
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Renders a digest the way every file name and API response spells it.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// A job re-discovered by [`Spool::scan_jobs`] after a restart.
pub struct SpooledJob {
    /// The job id it was submitted under (ids stay stable across restarts).
    pub id: String,
    /// How many shards the submission asked for.
    pub shards: usize,
    /// The submitted scenario.
    pub scenario: Scenario,
    /// Already-completed shard parts, by shard index (`None` = not done).
    pub parts: Vec<Option<String>>,
}

/// The append side of one checkpoint journal file — the daemon's per-shard
/// `checkpoint-<i>.json` and the driver's `--checkpoint <path>` alike.
pub struct JournalFile {
    file: fs::File,
    /// Bytes of whole records in the file: where the next one goes.
    len: u64,
}

impl JournalFile {
    /// Opens `path`, creating it if need be, and cuts it to its first
    /// `valid_len` bytes — the [`valid_len`](bcbpt_core::Journal::valid_len)
    /// of the journal being resumed, or 0 to start one.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn open(path: &Path, valid_len: u64) -> std::io::Result<JournalFile> {
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        file.set_len(valid_len)?;
        Ok(JournalFile {
            file,
            len: valid_len,
        })
    }

    /// Appends one record line (`Checkpoint::to_json`, no newline). Safe
    /// to call again after a failure: every attempt first cuts the file
    /// back to its last whole record, so a write that failed half-way
    /// never stays in front of the retried one.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the record is then not in the journal.
    pub fn append(&mut self, record_json: &str) -> std::io::Result<()> {
        let line = format!("{record_json}\n");
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(line.as_bytes())?;
        self.len += line.len() as u64;
        Ok(())
    }
}

/// Handle to one spool directory (see the module docs for the layout).
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) the spool at `root`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(root: impl Into<PathBuf>) -> Result<Spool, String> {
        let root = root.into();
        for sub in ["outcomes", "events", "jobs"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(Spool { root })
    }

    /// The spool directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn write_atomic(path: &Path, contents: &[u8]) -> Result<(), String> {
        let _timer = crate::obs::spool_write_seconds().start_timer();
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, contents).map_err(|e| format!("{}: {e}", tmp.display()))?;
        fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(())
    }

    /// `read_to_string` with the spool-read latency histogram around it.
    fn read_timed(path: &Path) -> std::io::Result<String> {
        let _timer = crate::obs::spool_read_seconds().start_timer();
        fs::read_to_string(path)
    }

    fn outcome_path(&self, digest: u64) -> PathBuf {
        self.root
            .join("outcomes")
            .join(format!("{}.json", digest_hex(digest)))
    }

    fn scenario_path(&self, digest: u64) -> PathBuf {
        self.root
            .join("outcomes")
            .join(format!("{}.scenario.json", digest_hex(digest)))
    }

    fn events_path(&self, digest: u64) -> PathBuf {
        self.root
            .join("events")
            .join(format!("{}.jsonl", digest_hex(digest)))
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join("jobs").join(id)
    }

    /// Where shard `shard` of job `id` keeps its checkpoint journal.
    pub fn checkpoint_path(&self, id: &str, shard: usize) -> PathBuf {
        self.job_dir(id).join(format!("checkpoint-{shard}.json"))
    }

    fn part_path(&self, id: &str, shard: usize) -> PathBuf {
        self.job_dir(id).join(format!("part-{shard}.json"))
    }

    /// Stores a completed run under its content digest: the outcome
    /// bytes, the canonical scenario JSON guarding against digest
    /// collisions, and the event stream. The outcome lands last so a
    /// stored outcome always implies a stored guard.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn store_outcome(
        &self,
        digest: u64,
        canonical_scenario: &str,
        outcome: &str,
        events: &[Arc<str>],
    ) -> Result<(), String> {
        let mut stream = String::new();
        for line in events {
            stream.push_str(line);
            stream.push('\n');
        }
        Self::write_atomic(&self.scenario_path(digest), canonical_scenario.as_bytes())?;
        Self::write_atomic(&self.events_path(digest), stream.as_bytes())?;
        Self::write_atomic(&self.outcome_path(digest), outcome.as_bytes())
    }

    /// The stored outcome bytes for `digest`, verified against the
    /// canonical scenario JSON — a 64-bit collision (or a torn guard)
    /// reads as a miss, not as somebody else's result.
    pub fn load_outcome(&self, digest: u64, canonical_scenario: &str) -> Option<String> {
        let outcome = Self::read_timed(&self.outcome_path(digest)).ok()?;
        let stored = Self::read_timed(&self.scenario_path(digest)).ok()?;
        (stored == canonical_scenario).then_some(outcome)
    }

    /// The stored event stream for `digest`, one line per event.
    pub fn load_events(&self, digest: u64) -> Option<Vec<String>> {
        let text = Self::read_timed(&self.events_path(digest)).ok()?;
        Some(text.lines().map(str::to_string).collect())
    }

    /// Records a submitted job so a restarted service can resume it.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn write_job(&self, id: &str, shards: usize, scenario: &Scenario) -> Result<(), String> {
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let record = Value::Map(vec![
            ("id".to_string(), Value::Str(id.to_string())),
            ("shards".to_string(), Value::U64(shards as u64)),
            ("scenario".to_string(), scenario.to_value()),
        ]);
        let json = serde_json::to_string(&record).expect("job record serializes");
        Self::write_atomic(&dir.join("job.json"), json.as_bytes())
    }

    /// Drops job `id`'s directory — called once its outcome is durable.
    pub fn remove_job(&self, id: &str) {
        let _ = fs::remove_dir_all(self.job_dir(id));
    }

    /// Persists a completed shard part (survives a drain so a restart
    /// only re-runs the shards that never finished).
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn write_part(&self, id: &str, shard: usize, part_json: &str) -> Result<(), String> {
        Self::write_atomic(&self.part_path(id, shard), part_json.as_bytes())
    }

    /// The bytes of shard `shard` of job `id`'s checkpoint journal, if it
    /// started one.
    pub fn load_checkpoint(&self, id: &str, shard: usize) -> Option<Vec<u8>> {
        let _timer = crate::obs::spool_read_seconds().start_timer();
        fs::read(self.checkpoint_path(id, shard)).ok()
    }

    /// Every job directory still on disk, with whatever parts its shards
    /// completed — the restart work list. Unreadable directories are
    /// skipped (reported via the returned warnings) rather than wedging
    /// startup.
    pub fn scan_jobs(&self) -> (Vec<SpooledJob>, Vec<String>) {
        let mut jobs = Vec::new();
        let mut warnings = Vec::new();
        let Ok(entries) = fs::read_dir(self.root.join("jobs")) else {
            return (jobs, warnings);
        };
        for entry in entries.flatten() {
            let id = entry.file_name().to_string_lossy().to_string();
            match self.load_job(&id) {
                Ok(Some(job)) => jobs.push(job),
                Ok(None) => {}
                Err(e) => warnings.push(format!("jobs/{id}: {e}")),
            }
        }
        jobs.sort_by(|a, b| a.id.cmp(&b.id));
        (jobs, warnings)
    }

    fn load_job(&self, id: &str) -> Result<Option<SpooledJob>, String> {
        let path = self.job_dir(id).join("job.json");
        let text = match Self::read_timed(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let record: Value = serde_json::from_str(&text).map_err(|e| format!("job.json: {e}"))?;
        let entries = record.as_map().ok_or("job.json is not an object")?;
        let shards = match serde::map_get(entries, "shards") {
            Value::U64(n) => *n as usize,
            _ => return Err("job.json has no shard count".to_string()),
        };
        let scenario = Scenario::from_value(serde::map_get(entries, "scenario"))
            .map_err(|e| format!("job.json scenario: {e}"))?;
        let parts = (0..shards)
            .map(|shard| Self::read_timed(&self.part_path(id, shard)).ok())
            .collect();
        Ok(Some(SpooledJob {
            id: id.to_string(),
            shards: shards.max(1),
            scenario,
            parts,
        }))
    }

    /// Total bytes of every file under the spool (outcomes, events, job
    /// ledgers). Walks the directory on each call — the spool is small and
    /// this only runs at `/stats` / `/metrics` scrape time.
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|entry| match entry.metadata() {
                    Ok(meta) if meta.is_dir() => walk(&entry.path()),
                    Ok(meta) => meta.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.root)
    }

    /// The largest numeric suffix among `job-<n>` directories, so a
    /// restarted service keeps allocating fresh ids.
    pub fn max_job_number(&self) -> u64 {
        let Ok(entries) = fs::read_dir(self.root.join("jobs")) else {
            return 0;
        };
        entries
            .flatten()
            .filter_map(|entry| {
                entry
                    .file_name()
                    .to_string_lossy()
                    .strip_prefix("job-")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .unwrap_or(0)
    }
}
