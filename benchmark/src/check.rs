//! Correctness checks shared by the timed and the traced run: outcome
//! digests, the pinned digests under `golden/`, and operation counts read
//! off an outcome.

use crate::gen::DEFAULT_SEED;
use crate::report::Tally;
use bcbpt_core::{CellReport, Scenario, ScenarioOutcome};
use std::path::Path;

/// FNV-1a (64-bit) — the digest the pinned files hold.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Compares `digest` with the value pinned in `golden/<workload>.fnv`.
/// Pinned digests apply to the default seed only: a speed-up must leave
/// every simulated statistic of the reference inputs identical.
pub fn golden(tally: &mut Tally, bench_dir: &Path, workload: &str, seed: u64, digest: u64) {
    if seed != DEFAULT_SEED {
        return;
    }
    let path = bench_dir.join("golden").join(format!("{workload}.fnv"));
    let pinned = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| u64::from_str_radix(text.trim().trim_start_matches("0x"), 16).ok());
    tally.check(pinned == Some(digest), || {
        format!(
            "{workload}: outcome digest {digest:#018x} differs from the pinned {} in {}",
            pinned.map_or("(unreadable)".to_string(), |p| format!("{p:#018x}")),
            path.display()
        )
    });
}

/// Counts an outcome's measuring runs as operations: every cell was to
/// execute `scenario.runs` runs; a run that panicked (`RunFailure`) and
/// every run of a failed cell count as failed.
pub fn count_runs(tally: &mut Tally, scenario: &Scenario, outcome: &ScenarioOutcome) {
    let planned = scenario.runs as u64;
    let mut failed = 0u64;
    for cell in &outcome.cells {
        failed += match &cell.report {
            CellReport::Failed { .. } => planned,
            _ => cell.campaign().map_or(0, |c| c.failures.len() as u64),
        };
    }
    let expected_cells = scenario.cells().len() as u64;
    tally.ops("measuring runs", planned * expected_cells, failed);
    tally.check(outcome.cells.len() as u64 == expected_cells, || {
        format!(
            "outcome has {} cells, the scenario expands to {expected_cells}",
            outcome.cells.len()
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn golden_applies_to_the_default_seed_only() {
        let dir = std::env::temp_dir().join(format!("bcbpt-golden-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("golden")).unwrap();
        std::fs::write(dir.join("golden/w.fnv"), "0x00000000000000ff\n").unwrap();
        let mut tally = Tally::default();
        golden(&mut tally, &dir, "w", DEFAULT_SEED + 1, 1);
        assert_eq!(tally.attempted, 0, "other seeds have no pinned digest");
        golden(&mut tally, &dir, "w", DEFAULT_SEED, 0xff);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        golden(&mut tally, &dir, "w", DEFAULT_SEED, 0xfe);
        golden(&mut tally, &dir, "missing", DEFAULT_SEED, 0xff);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
