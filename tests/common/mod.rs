//! Helpers shared by the integration suites: loading the checked-in
//! scenarios at test scale, and the FNV-1a digest the absolute pins use.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use bcbpt::{Scenario, Workload};
use std::path::PathBuf;

/// The checked-in `scenarios/` directory.
pub fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// Loads `scenarios/<name>.json` at `--quick` scale (what `scenario run
/// <name> --quick` executes).
pub fn checked_in_quick(name: &str) -> Scenario {
    let path = scenarios_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    Scenario::from_json(&text)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .quick_scaled()
}

/// Shrinks a quick-scaled scenario further so a suite that multiplies the
/// whole corpus by a shard × thread matrix stays integration-test sized in
/// debug builds.
pub fn shrink(scenario: &mut Scenario) {
    scenario.net.num_nodes = scenario.net.num_nodes.min(50);
    scenario.runs = scenario.runs.min(3);
    scenario.warmup_ms = scenario.warmup_ms.min(800.0);
    scenario.window_ms = scenario.window_ms.min(8_000.0);
    if let Workload::Mining { duration_ms, .. } = &mut scenario.workload {
        *duration_ms = duration_ms.min(12_000.0);
    }
    if let Workload::Adversarial { attackers, .. } = &mut scenario.workload {
        *attackers = (*attackers).clamp(1, 4);
    }
    if let Workload::Eclipse { victims, .. } = &mut scenario.workload {
        *victims = (*victims).min(4);
    }
    if let Some(sweep) = &mut scenario.sweep {
        sweep.protocols.truncate(2);
        sweep.thresholds_ms.truncate(2);
        sweep.num_nodes.truncate(1);
    }
}

/// Loads one checked-in scenario at integration-test scale.
pub fn checked_in(name: &str) -> Scenario {
    let mut scenario = checked_in_quick(name);
    shrink(&mut scenario);
    scenario
}

/// FNV-1a (64-bit) — the digest the pinned values hold.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
