//! Process-wide warm-snapshot cache: build + warm a cell's network once,
//! replay it everywhere the same warm recipe appears.
//!
//! The warm-snapshot replay model (see [`crate::shard`]) rebuilds
//! `Network::build(net, policy, seed)` and warms it for `warmup_ms` from
//! scratch for every campaign cell — deterministic, but the single
//! biggest fixed cost a short campaign pays (ROADMAP: warmup is per
//! shard, measurement is per run). A [`WarmCache`] memoizes the warmed
//! [`Network`] under its *warm-recipe digest* — the canonical-JSON FNV-1a
//! over exactly the inputs that determine the warmed state (network
//! config, protocol label, seed, warmup duration; measurement knobs like
//! `window_ms` and `runs` are deliberately excluded) — so sweep cells,
//! repeated shard runs, and service jobs sharing a recipe warm once and
//! clone thereafter.
//!
//! Correctness: warmup is deterministic, and measuring runs already
//! execute on clones of the warmed snapshot, so handing out one more
//! clone level changes nothing — a cached campaign is byte-identical to
//! an uncached one (pinned by `warm::tests` and the shard tests).
//! Campaigns with a behavioural adversary installed bypass the cache
//! entirely (the adversary shapes warmup). The recipe digest does not see
//! *which* [`ProtocolRegistry`](bcbpt_cluster::ProtocolRegistry) resolves
//! a protocol spec, so one cache must not be shared across registries
//! that map the same spec to different policies.

use crate::experiment::ExperimentConfig;
use bcbpt_net::Network;
use serde::{Serialize, Value};
use std::sync::Mutex;

/// The warm-recipe digest of one campaign configuration: FNV-1a over the
/// canonical JSON of the fields that determine the warmed network state.
/// `window_ms` and `runs` are excluded on purpose — they only shape the
/// measurement phase, so campaigns differing only there share warm state.
pub fn warm_recipe_digest(cfg: &ExperimentConfig) -> u64 {
    let mut fields = vec![
        ("net".to_string(), cfg.net.to_value()),
        ("protocol".to_string(), Value::Str(cfg.protocol.to_string())),
        ("seed".to_string(), Value::U64(cfg.seed)),
        ("warmup_ms".to_string(), Value::F64(cfg.warmup_ms)),
    ];
    // The relay strategy shapes warmup traffic accounting (and, for coded
    // relays, the relay RNG draw order), so it is part of the recipe — but
    // only when set, keeping every relay-free digest identical to builds
    // that predate the relay seam.
    if let Some(relay) = &cfg.relay {
        fields.push(("relay".to_string(), Value::Str(relay.to_string())));
    }
    let recipe = Value::Map(fields);
    let json = serde_json::to_string(&recipe).expect("recipe serializes");
    crate::wire::fnv1a64(json.as_bytes())
}

/// Cache state: recency-ordered entries (least recently used first) plus
/// the hit/miss counters the service's `/stats` endpoint reports.
struct WarmCacheInner {
    entries: Vec<(u64, Network)>,
    hits: u64,
    misses: u64,
}

/// A bounded, thread-safe cache of warmed-up [`Network`] snapshots keyed
/// by [`warm_recipe_digest`]. Share one per process (or per service) via
/// reference or `Arc`; lookups clone the cached network, which is exactly
/// what every measuring run does anyway.
pub struct WarmCache {
    capacity: usize,
    inner: Mutex<WarmCacheInner>,
}

impl WarmCache {
    /// Creates a cache holding at most `capacity` warmed networks
    /// (`0` is treated as 1). Eviction is least-recently-used.
    pub fn new(capacity: usize) -> Self {
        WarmCache {
            capacity: capacity.max(1),
            inner: Mutex::new(WarmCacheInner {
                entries: Vec::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Cache lookups that found a warmed network.
    pub fn hits(&self) -> u64 {
        self.inner.lock().expect("warm cache lock").hits
    }

    /// Cache lookups that had to build + warm from scratch.
    pub fn misses(&self) -> u64 {
        self.inner.lock().expect("warm cache lock").misses
    }

    /// Warmed networks currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("warm cache lock").entries.len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a clone of the warmed network for `cfg`'s recipe, building
    /// and warming through `build` on a miss. The lock is released during
    /// `build` (warmup can take seconds); two concurrent misses of one
    /// recipe both build, and the first insert wins.
    pub(crate) fn warm_or_build(
        &self,
        cfg: &ExperimentConfig,
        build: impl FnOnce() -> Result<Network, String>,
    ) -> Result<Network, String> {
        let key = warm_recipe_digest(cfg);
        {
            let mut inner = self.inner.lock().expect("warm cache lock");
            if let Some(pos) = inner.entries.iter().position(|(k, _)| *k == key) {
                let entry = inner.entries.remove(pos);
                let warmed = entry.1.clone();
                inner.entries.push(entry);
                inner.hits += 1;
                crate::obs::warm_cache_hits().inc();
                return Ok(warmed);
            }
        }
        let warmed = build()?;
        let mut inner = self.inner.lock().expect("warm cache lock");
        inner.misses += 1;
        crate::obs::warm_cache_misses().inc();
        if !inner.entries.iter().any(|(k, _)| *k == key) {
            if inner.entries.len() >= self.capacity {
                inner.entries.remove(0);
            }
            inner.entries.push((key, warmed.clone()));
        }
        Ok(warmed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_cluster::Protocol;

    fn tiny(runs: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(Protocol::Bitcoin);
        cfg.net.num_nodes = 60;
        cfg.warmup_ms = 1_000.0;
        cfg.window_ms = 15_000.0;
        cfg.runs = runs;
        cfg
    }

    #[test]
    fn recipe_digest_ignores_measurement_knobs() {
        let a = tiny(3);
        let mut b = tiny(3);
        b.window_ms *= 2.0;
        b.runs += 40;
        assert_eq!(warm_recipe_digest(&a), warm_recipe_digest(&b));
    }

    #[test]
    fn recipe_digest_sees_every_warm_input() {
        let base = tiny(3);
        let mut seed = base.clone();
        seed.seed += 1;
        let mut warm = base.clone();
        warm.warmup_ms += 1.0;
        let mut proto = base.clone();
        proto.protocol = Protocol::Lbc.into();
        let mut net = base.clone();
        net.net.num_nodes += 1;
        let relay = base.with_relay("compact");
        for other in [seed, warm, proto, net, relay] {
            assert_ne!(warm_recipe_digest(&base), warm_recipe_digest(&other));
        }
        // Distinct relay strategies warm distinct state.
        assert_ne!(
            warm_recipe_digest(&base.with_relay("compact")),
            warm_recipe_digest(&base.with_relay("rlnc(chunks=8)"))
        );
    }

    #[test]
    fn cached_campaign_is_byte_identical_and_counts_hits() {
        let cfg = tiny(3);
        let plain = cfg.run_serial().unwrap();
        let cache = WarmCache::new(4);
        let registry = bcbpt_cluster::ProtocolRegistry::builtins();
        let first = cfg
            .run_campaign(&registry, 1, None, Some(&cache), None, None)
            .unwrap();
        let second = cfg
            .run_campaign(&registry, 1, None, Some(&cache), None, None)
            .unwrap();
        assert_eq!(first, plain);
        assert_eq!(second, plain);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn lru_eviction_keeps_the_capacity_bound() {
        let cache = WarmCache::new(2);
        let registry = bcbpt_cluster::ProtocolRegistry::builtins();
        for protocol in [Protocol::Bitcoin, Protocol::Lbc, Protocol::bcbpt_paper()] {
            let cfg = tiny(1).with_protocol(protocol);
            cfg.run_campaign(&registry, 1, None, Some(&cache), None, None)
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 3);
        // Bitcoin (least recently used) was evicted: warming it again is a
        // miss, while LBC is still resident.
        let cfg = tiny(1).with_protocol(Protocol::Lbc);
        cfg.run_campaign(&registry, 1, None, Some(&cache), None, None)
            .unwrap();
        assert_eq!(cache.hits(), 1);
        let cfg = tiny(1).with_protocol(Protocol::Bitcoin);
        cfg.run_campaign(&registry, 1, None, Some(&cache), None, None)
            .unwrap();
        assert_eq!(cache.misses(), 4);
    }
}
