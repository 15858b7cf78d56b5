//! The network fabric: nodes, links, relay protocol and churn wired onto
//! the discrete-event engine.
//!
//! This is the reproduction of the event-based Bitcoin simulator the paper
//! builds on (its ref [5]): geography-derived link latencies, the
//! INV/GETDATA/TX relay exchange with per-hop verification (Fig. 1), join/
//! leave churn from session-length models, periodic discovery ticks
//! (§V.B: every 100 ms), and the measuring-node instrumentation (Fig. 2).

use crate::adversary::{Adversary, TapVerdict};
use crate::block::{Block, BlockId, BlockLedger, ChainState};
use crate::config::NetConfig;
use crate::ids::{NodeId, TxId};
use crate::links::Links;
use crate::msg::{Message, MessageKind, INV_ENTRY_BYTES};
use crate::node::{NodeMeta, ProtoState};
use crate::online::OnlineSet;
use crate::policy::{NeighborPolicy, NetView, TopologyActions};
use crate::relay::{FullRelay, RelayNet, RelayStrategy};
use crate::routes::RouteTable;
use crate::stats::MessageStats;
use crate::tx::{Transaction, TxFactory};
use crate::watch::TxWatch;
use bcbpt_geo::{LinkLatencyModel, NodePlacer};
use bcbpt_sim::{Engine, RngHub, SimDuration, SimTime};
use core::fmt;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeMap;

/// Events flowing through the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A message arriving at `to`.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Payload.
        msg: Message,
    },
    /// A node's periodic discovery tick.
    DiscoveryTick {
        /// The discovering node.
        node: NodeId,
    },
    /// Verification of a received transaction finished.
    ///
    /// Carries only the transaction id: payload bodies are interned in the
    /// network's transaction registry, so events stay two words instead of
    /// cloning the payload through the queue.
    VerifyDone {
        /// The verifying node.
        node: NodeId,
        /// Id of the verified transaction.
        tx: TxId,
        /// Who delivered the payload (excluded from the re-announcement).
        relayer: NodeId,
    },
    /// An outstanding GETDATA went unanswered.
    GetDataTimeout {
        /// The requesting node.
        node: NodeId,
        /// The requested transaction.
        tx: TxId,
    },
    /// A node's session ended.
    ChurnLeave {
        /// The departing node.
        node: NodeId,
    },
    /// A departed node rejoins.
    ChurnRejoin {
        /// The rejoining node.
        node: NodeId,
    },
    /// The global proof-of-work process finds a block.
    MineBlock,
    /// Verification of a received block finished.
    ///
    /// Carries only the block id; the body is interned in the global
    /// ledger.
    BlockVerifyDone {
        /// The verifying node.
        node: NodeId,
        /// Id of the verified block.
        block: BlockId,
        /// Who delivered the payload.
        relayer: NodeId,
    },
    /// An outstanding GETBLOCKS went unanswered.
    GetBlockTimeout {
        /// The requesting node.
        node: NodeId,
        /// The requested block.
        block: BlockId,
    },
}

/// Error injecting a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectError {
    /// The origin node is offline.
    OriginOffline(NodeId),
    /// The origin node has no connections to relay through.
    NoPeers(NodeId),
    /// The requested first hop is not a peer of the origin.
    NotAPeer {
        /// The origin node.
        origin: NodeId,
        /// The invalid first hop.
        first_hop: NodeId,
    },
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::OriginOffline(n) => write!(f, "origin {n} is offline"),
            InjectError::NoPeers(n) => write!(f, "origin {n} has no peers"),
            InjectError::NotAPeer { origin, first_hop } => {
                write!(f, "{first_hop} is not a peer of {origin}")
            }
        }
    }
}

impl std::error::Error for InjectError {}

/// The simulated Bitcoin network.
///
/// # Examples
///
/// ```
/// use bcbpt_net::{Network, NetConfig, RandomPolicy};
///
/// let mut config = NetConfig::test_scale();
/// config.num_nodes = 30;
/// let mut net = Network::build(config, Box::new(RandomPolicy::new()), 42)?;
/// net.warmup_ms(500.0);
/// let origin = net.pick_online_node().unwrap();
/// net.inject_watched_tx(origin, None)?;
/// net.run_for_ms(10_000.0);
/// let watch = net.watch().unwrap();
/// assert!(watch.reached_count() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct Network {
    config: NetConfig,
    meta: Vec<NodeMeta>,
    links: Links,
    online: OnlineSet,
    proto: Vec<ProtoState>,
    latency: LinkLatencyModel,
    routes: RouteTable,
    engine: Engine<NetEvent>,
    stats: MessageStats,
    policy: Box<dyn NeighborPolicy>,
    policy_rng: ChaCha12Rng,
    latency_rng: ChaCha12Rng,
    churn_rng: ChaCha12Rng,
    inject_rng: ChaCha12Rng,
    tx_factory: TxFactory,
    tx_registry: BTreeMap<TxId, Transaction>,
    watch: Option<TxWatch>,
    discovery_enabled: bool,
    chain: Vec<ChainState>,
    ledger: BlockLedger,
    mining_rng: ChaCha12Rng,
    /// Mean block inter-arrival in ms; 0 = mining disabled.
    mining_interval_ms: f64,
    /// In-loop behavioural adversary, if one is installed.
    adversary: Option<Box<dyn Adversary>>,
    adversary_rng: ChaCha12Rng,
    /// How block bodies travel once announced. Always installed (the
    /// default [`FullRelay`] replicates the legacy hard-wired path);
    /// `Option` only so the dispatch can lend `self` to the strategy.
    relay: Option<Box<dyn RelayStrategy>>,
    relay_rng: ChaCha12Rng,
    /// Whether redundant-delivery accounting (and block-arrival telemetry)
    /// is armed. Off by default — enabled by [`Network::install_relay`] —
    /// so runs without an explicit relay stay byte-identical to the
    /// pre-relay-subsystem output.
    waste_accounting: bool,
    /// Mint times of blocks (ms), kept only under waste accounting to
    /// measure block propagation delay.
    block_mint_ms: BTreeMap<BlockId, f64>,
    block_delay_sum_ms: f64,
    block_delay_count: u64,
    /// Reused node-list buffer: every relay hop collects the peers to
    /// announce to and every discovery tick samples addresses, and this
    /// scratch space keeps both allocation-free on the hot path.
    scratch_nodes: Vec<NodeId>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.meta.len())
            .field("online", &self.online.len())
            .field("edges", &self.links.edge_count())
            .field("policy", &self.policy.name())
            .field("relay", &self.relay_name())
            .field("now", &self.engine.now())
            .finish()
    }
}

impl Network {
    /// Builds a network: places nodes, bootstraps the topology through the
    /// policy, and schedules discovery ticks and churn.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid configuration field.
    pub fn build(
        config: NetConfig,
        policy: Box<dyn NeighborPolicy>,
        seed: u64,
    ) -> Result<Self, String> {
        config.validate()?;
        let hub = RngHub::new(seed);
        let mut placement_rng = hub.stream("placement");
        let latency_model = LinkLatencyModel::new(config.latency);
        let placer = NodePlacer::world();
        let n = config.num_nodes;
        let verify_sigma = config.verify_heterogeneity_sigma;
        let meta: Vec<NodeMeta> = (0..n)
            .map(|_| {
                let verify_factor = if verify_sigma > 0.0 {
                    (verify_sigma * bcbpt_geo::sample_standard_normal(&mut placement_rng)).exp()
                } else {
                    1.0
                };
                NodeMeta {
                    placement: placer.place(&mut placement_rng),
                    access: latency_model.sample_access(&mut placement_rng),
                    verify_factor,
                    online: true,
                }
            })
            .collect();

        let mut net = Network {
            meta,
            links: Links::new(n),
            online: OnlineSet::all_online(n),
            proto: vec![ProtoState::new(); n],
            latency: latency_model,
            routes: RouteTable::new(hub.draw_u64("routes"), config.route_sigma),
            engine: Engine::with_capacity(n * 4),
            stats: MessageStats::new(),
            policy,
            policy_rng: hub.stream("policy"),
            latency_rng: hub.stream("latency"),
            churn_rng: hub.stream("churn"),
            inject_rng: hub.stream("inject"),
            tx_factory: TxFactory::new(config.tx_size_bytes),
            tx_registry: BTreeMap::new(),
            watch: None,
            discovery_enabled: true,
            chain: vec![ChainState::new(); n],
            ledger: BlockLedger::new(),
            mining_rng: hub.stream("mining"),
            mining_interval_ms: 0.0,
            adversary: None,
            adversary_rng: hub.stream("adversary"),
            relay: Some(Box::new(FullRelay::default())),
            relay_rng: hub.stream("relay"),
            waste_accounting: false,
            block_mint_ms: BTreeMap::new(),
            block_delay_sum_ms: 0.0,
            block_delay_count: 0,
            scratch_nodes: Vec::new(),
            config,
        };

        // Bootstrap every node's outbound connections through the policy.
        for i in 0..n {
            let node = NodeId::from_index(i as u32);
            let targets = net.policy_bootstrap(node);
            for t in targets {
                net.try_connect(node, t);
            }
        }

        // Stagger discovery ticks so they do not all fire at one instant.
        // Phases rise with the node index and every tick re-arms one
        // interval after it fires, so the whole train is scheduled in time
        // order and rides the queue's FIFO lane.
        let interval = net.config.discovery_interval_ms;
        for i in 0..n {
            let node = NodeId::from_index(i as u32);
            let phase = interval * (i as f64 / n as f64);
            net.engine.schedule_in_monotone(
                SimDuration::from_millis_f64(phase),
                NetEvent::DiscoveryTick { node },
            );
        }

        // Schedule first departures when churn is enabled.
        if !net.config.churn.is_disabled() {
            for i in 0..n {
                let node = NodeId::from_index(i as u32);
                let session = net.config.churn.sample_session_ms(&mut net.churn_rng);
                if session.is_finite() {
                    net.engine.schedule_in(
                        SimDuration::from_millis_f64(session),
                        NetEvent::ChurnLeave { node },
                    );
                }
            }
        }

        Ok(net)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// The neighbour-selection policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Cluster id of `node` according to the policy, if it clusters.
    pub fn cluster_of(&self, node: NodeId) -> Option<usize> {
        self.policy.cluster_of(node)
    }

    /// The connection table.
    pub fn links(&self) -> &Links {
        &self.links
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Number of nodes currently online.
    pub fn online_count(&self) -> usize {
        self.online.len()
    }

    /// Number of nodes (online or not).
    pub fn num_nodes(&self) -> usize {
        self.meta.len()
    }

    /// Whether `node` is online.
    pub fn is_online(&self, node: NodeId) -> bool {
        self.meta[node.index()].online
    }

    /// Node metadata (placement, access profile, liveness).
    pub fn meta(&self, node: NodeId) -> &NodeMeta {
        &self.meta[node.index()]
    }

    /// Noise-free ground-truth RTT between two nodes (ms), including the
    /// pair's route stretch.
    pub fn base_rtt_ms(&self, a: NodeId, b: NodeId) -> f64 {
        let ma = &self.meta[a.index()];
        let mb = &self.meta[b.index()];
        2.0 * self.latency.base_one_way_ms_with_route(
            &ma.placement.point,
            &mb.placement.point,
            &ma.access,
            &mb.access,
            self.routes.stretch(a, b),
        )
    }

    /// The current transaction watch, if any.
    pub fn watch(&self) -> Option<&TxWatch> {
        self.watch.as_ref()
    }

    /// Removes and returns the current watch.
    pub fn take_watch(&mut self) -> Option<TxWatch> {
        self.watch.take()
    }

    /// Enables or disables discovery ticks (cluster maintenance). The
    /// measurement phase can freeze the topology to isolate relay delay.
    pub fn set_discovery_enabled(&mut self, enabled: bool) {
        self.discovery_enabled = enabled;
    }

    /// Re-derives every random stream from `hub`, leaving topology, clocks
    /// and pending events untouched.
    ///
    /// The parallel campaign runner snapshots one warmed-up network and
    /// clones it per measuring run; reseeding each clone from
    /// `RngHub::new(campaign_seed).subhub("run", run_index)` makes run `k`
    /// independent of which thread executes it — parallel output is
    /// byte-identical to the serial schedule.
    pub fn reseed_streams(&mut self, hub: &bcbpt_sim::RngHub) {
        self.policy_rng = hub.stream("policy");
        self.latency_rng = hub.stream("latency");
        self.churn_rng = hub.stream("churn");
        self.inject_rng = hub.stream("inject");
        self.mining_rng = hub.stream("mining");
        self.adversary_rng = hub.stream("adversary");
        self.relay_rng = hub.stream("relay");
    }

    /// Installs a block-relay strategy (replacing the default
    /// [`FullRelay`]) and arms bandwidth-waste accounting: from here on,
    /// redundant deliveries are recorded per [`MessageKind`] and block
    /// arrival delays are measured.
    ///
    /// Installing `FullRelay` itself is meaningful: the relay behaviour is
    /// identical to the default, but waste accounting turns on — the
    /// baseline the compact/coded strategies are compared against.
    pub fn install_relay(&mut self, relay: Box<dyn RelayStrategy>) {
        self.relay = Some(relay);
        self.waste_accounting = true;
    }

    /// The installed relay strategy's name.
    pub fn relay_name(&self) -> &'static str {
        self.relay.as_deref().map_or("full", RelayStrategy::name)
    }

    /// Whether redundant-delivery accounting is armed.
    pub fn waste_accounting(&self) -> bool {
        self.waste_accounting
    }

    /// Mean delay (ms) from a block's mint to its adoption by another
    /// node, over every adoption observed since waste accounting was
    /// armed; 0 when no block has propagated.
    pub fn block_delay_mean_ms(&self) -> f64 {
        if self.block_delay_count == 0 {
            0.0
        } else {
            self.block_delay_sum_ms / self.block_delay_count as f64
        }
    }

    /// Installs a behavioural adversary (replacing any previous one). Its
    /// strategies act from this moment on — install before
    /// [`warmup_ms`](Self::warmup_ms) to let an attacker game topology
    /// formation.
    pub fn set_adversary(&mut self, adversary: Box<dyn Adversary>) {
        self.adversary = Some(adversary);
    }

    /// Removes and returns the installed adversary, if any.
    pub fn take_adversary(&mut self) -> Option<Box<dyn Adversary>> {
        self.adversary.take()
    }

    /// The installed adversary, if any.
    pub fn adversary(&self) -> Option<&dyn Adversary> {
        self.adversary.as_deref()
    }

    /// Whether `node` is controlled by the installed adversary.
    pub fn is_attacker(&self, node: NodeId) -> bool {
        self.adversary.as_ref().is_some_and(|a| a.is_attacker(node))
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// Picks a deterministic pseudo-random online node, if any is online.
    pub fn pick_online_node(&mut self) -> Option<NodeId> {
        let sample = self
            .online
            .sample(1, NodeId::from_index(u32::MAX - 1), &mut self.inject_rng);
        sample.first().copied()
    }

    /// Fraction of online nodes reachable from `from` over established
    /// links (BFS) — a connectivity diagnostic for experiments.
    pub fn reachable_fraction(&self, from: NodeId) -> f64 {
        if !self.is_online(from) || self.online.is_empty() {
            return 0.0;
        }
        let mut seen = vec![false; self.meta.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[from.index()] = true;
        queue.push_back(from);
        let mut count = 1usize;
        while let Some(node) = queue.pop_front() {
            for &peer in self.links.peers(node) {
                if !seen[peer.index()] && self.meta[peer.index()].online {
                    seen[peer.index()] = true;
                    count += 1;
                    queue.push_back(peer);
                }
            }
        }
        count as f64 / self.online.len() as f64
    }

    /// Enables the proof-of-work process: blocks are found globally as a
    /// Poisson process with the given mean inter-arrival, each won by a
    /// uniformly random online node mining on its own current tip.
    ///
    /// Slow relay protocols let miners build on stale tips, producing the
    /// forks the paper's motivation describes (§I, §III); inspect the
    /// outcome via [`ledger`](Self::ledger).
    ///
    /// # Panics
    ///
    /// Panics when `mean_interval_ms` is not positive and finite.
    pub fn enable_mining(&mut self, mean_interval_ms: f64) {
        assert!(
            mean_interval_ms > 0.0 && mean_interval_ms.is_finite(),
            "mining interval must be positive"
        );
        let first = self.sample_exponential_ms(mean_interval_ms);
        self.mining_interval_ms = mean_interval_ms;
        self.engine
            .schedule_in(SimDuration::from_millis_f64(first), NetEvent::MineBlock);
    }

    /// The global block ledger (ground truth for fork accounting).
    pub fn ledger(&self) -> &BlockLedger {
        &self.ledger
    }

    /// A node's chain view.
    pub fn chain(&self, node: NodeId) -> &ChainState {
        &self.chain[node.index()]
    }

    /// Fraction of online nodes whose tip equals the global best tip — a
    /// ledger-consistency metric (the paper's "replicas of the ledger ...
    /// are inconsistent" concern, §I).
    pub fn tip_agreement(&self) -> f64 {
        let Some(best) = self.ledger.best_tip() else {
            return 1.0;
        };
        let mut agree = 0usize;
        let mut online = 0usize;
        for i in 0..self.meta.len() as u32 {
            let node = NodeId::from_index(i);
            if self.meta[node.index()].online {
                online += 1;
                if self.chain[node.index()].tip == Some(best) {
                    agree += 1;
                }
            }
        }
        if online == 0 {
            0.0
        } else {
            agree as f64 / online as f64
        }
    }

    fn sample_exponential_ms(&mut self, mean: f64) -> f64 {
        let u: f64 = self.mining_rng.gen::<f64>();
        -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
    }

    /// Forcibly tears down the connection between `a` and `b` (no protocol
    /// exchange) — the primitive attack experiments use to cut links.
    /// Returns `false` when no such connection existed.
    pub fn force_disconnect(&mut self, a: NodeId, b: NodeId) -> bool {
        self.links.disconnect(a, b)
    }

    /// Runs `f` with a [`NetView`] over the current network state — the
    /// same window policies get. Useful for custom experiments and for
    /// testing policy components in isolation.
    pub fn with_view<R, F: FnOnce(&mut NetView<'_>) -> R>(&mut self, f: F) -> R {
        f(&mut self.view_and_policy().0)
    }

    // ------------------------------------------------------------------
    // Topology plumbing
    // ------------------------------------------------------------------

    /// Splits the network into the window a policy sees and the policy
    /// itself, so a policy hook can be called with a view of its own
    /// network.
    fn view_and_policy(&mut self) -> (NetView<'_>, &mut dyn NeighborPolicy) {
        let view = NetView {
            meta: &self.meta,
            links: &self.links,
            online: &self.online,
            latency: &self.latency,
            routes: &self.routes,
            stats: &mut self.stats,
            rng: &mut self.policy_rng,
            config: &self.config,
            adversary: self.adversary.as_deref_mut(),
        };
        (view, self.policy.as_mut())
    }

    fn policy_bootstrap(&mut self, node: NodeId) -> Vec<NodeId> {
        let (mut view, policy) = self.view_and_policy();
        policy.bootstrap(node, &mut view)
    }

    fn policy_discovery(&mut self, node: NodeId, discovered: &[NodeId]) -> TopologyActions {
        let (mut view, policy) = self.view_and_policy();
        policy.on_discovery(node, discovered, &mut view)
    }

    fn policy_leave(&mut self, node: NodeId) {
        let (mut view, policy) = self.view_and_policy();
        policy.on_leave(node, &mut view);
    }

    /// Attempts to establish `from → to` under the connection caps.
    /// Accounts the VERSION/VERACK handshake on success.
    pub(crate) fn try_connect(&mut self, from: NodeId, to: NodeId) -> bool {
        if from == to
            || !self.meta[from.index()].online
            || !self.meta[to.index()].online
            || self.links.connected(from, to)
            || self.links.outbound_count(from) >= self.config.target_outbound
            || self.links.inbound_count(to) >= self.config.max_inbound
        {
            return false;
        }
        let connected = self.links.connect(from, to);
        if connected {
            self.stats.record(&Message::Version);
            self.stats.record(&Message::Verack);
        }
        connected
    }

    fn apply_actions(&mut self, node: NodeId, actions: TopologyActions) {
        for peer in actions.disconnect {
            self.links.disconnect(node, peer);
        }
        for peer in actions.connect {
            self.try_connect(node, peer);
        }
    }

    // ------------------------------------------------------------------
    // Messaging
    // ------------------------------------------------------------------

    /// Takes the reusable fan-out buffer, filled with `node`'s peers minus
    /// `exclude` — the relay hot path's allocation-free peer collection.
    /// Callers iterate it and hand it back by assigning to
    /// `self.scratch_nodes` (forgetting to restore only costs the reuse,
    /// never correctness).
    pub(crate) fn take_peer_scratch(
        &mut self,
        node: NodeId,
        exclude: Option<NodeId>,
    ) -> Vec<NodeId> {
        let mut peers = std::mem::take(&mut self.scratch_nodes);
        peers.clear();
        peers.extend(
            self.links
                .peers(node)
                .iter()
                .copied()
                .filter(|&p| Some(p) != exclude),
        );
        peers
    }

    /// Returns the fan-out buffer taken by
    /// [`take_peer_scratch`](Self::take_peer_scratch).
    pub(crate) fn restore_peer_scratch(&mut self, peers: Vec<NodeId>) {
        self.scratch_nodes = peers;
    }

    /// Schedules delivery of `msg` from `from` to `to` with sampled link
    /// latency plus serialization delay.
    pub(crate) fn send(&mut self, from: NodeId, to: NodeId, msg: Message) {
        self.send_with_extra_delay(from, to, msg, 0.0);
    }

    /// Mutable access to `node`'s chain view (relay strategies).
    pub(crate) fn chain_state_mut(&mut self, node: NodeId) -> &mut ChainState {
        &mut self.chain[node.index()]
    }

    /// The dedicated relay RNG stream.
    pub(crate) fn relay_rng_mut(&mut self) -> &mut ChaCha12Rng {
        &mut self.relay_rng
    }

    /// Records a redundant delivery when waste accounting is armed; a
    /// no-op otherwise so legacy runs never grow new serialized state.
    pub(crate) fn record_redundant_gated(&mut self, kind: MessageKind, bytes: u64) {
        if self.waste_accounting {
            self.stats.record_redundant(kind, bytes);
        }
    }

    /// Schedules the give-up timer for an outstanding block pull.
    pub(crate) fn schedule_block_timeout(&mut self, node: NodeId, block: BlockId) {
        let timeout = SimDuration::from_millis_f64(self.config.getdata_timeout_ms);
        self.engine
            .schedule_in(timeout, NetEvent::GetBlockTimeout { node, block });
    }

    /// Schedules block verification at `to` with the size-proportional
    /// cost the legacy BLOCK arm used, scaled by the node's verify factor.
    pub(crate) fn schedule_block_verify(&mut self, to: NodeId, block: &Block, relayer: NodeId) {
        let tx_stand_in = Transaction::new(TxId::from_raw(0), block.size_bytes);
        let verify = SimDuration::from_millis_f64(
            self.config.block_verify.verify_ms(&tx_stand_in) * self.meta[to.index()].verify_factor,
        );
        self.engine.schedule_in(
            verify,
            NetEvent::BlockVerifyDone {
                node: to,
                block: block.id,
                relayer,
            },
        );
    }

    /// Routes a block-plane message through the installed relay strategy.
    fn relay_dispatch(&mut self, from: NodeId, to: NodeId, msg: Message) {
        let mut relay = self.relay.take().expect("relay strategy installed");
        relay.on_message(from, to, msg, &mut RelayNet::new(self));
        self.relay = Some(relay);
    }

    /// Announces a newly adopted block through the installed relay
    /// strategy.
    fn relay_announce(&mut self, node: NodeId, block: &Block, exclude: Option<NodeId>) {
        let mut relay = self.relay.take().expect("relay strategy installed");
        relay.announce(node, block, exclude, &mut RelayNet::new(self));
        self.relay = Some(relay);
    }

    /// [`send`](Self::send) with an additional sender-side delay (used for
    /// INV trickling).
    fn send_with_extra_delay(&mut self, from: NodeId, to: NodeId, msg: Message, mut extra_ms: f64) {
        // Adversary tap: an attacker-controlled sender may hold the message
        // back or withhold it entirely. Withheld messages never reach the
        // wire; they are accounted separately in the traffic statistics.
        if let Some(adversary) = &mut self.adversary {
            match adversary.on_send(from, to, &msg, &mut self.adversary_rng) {
                TapVerdict::Deliver => {}
                TapVerdict::Delay(lag_ms) => extra_ms += lag_ms,
                TapVerdict::Withhold => {
                    self.stats.record_withheld(&msg);
                    return;
                }
            }
        }
        self.stats.record(&msg);
        let ma = &self.meta[from.index()];
        let mb = &self.meta[to.index()];
        let base = self.latency.base_one_way_ms_with_route(
            &ma.placement.point,
            &mb.placement.point,
            &ma.access,
            &mb.access,
            self.routes.stretch(from, to),
        );
        let mut delay_ms = self.latency.sample_one_way_ms(base, &mut self.latency_rng);
        delay_ms += msg.wire_size_bytes() as f64 / self.config.bandwidth_bytes_per_ms;
        delay_ms += extra_ms;
        self.engine.schedule_in(
            SimDuration::from_millis_f64(delay_ms),
            NetEvent::Deliver { from, to, msg },
        );
    }

    /// Samples the sender-side trickle delay for one INV announcement
    /// (exponential; 0 when trickling is disabled).
    fn sample_trickle_ms(&mut self) -> f64 {
        let mean = self.config.inv_trickle_mean_ms;
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.latency_rng.gen::<f64>();
        -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
    }

    // ------------------------------------------------------------------
    // Injection (measuring-node methodology, Fig. 2)
    // ------------------------------------------------------------------

    /// Creates a transaction at `origin` and relays it to exactly one peer
    /// (`first_hop`, or a random peer when `None`), starting a watch that
    /// records per-peer announcement times and network-wide arrivals.
    ///
    /// Replaces any previous watch.
    ///
    /// # Errors
    ///
    /// * [`InjectError::OriginOffline`] when the origin is offline.
    /// * [`InjectError::NoPeers`] when the origin has no connections.
    /// * [`InjectError::NotAPeer`] when `first_hop` is not connected.
    pub fn inject_watched_tx(
        &mut self,
        origin: NodeId,
        first_hop: Option<NodeId>,
    ) -> Result<TxId, InjectError> {
        if !self.meta[origin.index()].online {
            return Err(InjectError::OriginOffline(origin));
        }
        let peers = self.links.peers(origin);
        if peers.is_empty() {
            return Err(InjectError::NoPeers(origin));
        }
        let target = match first_hop {
            Some(t) if peers.contains(&t) => t,
            Some(t) => {
                return Err(InjectError::NotAPeer {
                    origin,
                    first_hop: t,
                })
            }
            None => {
                let k = self.inject_rng.gen_range(0..peers.len());
                *peers.iter().nth(k).expect("index sampled below len")
            }
        };
        let tx = self.tx_factory.create();
        self.tx_registry.insert(tx.id, tx);
        self.proto[origin.index()].mempool.insert(tx.id);
        let mut watch = TxWatch::new(tx.id, origin, self.now());
        watch.record_arrival(origin, self.now());
        self.watch = Some(watch);
        self.send(origin, target, Message::TxData { tx });
        Ok(tx.id)
    }

    /// Creates a transaction at `origin` and announces it to *all* peers —
    /// normal client behaviour, used by validation and example workloads.
    ///
    /// # Errors
    ///
    /// Same conditions as [`inject_watched_tx`](Self::inject_watched_tx)
    /// minus the first-hop check.
    pub fn inject_broadcast_tx(&mut self, origin: NodeId) -> Result<TxId, InjectError> {
        if !self.meta[origin.index()].online {
            return Err(InjectError::OriginOffline(origin));
        }
        if self.links.peers(origin).is_empty() {
            return Err(InjectError::NoPeers(origin));
        }
        let tx = self.tx_factory.create();
        self.tx_registry.insert(tx.id, tx);
        self.proto[origin.index()].mempool.insert(tx.id);
        let mut watch = TxWatch::new(tx.id, origin, self.now());
        watch.record_arrival(origin, self.now());
        self.watch = Some(watch);
        let peers = self.take_peer_scratch(origin, None);
        for &p in &peers {
            let trickle = self.sample_trickle_ms();
            self.send_with_extra_delay(origin, p, Message::InvOne { txid: tx.id }, trickle);
        }
        self.scratch_nodes = peers;
        Ok(tx.id)
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Runs until the simulated clock reaches `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        loop {
            match self.engine.peek_time() {
                None => break,
                Some(t) if t >= horizon => break,
                Some(_) => {}
            }
            let firing = self.engine.step().expect("peeked non-empty");
            self.handle(firing.payload);
        }
        // This loop drives the engine through `step()` (bypassing the
        // engine's own run loop), so publish its event/queue counts here.
        self.engine.flush_obs();
    }

    /// Runs for `duration_ms` simulated milliseconds.
    pub fn run_for_ms(&mut self, duration_ms: f64) {
        let horizon = self.now() + SimDuration::from_millis_f64(duration_ms);
        self.run_until(horizon);
    }

    /// Alias of [`run_for_ms`](Self::run_for_ms) that reads better for the
    /// topology-formation phase.
    pub fn warmup_ms(&mut self, duration_ms: f64) {
        self.run_for_ms(duration_ms);
    }

    fn handle(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::Deliver { from, to, msg } => self.handle_deliver(from, to, msg),
            NetEvent::DiscoveryTick { node } => self.handle_discovery(node),
            NetEvent::VerifyDone { node, tx, relayer } => self.handle_verified(node, tx, relayer),
            NetEvent::GetDataTimeout { node, tx } => {
                // Forget the stalled request so a later INV can retry it.
                let proto = &mut self.proto[node.index()];
                if !proto.mempool.contains(&tx) && !proto.verifying.contains(&tx) {
                    proto.inflight.remove(&tx);
                }
            }
            NetEvent::ChurnLeave { node } => self.handle_leave(node),
            NetEvent::ChurnRejoin { node } => self.handle_rejoin(node),
            NetEvent::MineBlock => self.handle_mine(),
            NetEvent::BlockVerifyDone {
                node,
                block,
                relayer,
            } => self.handle_block_verified(node, block, relayer),
            NetEvent::GetBlockTimeout { node, block } => {
                let chain = &mut self.chain[node.index()];
                if !chain.known.contains(&block) && !chain.verifying.contains(&block) {
                    chain.inflight.remove(&block);
                }
            }
        }
    }

    fn handle_deliver(&mut self, from: NodeId, to: NodeId, msg: Message) {
        if !self.meta[to.index()].online {
            return; // Messages to departed nodes are lost.
        }
        // Measuring-node hook: record the first announcement per peer.
        if let Some(watch) = &mut self.watch {
            if to == watch.origin {
                let announces = match &msg {
                    Message::Inv { txids } => txids.contains(&watch.tx),
                    Message::InvOne { txid } => *txid == watch.tx,
                    _ => false,
                };
                if announces {
                    watch.record_announcement(from, self.engine.now());
                }
            }
        }
        match msg {
            Message::Ping { nonce } => self.send(to, from, Message::Pong { nonce }),
            Message::Pong { .. } => {}
            Message::GetAddr => {
                let nodes =
                    self.online
                        .sample(self.config.discovery_sample, to, &mut self.policy_rng);
                self.send(to, from, Message::Addr { nodes });
            }
            Message::Addr { .. } => {}
            Message::Inv { txids } => {
                let proto = &mut self.proto[to.index()];
                let mut wanted = Vec::new();
                let mut known = 0u64;
                for txid in txids {
                    if !proto.knows(txid) {
                        proto.inflight.insert(txid);
                        wanted.push(txid);
                    } else {
                        known += 1;
                    }
                }
                if known > 0 {
                    self.record_redundant_gated(MessageKind::Inv, known * INV_ENTRY_BYTES as u64);
                }
                if !wanted.is_empty() {
                    let timeout = SimDuration::from_millis_f64(self.config.getdata_timeout_ms);
                    for &txid in &wanted {
                        self.engine
                            .schedule_in(timeout, NetEvent::GetDataTimeout { node: to, tx: txid });
                    }
                    self.send(to, from, Message::GetData { txids: wanted });
                }
            }
            Message::InvOne { txid } => {
                // Hot-path twin of `Inv`: one id, no vectors end to end.
                let proto = &mut self.proto[to.index()];
                if !proto.knows(txid) {
                    proto.inflight.insert(txid);
                    let timeout = SimDuration::from_millis_f64(self.config.getdata_timeout_ms);
                    self.engine
                        .schedule_in(timeout, NetEvent::GetDataTimeout { node: to, tx: txid });
                    self.send(to, from, Message::GetDataOne { txid });
                } else {
                    let wire = Message::InvOne { txid }.wire_size_bytes() as u64;
                    self.record_redundant_gated(MessageKind::Inv, wire);
                }
            }
            Message::GetData { txids } => {
                for txid in txids {
                    if self.proto[to.index()].mempool.contains(&txid) {
                        if let Some(&tx) = self.tx_registry.get(&txid) {
                            self.send(to, from, Message::TxData { tx });
                        }
                    }
                }
            }
            Message::GetDataOne { txid } => {
                if self.proto[to.index()].mempool.contains(&txid) {
                    if let Some(&tx) = self.tx_registry.get(&txid) {
                        self.send(to, from, Message::TxData { tx });
                    }
                }
            }
            Message::TxData { tx } => {
                let proto = &mut self.proto[to.index()];
                if proto.mempool.contains(&tx.id) || proto.verifying.contains(&tx.id) {
                    let wire = Message::TxData { tx }.wire_size_bytes() as u64;
                    self.record_redundant_gated(MessageKind::Tx, wire);
                    return;
                }
                proto.inflight.remove(&tx.id);
                proto.verifying.insert(tx.id);
                let verify = SimDuration::from_millis_f64(
                    self.config.verify.verify_ms(&tx) * self.meta[to.index()].verify_factor,
                );
                self.engine.schedule_in(
                    verify,
                    NetEvent::VerifyDone {
                        node: to,
                        tx: tx.id,
                        relayer: from,
                    },
                );
            }
            // The block plane belongs to the installed relay strategy.
            Message::BlockInv { .. }
            | Message::BlockInvOne { .. }
            | Message::GetBlocks { .. }
            | Message::GetBlocksOne { .. }
            | Message::BlockData { .. }
            | Message::CmpctBlock { .. }
            | Message::GetBlockTxn { .. }
            | Message::BlockTxn { .. }
            | Message::CodedPiece { .. }
            | Message::GetPiece { .. } => self.relay_dispatch(from, to, msg),
            // Handshake and cluster control are applied synchronously at
            // the topology layer; their traffic is accounted there.
            Message::Version | Message::Verack | Message::Join | Message::ClusterList { .. } => {}
        }
    }

    fn handle_verified(&mut self, node: NodeId, txid: TxId, relayer: NodeId) {
        if !self.meta[node.index()].online {
            return; // Departed while verifying.
        }
        let proto = &mut self.proto[node.index()];
        proto.verifying.remove(&txid);
        if !proto.mempool.insert(txid) {
            return;
        }
        if let Some(watch) = &mut self.watch {
            if txid == watch.tx {
                watch.record_arrival(node, self.engine.now());
            }
        }
        let peers = self.take_peer_scratch(node, Some(relayer));
        for &p in &peers {
            let trickle = self.sample_trickle_ms();
            self.send_with_extra_delay(node, p, Message::InvOne { txid }, trickle);
        }
        self.scratch_nodes = peers;
    }

    fn handle_discovery(&mut self, node: NodeId) {
        // Always reschedule so the tick train survives offline periods.
        self.engine.schedule_in_monotone(
            SimDuration::from_millis_f64(self.config.discovery_interval_ms),
            NetEvent::DiscoveryTick { node },
        );
        if !self.discovery_enabled || !self.meta[node.index()].online {
            return;
        }
        // "The normal Bitcoin network nodes discovery mechanism": learn a
        // few addresses (accounted as a GETADDR/ADDR exchange with a peer).
        // Every node ticks every interval, so the sample lands in the
        // reused scratch buffer and the ADDR reply is sized by its count:
        // a tick that changes no connection allocates nothing.
        let mut discovered = std::mem::take(&mut self.scratch_nodes);
        self.online.sample_into(
            self.config.discovery_sample,
            node,
            &mut self.policy_rng,
            &mut discovered,
        );
        if !discovered.is_empty() {
            self.stats.record(&Message::GetAddr);
            self.stats
                .record_address_list(MessageKind::Addr, discovered.len());
        }
        let actions = self.policy_discovery(node, &discovered);
        self.scratch_nodes = discovered;
        self.apply_actions(node, actions);
    }

    fn handle_leave(&mut self, node: NodeId) {
        if self.meta[node.index()].online {
            self.meta[node.index()].online = false;
            self.online.remove(node);
            self.links.drop_all(node);
            self.proto[node.index()].clear();
            if let Some(relay) = &mut self.relay {
                relay.on_leave(node);
            }
            self.policy_leave(node);
        }
        let offline = self.config.churn.sample_offline_ms(&mut self.churn_rng);
        if offline.is_finite() {
            self.engine.schedule_in(
                SimDuration::from_millis_f64(offline),
                NetEvent::ChurnRejoin { node },
            );
        }
    }

    fn handle_rejoin(&mut self, node: NodeId) {
        if !self.meta[node.index()].online {
            self.meta[node.index()].online = true;
            self.online.insert(node);
            let targets = self.policy_bootstrap(node);
            for t in targets {
                self.try_connect(node, t);
            }
        }
        let session = self.config.churn.sample_session_ms(&mut self.churn_rng);
        if session.is_finite() {
            self.engine.schedule_in(
                SimDuration::from_millis_f64(session),
                NetEvent::ChurnLeave { node },
            );
        }
    }
}

impl Network {
    fn handle_mine(&mut self) {
        // Reschedule the global Poisson process first.
        if self.mining_interval_ms > 0.0 {
            let gap = self.sample_exponential_ms(self.mining_interval_ms);
            self.engine
                .schedule_in(SimDuration::from_millis_f64(gap), NetEvent::MineBlock);
        }
        // A uniformly random online node wins the round.
        let sentinel = NodeId::from_index(u32::MAX - 1);
        let Some(miner) = self
            .online
            .sample(1, sentinel, &mut self.mining_rng)
            .first()
            .copied()
        else {
            return;
        };
        let parent = self.chain[miner.index()].tip;
        let block = self
            .ledger
            .mint(parent, miner, self.config.block_size_bytes);
        self.chain[miner.index()].adopt(&block);
        if self.waste_accounting {
            self.block_mint_ms
                .insert(block.id, self.now().as_millis_f64());
        }
        self.relay_announce(miner, &block, None);
    }

    fn handle_block_verified(&mut self, node: NodeId, id: BlockId, relayer: NodeId) {
        if !self.meta[node.index()].online {
            return;
        }
        let chain = &mut self.chain[node.index()];
        if chain.known.contains(&id) {
            return;
        }
        let Some(&block) = self.ledger.get(id) else {
            return; // Unmintable: ids only come from the ledger.
        };
        self.chain[node.index()].adopt(&block);
        if self.waste_accounting {
            if let Some(&minted) = self.block_mint_ms.get(&id) {
                self.block_delay_sum_ms += self.now().as_millis_f64() - minted;
                self.block_delay_count += 1;
            }
        }
        self.relay_announce(node, &block, Some(relayer));
    }
}

// ----------------------------------------------------------------------
// A trivial built-in policy so this crate is testable standalone. The real
// protocols (random with proper maintenance, LBC, BCBPT) live in
// `bcbpt-cluster`.
// ----------------------------------------------------------------------

/// Vanilla Bitcoin neighbour selection: connect to uniformly random nodes,
/// top up lost connections on discovery ticks.
///
/// This is the baseline protocol in the paper's Fig. 3 comparison.
#[derive(Debug, Default, Clone)]
pub struct RandomPolicy {
    _private: (),
}

impl RandomPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        RandomPolicy { _private: () }
    }
}

impl NeighborPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "bitcoin"
    }

    fn clone_box(&self) -> Box<dyn NeighborPolicy> {
        Box::new(self.clone())
    }

    fn bootstrap(&mut self, node: NodeId, view: &mut NetView<'_>) -> Vec<NodeId> {
        let want = view.config().target_outbound;
        view.sample_online(want, node)
    }

    fn on_discovery(
        &mut self,
        node: NodeId,
        discovered: &[NodeId],
        view: &mut NetView<'_>,
    ) -> TopologyActions {
        let free = view.free_outbound_slots(node);
        if free == 0 {
            return TopologyActions::none();
        }
        let connect: Vec<NodeId> = discovered
            .iter()
            .copied()
            .filter(|&c| c != node && view.is_online(c) && !view.connected(node, c))
            .take(free)
            .collect();
        TopologyActions::connect_to(connect)
    }

    fn on_leave(&mut self, _node: NodeId, _view: &mut NetView<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_geo::{ChurnModel, LatencyConfig};

    fn small_config(n: usize) -> NetConfig {
        NetConfig {
            num_nodes: n,
            latency: LatencyConfig::noiseless(),
            ..NetConfig::default()
        }
    }

    fn build(n: usize, seed: u64) -> Network {
        Network::build(small_config(n), Box::new(RandomPolicy::new()), seed).unwrap()
    }

    #[test]
    fn build_creates_connected_topology() {
        let net = build(50, 1);
        assert_eq!(net.num_nodes(), 50);
        assert_eq!(net.online_count(), 50);
        // Bootstrap may fall short when a sampled candidate already dialled
        // us; discovery ticks top the remainder up.
        let mut net = net;
        net.warmup_ms(3_000.0);
        for i in 0..50u32 {
            let node = NodeId::from_index(i);
            assert_eq!(
                net.links().outbound_count(node),
                8,
                "node {node} after top-up"
            );
        }
        assert!(net.reachable_fraction(NodeId::from_index(0)) > 0.99);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = small_config(10);
        c.target_outbound = 10;
        assert!(Network::build(c, Box::new(RandomPolicy::new()), 1).is_err());
    }

    #[test]
    fn watched_tx_reaches_whole_network() {
        let mut net = build(40, 2);
        let origin = NodeId::from_index(0);
        net.inject_watched_tx(origin, None).unwrap();
        net.run_for_ms(60_000.0);
        let watch = net.watch().unwrap();
        assert_eq!(
            watch.reached_count(),
            39,
            "all other nodes should receive the tx"
        );
        // Every peer of the origin eventually announces it back.
        // Every peer except the first hop announces back (a node never
        // re-announces to whoever gave it the payload).
        assert_eq!(
            watch.announced_count(),
            net.links().degree(origin) - 1,
            "all peers except the first hop announce"
        );
        for d in watch.deltas_ms() {
            assert!(d > 0.0, "announcement deltas are positive");
        }
    }

    #[test]
    fn inject_validates_origin() {
        let mut net = build(10, 3);
        let err = net
            .inject_watched_tx(NodeId::from_index(0), Some(NodeId::from_index(0)))
            .unwrap_err();
        assert!(matches!(err, InjectError::NotAPeer { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn relay_follows_inv_getdata_tx_sequence() {
        // Two nodes, one edge: the origin sends TXDATA to its peer, which
        // verifies and has nobody left to announce to (it never announces
        // back to its relayer). Counts: 1 TX, 0 INV, 0 GETDATA.
        let mut config = small_config(2);
        config.verify = crate::tx::VerifyCost::free();
        config.target_outbound = 1;
        let mut net = Network::build(config, Box::new(RandomPolicy::new()), 4).unwrap();
        net.set_discovery_enabled(false);
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(1);
        assert!(net.links().connected(a, b));
        net.inject_watched_tx(a, Some(b)).unwrap();
        net.run_for_ms(5_000.0);
        assert_eq!(net.stats().count(crate::msg::MessageKind::Tx), 1);
        assert_eq!(net.stats().count(crate::msg::MessageKind::Inv), 0);
        assert_eq!(net.stats().count(crate::msg::MessageKind::GetData), 0);
        let watch = net.watch().unwrap();
        assert_eq!(watch.announced_count(), 0);
        assert_eq!(watch.reached_count(), 1, "peer still received the tx");
    }

    #[test]
    fn third_node_pays_one_and_a_half_rtt() {
        // Chain a - b - c with zero verification: c receives the payload
        // INV+GETDATA+TX = 3 one-way hops after b has it.
        let mut config = small_config(3);
        config.verify = crate::tx::VerifyCost::free();
        config.target_outbound = 1;
        let mut net = Network::build(config, Box::new(RandomPolicy::new()), 5).unwrap();
        net.set_discovery_enabled(false);
        // Rebuild a deterministic chain topology manually.
        let (a, b, c) = (
            NodeId::from_index(0),
            NodeId::from_index(1),
            NodeId::from_index(2),
        );
        for i in 0..3u32 {
            net.links.drop_all(NodeId::from_index(i));
        }
        net.links.connect(a, b);
        net.links.connect(b, c);
        net.inject_watched_tx(a, Some(b)).unwrap();
        net.run_for_ms(30_000.0);
        let watch = net.take_watch().unwrap();
        let arrivals = watch.arrival_delays_ms();
        assert_eq!(arrivals.len(), 2);
        let t_b = arrivals[0];
        let t_c = arrivals[1];
        let one_way_bc = net.base_rtt_ms(b, c) / 2.0;
        // c hears INV, sends GETDATA, receives TX: 3 extra one-way trips
        // (plus serialization). Allow tolerance for serialization delay.
        let expect = t_b + 3.0 * one_way_bc;
        assert!(
            (t_c - expect).abs() < 2.0,
            "t_c {t_c} vs expected {expect} (t_b {t_b}, one-way {one_way_bc})"
        );
    }

    #[test]
    fn churn_takes_nodes_down_and_back() {
        let mut config = small_config(30);
        config.churn = ChurnModel {
            median_session_ms: 3_000.0,
            session_sigma: 0.5,
            mean_offline_ms: 1_000.0,
        };
        let mut net = Network::build(config, Box::new(RandomPolicy::new()), 6).unwrap();
        let mut saw_offline = false;
        for _ in 0..40 {
            net.run_for_ms(500.0);
            if net.online_count() < 30 {
                saw_offline = true;
            }
        }
        assert!(saw_offline, "churn should take nodes offline");
        assert!(net.online_count() > 0, "network never fully dies");
    }

    #[test]
    fn discovery_tops_up_connections_after_churn() {
        let mut config = small_config(30);
        config.churn = ChurnModel {
            median_session_ms: 2_000.0,
            session_sigma: 1.0,
            mean_offline_ms: 800.0,
        };
        let mut net = Network::build(config, Box::new(RandomPolicy::new()), 7).unwrap();
        net.run_for_ms(20_000.0);
        // After sustained churn with discovery running, online nodes should
        // still hold connections.
        let mut total_degree = 0usize;
        let mut online = 0usize;
        for i in 0..30u32 {
            let node = NodeId::from_index(i);
            if net.is_online(node) {
                online += 1;
                total_degree += net.links().degree(node);
            }
        }
        assert!(online > 0);
        assert!(
            total_degree as f64 / online as f64 >= 4.0,
            "average degree collapsed: {total_degree}/{online}"
        );
    }

    #[test]
    fn runs_are_deterministic_for_same_seed() {
        let run = |seed: u64| {
            let mut net = build(30, seed);
            net.inject_watched_tx(NodeId::from_index(0), None).unwrap();
            net.run_for_ms(30_000.0);
            let watch = net.take_watch().unwrap();
            (watch.deltas_ms(), net.stats().total_messages())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0, "different seeds differ");
    }

    #[test]
    fn broadcast_injection_announces_to_all_peers() {
        let mut net = build(20, 8);
        let origin = NodeId::from_index(0);
        let degree = net.links().degree(origin);
        let before = net.stats().count(crate::msg::MessageKind::Inv);
        net.inject_broadcast_tx(origin).unwrap();
        let after = net.stats().count(crate::msg::MessageKind::Inv);
        assert_eq!(after - before, degree as u64);
        net.run_for_ms(30_000.0);
        assert_eq!(net.watch().unwrap().reached_count(), 19);
    }

    #[test]
    fn offline_origin_rejected() {
        let mut net = build(10, 9);
        // Force node 0 offline through the churn path.
        net.handle(NetEvent::ChurnLeave {
            node: NodeId::from_index(0),
        });
        let err = net
            .inject_watched_tx(NodeId::from_index(0), None)
            .unwrap_err();
        assert!(matches!(err, InjectError::OriginOffline(_)));
    }

    #[test]
    fn mining_produces_a_growing_chain() {
        let mut net = build(30, 21);
        net.enable_mining(2_000.0);
        net.run_for_ms(60_000.0);
        let mined = net.ledger().mined_count();
        assert!(mined >= 10, "expected ~30 blocks, got {mined}");
        let main = net.ledger().main_chain().len();
        assert!(main > 0);
        assert!(main <= mined);
        // With 2 s blocks and sub-second propagation most blocks chain.
        assert!(
            net.ledger().stale_rate() < 0.5,
            "stale rate {}",
            net.ledger().stale_rate()
        );
        // After a quiet period every node converges on the best tip.
        net.run_for_ms(30_000.0);
        // (Mining continues; agreement is high but not necessarily total.)
        assert!(
            net.tip_agreement() > 0.5,
            "agreement {}",
            net.tip_agreement()
        );
    }

    #[test]
    fn faster_blocks_fork_more() {
        let stale_at = |interval_ms: f64| {
            let mut net = build(40, 22);
            net.enable_mining(interval_ms);
            net.run_for_ms(120_000.0);
            net.ledger().stale_rate()
        };
        let slow = stale_at(6_000.0);
        let fast = stale_at(300.0);
        assert!(
            fast > slow,
            "blocks at 300ms ({fast}) must fork more than at 6s ({slow})"
        );
    }

    #[test]
    fn mining_disabled_by_default() {
        let mut net = build(10, 23);
        net.run_for_ms(5_000.0);
        assert_eq!(net.ledger().mined_count(), 0);
        assert_eq!(net.tip_agreement(), 1.0, "vacuously consistent");
    }

    #[test]
    #[should_panic(expected = "mining interval")]
    fn mining_validates_interval() {
        let mut net = build(10, 24);
        net.enable_mining(0.0);
    }

    /// Test adversary: node 0 delays all its INV announcements, node 1
    /// withholds everything it would send.
    #[derive(Debug, Clone)]
    struct DelayAndMute;

    impl crate::adversary::Adversary for DelayAndMute {
        fn clone_box(&self) -> Box<dyn crate::adversary::Adversary> {
            Box::new(self.clone())
        }
        fn is_attacker(&self, node: NodeId) -> bool {
            node.index() < 2
        }
        fn on_send(
            &mut self,
            from: NodeId,
            _to: NodeId,
            msg: &Message,
            _rng: &mut ChaCha12Rng,
        ) -> crate::adversary::TapVerdict {
            match from.index() {
                0 if matches!(msg, Message::InvOne { .. }) => {
                    crate::adversary::TapVerdict::Delay(500.0)
                }
                1 => crate::adversary::TapVerdict::Withhold,
                _ => crate::adversary::TapVerdict::Deliver,
            }
        }
        fn rewrite_rtt_ms(&mut self, _o: NodeId, _t: NodeId, measured_ms: f64) -> f64 {
            measured_ms
        }
    }

    #[test]
    fn adversary_tap_withholds_and_accounts() {
        let run = |with_adversary: bool| {
            let mut net = build(30, 31);
            if with_adversary {
                net.set_adversary(Box::new(DelayAndMute));
            }
            let origin = NodeId::from_index(2);
            net.inject_watched_tx(origin, None).unwrap();
            net.run_for_ms(30_000.0);
            net
        };
        let clean = run(false);
        let tapped = run(true);
        assert!(tapped.is_attacker(NodeId::from_index(0)));
        assert!(!tapped.is_attacker(NodeId::from_index(5)));
        assert_eq!(clean.stats().withheld_messages(), 0);
        assert!(
            tapped.stats().withheld_messages() > 0,
            "the muted node must have withheld traffic"
        );
        // The tx still floods (the network routes around two attackers).
        assert!(tapped.watch().unwrap().reached_count() >= 27);
    }

    #[test]
    fn installed_idle_adversary_changes_nothing() {
        /// An adversary that controls nobody and touches nothing.
        #[derive(Debug, Clone)]
        struct Idle;
        impl crate::adversary::Adversary for Idle {
            fn clone_box(&self) -> Box<dyn crate::adversary::Adversary> {
                Box::new(Idle)
            }
            fn is_attacker(&self, _node: NodeId) -> bool {
                false
            }
            fn on_send(
                &mut self,
                _f: NodeId,
                _t: NodeId,
                _m: &Message,
                _rng: &mut ChaCha12Rng,
            ) -> crate::adversary::TapVerdict {
                crate::adversary::TapVerdict::Deliver
            }
            fn rewrite_rtt_ms(&mut self, _o: NodeId, _t: NodeId, measured_ms: f64) -> f64 {
                measured_ms
            }
        }
        let run = |idle: bool| {
            let mut net = build(30, 32);
            if idle {
                net.set_adversary(Box::new(Idle));
            }
            net.inject_watched_tx(NodeId::from_index(0), None).unwrap();
            net.run_for_ms(30_000.0);
            (
                net.take_watch().unwrap().deltas_ms(),
                net.stats().total_messages(),
            )
        };
        assert_eq!(run(false), run(true), "an idle adversary is a no-op");
    }

    #[test]
    fn take_adversary_uninstalls() {
        let mut net = build(10, 33);
        assert!(net.adversary().is_none());
        net.set_adversary(Box::new(DelayAndMute));
        assert!(net.adversary().is_some());
        assert!(net.take_adversary().is_some());
        assert!(net.adversary().is_none());
        assert!(!net.is_attacker(NodeId::from_index(0)));
    }

    #[test]
    fn debug_impl_mentions_policy() {
        let net = build(10, 10);
        let dbg = format!("{net:?}");
        assert!(dbg.contains("bitcoin"));
        assert!(dbg.contains("nodes"));
    }
}
