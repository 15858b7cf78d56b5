//! The idle network's discovery tick allocates nothing.
//!
//! Every node ticks every 100 ms whether or not anything is being relayed,
//! so a tick that changes no connection must not touch the heap. This test
//! binary installs a counting allocator (its own crate, so the library's
//! `forbid(unsafe_code)` is untouched) and holds a whole window of ticks to
//! the handful of allocations the event queue's sequence bitset makes as it
//! doubles.

use bcbpt_net::{NetConfig, Network, NodeId, RandomPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which does not allocate
// (the cell is const-initialised and has no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn ticks_of_fully_connected_nodes_do_not_allocate() {
    let mut config = NetConfig::test_scale();
    config.num_nodes = 50;
    let mut net = Network::build(config, Box::new(RandomPolicy::new()), 1).unwrap();
    // Let discovery top every node up to its outbound target; from then on
    // no tick has a free slot to fill.
    net.warmup_ms(3_000.0);
    for i in 0..50u32 {
        let node = NodeId::from_index(i);
        assert_eq!(net.links().outbound_count(node), 8, "node {node}");
    }

    let events_before = net.events_processed();
    let allocations_before = ALLOCATIONS.with(Cell::get);
    net.run_for_ms(2_000.0);
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    let ticks = net.events_processed() - events_before;

    // 50 nodes × 20 intervals, give or take the tick that sits exactly on
    // the (exclusive) horizon.
    assert!(
        (999..=1000).contains(&ticks),
        "an idle network runs discovery ticks only, saw {ticks} events"
    );
    // The queue's per-sequence-number bitset grows by doubling: 1 000 more
    // sequence numbers on top of the ~1 500 already issued is one or two
    // reallocations. Before the scratch buffer and the sized-by-count ADDR
    // accounting this window made two allocations per tick.
    assert!(
        allocations <= 4,
        "{allocations} allocations in {ticks} idle ticks"
    );
}
