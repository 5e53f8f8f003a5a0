//! Steady-state allocation audit for the simulators' hot paths.
//!
//! A counting global allocator wraps `System`; after a warm-up phase in
//! which buffers (inbox deques, the event queue, the outgoing write
//! buffer) reach their steady-state capacities, executing further rounds
//! or events must perform **zero** heap allocations — the property the
//! fleet harness's slab stepping builds on. This lives in its own
//! integration-test binary because a `#[global_allocator]` is
//! process-wide; the count is per thread, so tests running side by side do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nonmask_protocols::diffusing::{DiffusingComputation, RED};
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use nonmask_sim::{EventConfig, EventSim, Refinement, SimConfig, Simulation};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates verbatim to `System`; the counter is a thread-local
// cell with no destructor, so counting never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_rounds_do_not_allocate() {
    // Lossy + delayed network so every RNG consumer and both queue paths
    // (deliver now, re-queue later) are exercised each round.
    let config = SimConfig {
        seed: 11,
        loss_rate: 0.2,
        max_delay: 3,
        steps_per_round: 2,
        ..SimConfig::default()
    };
    let ring = TokenRing::new(6, 6);
    let refinement = Refinement::new(ring.program()).unwrap();
    let corrupt = ring.program().state_from([5, 1, 4, 2, 3, 0]).unwrap();
    let mut sim = Simulation::new(ring.program(), refinement, corrupt, config);
    let invariant = ring.invariant();
    let mut truth = nonmask_program::State::zeroed(ring.program().var_count());

    // Warm-up: let deque/buffer capacities reach their high-water marks.
    // The inbox depth is structurally bounded (channels × max delay ×
    // writes per round), but the worst-case round pattern under random
    // loss is rare — give it time to occur.
    for _ in 0..5_000 {
        sim.round();
    }

    let before = allocations();
    for _ in 0..500 {
        sim.round();
        sim.ground_truth_into(&mut truth);
        std::hint::black_box(invariant.holds(&truth));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state rounds allocated {} times",
        after - before
    );
    assert!(sim.steps() > 0, "the ring actually stepped");
}

#[test]
fn steady_state_events_do_not_allocate() {
    // Lossy, slow network over a tree whose processes own two actions
    // each: wake-ups pick, apply, broadcast writes and heartbeat, and
    // deliveries overtake one another.
    let dc = DiffusingComputation::new(&Tree::binary(7));
    let refinement = Refinement::new(dc.program()).unwrap();
    let mut corrupt = dc.initial_state();
    corrupt.set(dc.color_var(2), RED);
    corrupt.set(dc.session_var(5), 1);
    let config = EventConfig {
        seed: 11,
        mean_latency: 3.0,
        loss_rate: 0.2,
        ..EventConfig::default()
    };
    let mut sim = EventSim::new(dc.program(), refinement, corrupt, config);
    let invariant = dc.invariant();
    let mut truth = nonmask_program::State::zeroed(dc.program().var_count());

    // Warm-up: let the event queue reach its high-water capacity.
    for _ in 0..50_000 {
        assert!(sim.step());
    }

    let steps_before = sim.steps();
    let before = allocations();
    for _ in 0..5_000 {
        assert!(sim.step());
        sim.ground_truth_into(&mut truth);
        std::hint::black_box(invariant.holds(&truth));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state events allocated {} times",
        after - before
    );
    assert!(sim.steps() > steps_before, "the tree actually stepped");
}
