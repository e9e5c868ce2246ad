//! The fabric data path's allocation budget, as a host-independent gate.
//!
//! A counting global allocator wraps the system one, so this file holds
//! exactly one test: nothing else may allocate on another thread while
//! the count is taken.
//!
//! What is counted is every heap allocation made while a built NoC steps
//! `zipf_hotspot_mesh16.scn` (16×16 mesh, eight generators, 1 200
//! four-beat transactions) to completion. Transport contributes none —
//! a packet's payload rides its head flit by move, body and tail flits
//! own no heap memory, credits wait in a ring, active sets are bitsets —
//! so what remains is the socket and NIU layers' payload handling above
//! it (≈ 8 per transaction). The budget leaves that room and no more:
//! one `to_vec` per flit anywhere on the path breaks it (the same run
//! made 26.2 allocations per transaction when flits owned their bytes).

use noc_scenario::{Backend, ScenarioSpec, StepMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations per completed transaction the run may make.
const BUDGET_PER_COMPLETION: f64 = 14.0;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed counter increment, which touches no memory
// the allocator or its callers own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn stepping_the_noc_stays_within_its_allocation_budget() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/scenarios/zipf_hotspot_mesh16.scn");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let spec = ScenarioSpec::from_text(&text).expect("corpus parses");
    let mut sim = spec
        .build(&Backend::noc())
        .expect("the NoC builds the corpus");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let drained = sim.run_until_with(10_000_000, StepMode::Horizon);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(drained, "the corpus scenario drains");
    let completions = sim.report().total_completions();
    assert_eq!(completions, 1200, "the corpus golden's completion count");
    let per_completion = allocations as f64 / completions as f64;
    assert!(
        per_completion <= BUDGET_PER_COMPLETION,
        "{allocations} heap allocations while stepping {completions} transactions = \
         {per_completion:.1} per transaction, over the budget of {BUDGET_PER_COMPLETION}: \
         something on the flit path allocates again"
    );
}
