//! Allocation budgets — the data path's (fabric and transaction layer)
//! and the platform's (construction and forking) — as a host-independent
//! gate.
//!
//! A counting global allocator wraps the system one. It counts only on a
//! thread inside [`counted`], so what the test harness's other threads
//! allocate meanwhile never enters a row, and the count repeats exactly.
//!
//! What is counted is every heap allocation made while a built
//! interconnect steps a corpus scenario to completion, per completed
//! transaction. Transport contributes none — a packet's payload rides
//! its head flit by move, body and tail flits own no heap memory, every
//! flit the fabric holds sits in one slab that recycles its nodes,
//! credits wait in an `Arrivals` wheel, active sets are bitsets — and the
//! layers above it move the same buffer: a write's bytes are allocated
//! once by the socket master (plus once for its completion record), a
//! read's once by the memory, which stores pages, not bytes. The budgets
//! leave that room and little more: one `to_vec` per transaction at any
//! socket / NIU / codec boundary, on the NoC or in a baseline, breaks its
//! row (the NoC row made 8.1 allocations per transaction when every
//! boundary copied, 26.2 when flits owned their bytes too).
//!
//! Two more rows count something else: the allocations that *building*
//! a 1 024-switch platform and taking one *snapshot* of it make — see
//! [`PLATFORM`] — and those that *parsing* a sweep document makes — see
//! [`PARSE`].
//!
//! Who owns a snapshot's allocations. One `Simulation::snapshot` of the
//! `serve_sweep` benchmark platform (seed 1, variant 0: a 6×6 mesh, 18
//! AXI initiators with their programs, 18 memories) makes 125, counted
//! by owner with a backtrace-bucketing allocator around that one call:
//!
//! | owner | allocations |
//! |---|---|
//! | endpoint boxes: 18 initiator NIUs, 18 target NIUs | 36 |
//! | socket agents: the program (18) and the lane table (18) | 36 |
//! | ordering policies: the tag table, one per initiator NIU | 18 |
//! | NIU queues (outstanding, egress, front-end responses): empty at a checkpoint | 0 |
//! | fabric records: five arrays × two fabrics, 0 when the per-thread spare set is filled | 10 |
//! | fabric arrival wheels (flits, credits) × two fabrics | 4 |
//! | fabric injection credits × two fabrics | 2 |
//! | active sets: busy, locked, stashing × two fabrics, plus `Soc::touched` | 7 |
//! | endpoint calendar: `pending` and its wheel's buckets and nodes | 3 |
//! | `Soc` per-endpoint arrays (endpoints, initiators, settled, clock ids, node map, wake ids, done) | 7 |
//! | clock set, and the snapshot's own box | 2 |
//!
//! So 90 scale with the endpoints (five per initiator, one per target)
//! and 35 are per platform. The programless checkpoint a serve request
//! forks makes 19 fewer (no programs, and nothing filed in the calendar
//! wheel yet), and 10 fewer again once a dropped fork left its records
//! in the spare set.

use noc_scenario::{parse_document, Backend, Document, ScenarioSpec, StepMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// (corpus file, backend, heap allocations per completed transaction the
/// run may make).
type Row = (&'static str, fn() -> Backend, f64);

/// Each budget sits just above the figure measured when it was set —
/// 1.47, 2.17, 4.21 (the bridge chops bursts: one read buffer per chunk,
/// one chunk list per transaction) and 1.69; now 1.41, 1.93, 4.15 and
/// 1.63, the NoC rows lower since input FIFOs, stashes and links stopped
/// reserving a buffer each on first use.
/// The count repeats exactly from run to run, so the room is small on
/// purpose: one copy per write transaction has to show (cloning the
/// request per bus grant, as the bus once did, fails its row).
const BUDGETS: [Row; 4] = [
    ("zipf_hotspot_mesh16.scn", Backend::noc, 1.6),
    ("set_top.scn", Backend::noc, 2.3),
    ("set_top.scn", Backend::bridged, 4.4),
    ("set_top.scn", Backend::bus, 1.85),
];

/// Construction and forking of a large idle platform — the costs that
/// scale with platform size, not traffic: (corpus file, heap allocations
/// building it on the NoC may make, allocations one snapshot may make).
/// A 32x32 mesh is 1 024 switches in each of two fabrics, and a fabric is
/// a fixed number of flat arrays — switch, input-port, output-port,
/// stash and link records — plus one flit slab; wiring, routing and link
/// classes are immutable and shared, and the routing computation in
/// `noc-topology` hands over its tables as one matrix. Endpoint names and
/// the initiators' address map never change after build either, so forks
/// share them too. A snapshot is those few arrays per fabric plus a few
/// per endpoint and calendar, whatever the platform's size (measured
/// 1 173 / 75; 1 180 / 99 when every fork copied each endpoint's name
/// and each initiator's address map, 2 241 / 104 when every switch's
/// routing table was a `Vec` of its own, 6 335 / 4 208 when a switch was
/// two arrays of its own, 26 864 / 22 643 when it was eight `Vec`s).
const PLATFORM: (&str, u64, u64) = ("mesh_32x32_sparse.scn", 1_250, 80);

/// Parsing a sweep document — the corpus's six-point sweep, 506 lines:
/// (corpus file, heap allocations `parse_document` may make). The parser
/// allocates only what the returned sweep keeps — labels, names,
/// programs, arrays, point and endpoint lists — nothing per line or
/// section (measured 122; 311 when every entry was first collected into
/// one growing list, every section made a scratch array and every
/// endpoint name was copied into a set).
const PARSE: (&str, u64) = ("serve_sweep.scn", 130);

struct CountingAllocator;

thread_local! {
    /// On while this thread runs inside [`counted`]. A `const` `Cell`
    /// has no destructor and allocates nothing on first access, so the
    /// allocator may read it.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's counted allocations. Per thread, like the flag:
    /// the tests run on parallel threads, and one shared counter would
    /// add another test's counted allocations to this one's.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is inside [`counted`].
fn count() {
    if COUNTING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local flag read and a thread-local counter
// increment, which touch no memory the allocator or its callers own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn corpus_text(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/scenarios")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn corpus(file: &str) -> ScenarioSpec {
    ScenarioSpec::from_text(&corpus_text(file)).expect("corpus parses")
}

/// Runs `work` and returns its result with the heap allocations it made
/// on this thread.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.get();
    COUNTING.set(true);
    let result = work();
    COUNTING.set(false);
    (result, ALLOCATIONS.get() - before)
}

#[test]
fn stepping_stays_within_the_allocation_budget_on_every_backend() {
    for (file, backend, budget) in BUDGETS {
        let backend = backend();
        let mut sim = corpus(file)
            .build(&backend)
            .expect("the backend builds the corpus");

        let (drained, allocations) = counted(|| sim.run_until_with(10_000_000, StepMode::Horizon));

        assert!(drained, "{file} drains on {backend:?}");
        let completions = sim.report().total_completions();
        assert!(completions > 0, "{file} completes transactions");
        let per_completion = allocations as f64 / completions as f64;
        eprintln!(
            "MEASURED {file} {backend:?}: {allocations} / {completions} = {per_completion:.2}"
        );
        assert!(
            per_completion <= budget,
            "{file} on {backend:?}: {allocations} heap allocations while stepping {completions} \
             transactions = {per_completion:.2} per transaction, over the budget of {budget}: \
             a payload is copied or a queue is rebuilt per transaction again"
        );
    }

    let (file, build_budget, snapshot_budget) = PLATFORM;
    let spec = corpus(file);
    let (sim, build) = counted(|| {
        spec.build(&Backend::noc())
            .expect("the NoC builds the corpus")
    });
    let (_fork, snapshot) = counted(|| sim.snapshot());
    eprintln!("MEASURED {file} Noc: build {build}, snapshot {snapshot}");
    assert!(
        build <= build_budget,
        "{file} build on the NoC: {build} heap allocations, over the budget of {build_budget}: \
         a switch, a port, a link, a routing row or the wiring owns a small heap object of its \
         own again"
    );
    assert!(
        snapshot <= snapshot_budget,
        "{file} snapshot on the NoC: {snapshot} heap allocations, over the budget of \
         {snapshot_budget}: state that never changes after build is copied per fork, or \
         per-port or per-link state left the fabric's flat arrays"
    );
}

#[test]
fn parsing_a_sweep_allocates_what_the_sweep_keeps() {
    let (file, budget) = PARSE;
    let text = corpus_text(file);
    let (doc, parse) = counted(|| parse_document(&text));
    assert!(
        matches!(doc, Ok(Document::Sweep(_))),
        "{file} parses as a sweep"
    );
    let lines = text.lines().count();
    eprintln!("MEASURED {file} parse: {parse} for {lines} lines");
    assert!(
        parse <= budget,
        "{file}: parsing made {parse} heap allocations, over the budget of {budget}: the parser \
         copies or collects something per line, entry or section again"
    );
}
