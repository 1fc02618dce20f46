//! Allocation gate for plan trees: a tree holds exactly its nodes and its
//! scans' predicate lists, and cloning one (as a serve request does) costs
//! one allocation for the arena plus one per scan with predicates.
//!
//! `PhysPlan::to_plan_tree` sizes the node arena at the plan's length, a
//! node's children are inline, and a payload's table name or join
//! condition is the catalog's shared copy, so nothing else stays allocated.
//!
//! The binary installs a counting `#[global_allocator]` that tracks
//! allocations and live bytes. The counter sees every thread in the
//! process, so this file must hold exactly one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use dace_catalog::{generate_database, suite_specs};
use dace_engine::{plan, CostModel};
use dace_plan::{PlanNode, PlanTree, PredicateInfo};
use dace_query::ComplexWorkloadGen;

/// Heap allocations so far: every `alloc`, `alloc_zeroed` and `realloc`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Plans per database.
const QUERIES: usize = 100;

/// Scans of `tree` with a non-empty predicate list, and those lists' bytes.
fn predicate_lists(tree: &PlanTree) -> (u64, usize) {
    tree.ids()
        .filter_map(|id| tree.node(id).payload.as_scan())
        .filter(|s| !s.predicates.is_empty())
        .fold((0, 0), |(n, bytes), s| {
            (
                n + 1,
                bytes + s.predicates.len() * std::mem::size_of::<PredicateInfo>(),
            )
        })
}

#[test]
fn plan_trees_hold_their_nodes_and_clone_in_one_allocation_plus_predicates() {
    let cm = CostModel::default();
    let (mut trees, mut held_total, mut clone_allocs) = (0usize, 0usize, 0u64);
    for id in [2, 7] {
        let db = generate_database(&suite_specs()[id], 0.05);
        for q in ComplexWorkloadGen::default().generate(&db, QUERIES) {
            let phys = plan(&db, &q, &cm).expect("generated queries plan");

            let before = LIVE.load(Ordering::Relaxed);
            let tree = phys.to_plan_tree();
            let held = LIVE.load(Ordering::Relaxed) - before;
            let (scans_with_predicates, predicate_bytes) = predicate_lists(&tree);
            assert_eq!(tree.len(), phys.len());
            assert_eq!(
                held,
                tree.len() * std::mem::size_of::<PlanNode>() + predicate_bytes,
                "a {}-node tree holds more than its arena and predicate lists",
                tree.len()
            );

            let before = ALLOCS.load(Ordering::Relaxed);
            let copy = tree.clone();
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert!(
                allocs <= 1 + scans_with_predicates,
                "cloning a tree with {scans_with_predicates} filtered scans took {allocs} allocations"
            );
            assert_eq!(copy, tree);

            trees += 1;
            held_total += held;
            clone_allocs += allocs;
        }
    }
    // Straight to stderr, past libtest's capture, so `cargo test -q` shows
    // the measurement on a passing run too.
    let _ = writeln!(
        std::io::stderr(),
        "plan_tree_alloc: {trees} trees, {:.0} B held and {:.2} allocations per clone on average",
        held_total as f64 / trees as f64,
        clone_allocs as f64 / trees as f64
    );
}
