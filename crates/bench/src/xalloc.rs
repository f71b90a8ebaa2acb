//! X-ALLOC — heap allocations per query run, tracked like a measurement.
//!
//! A prepared plan's run allocates an exact, repeatable amount, so the
//! serve path's most-cited perf number is a deterministic count, not a
//! wall-time reading. Each row runs one prepared plan once to warm up,
//! then counts the allocations (and bytes requested) of one more run.
//!
//! - the three x-serve plans (`crate::serving`'s workload) on the serve
//!   fixture's shape — 288 facts rows over `fat_tree(2, 8)` — on the
//!   simulator and on a 2-worker shared crew;
//! - the 32 [`strategy_matrix`] plans, each under its forced strategy,
//!   on the pinned instance `tests/plan_parity.rs` checks ledgers on.
//!
//! The counts need the process to run on [`Counting`]: the `experiments`
//! binary and the `alloc_ratchet` test install it as their
//! `#[global_allocator]`. Elsewhere every cell reads `n/a`, which no
//! ceiling accepts. `BENCH_baseline.json` stores both columns as
//! ceilings: a rise fails `--check` and the ratchet, a fall is free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tamp_query::prelude::*;
use tamp_runtime::backend::ExecBackend;
use tamp_runtime::{PooledClusterBackend, SimulatorBackend};
use tamp_topology::builders;

use crate::table::Table;

/// Forwards to the system allocator, counting while a measurement runs.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// The counters publish no other data, so `Relaxed`.
fn record(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a pair
// of atomic counter updates that neither allocate nor touch the block.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` with counting on; returns its result and the `(allocations,
/// bytes requested)` made meanwhile, by every thread of the process. The
/// same shape as the benchmark package's own counting allocator, so that
/// one can be this one.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    let after = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    (out, after.0 - before.0, after.1 - before.1)
}

/// Is [`Counting`] this process's global allocator?
fn installed() -> bool {
    count(|| drop(std::hint::black_box(Box::new(0u64)))).1 > 0
}

/// Every registered strategy name per pluggable operator, with the
/// queries exercising it: cross joins with equal sides and with the big
/// side on either hand, all four aggregate functions under every
/// aggregate strategy, sorts on a near-unique key and on a key with heavy
/// duplicates (the whole-row tie-break decides), `limit` with and without
/// a meaningful input order, and `distinct`.
pub fn strategy_matrix() -> Vec<(OperatorKind, &'static str, LogicalPlan)> {
    let facts = || LogicalPlan::scan("facts");
    let dims = || LogicalPlan::scan("dims");
    let join = facts().join_on(dims(), "g", "g");
    let mut out = Vec::new();
    for name in [
        "weighted-repartition",
        "tree-partition",
        "broadcast-small",
        "uniform-repartition",
    ] {
        out.push((OperatorKind::Join, name, join.clone()));
    }
    // Equal sides, then the big side on the left and on the right.
    for name in ["whc-grid", "broadcast-small", "uniform-hypercube"] {
        out.push((OperatorKind::CrossJoin, name, dims().cross(dims())));
        out.push((OperatorKind::CrossJoin, name, facts().cross(dims())));
        out.push((OperatorKind::CrossJoin, name, dims().cross(facts())));
    }
    for name in ["weighted-range-shuffle", "uniform-range-shuffle"] {
        out.push((OperatorKind::Sort, name, facts().order_by("x")));
        out.push((OperatorKind::Sort, name, facts().order_by("g")));
    }
    for name in [
        "weighted-repartition",
        "combining-tree",
        "uniform-repartition",
    ] {
        for agg in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            out.push((
                OperatorKind::Aggregate,
                name,
                facts().aggregate("g", agg, "x"),
            ));
        }
    }
    out.push((
        OperatorKind::Limit,
        "gather",
        facts().order_by("x").limit(7),
    ));
    out.push((OperatorKind::Limit, "gather", facts().limit(7)));
    let pairs = facts().project(vec![("g", col("g")), ("x", col("x").div(lit(64)))]);
    out.push((
        OperatorKind::Distinct,
        "weighted-repartition",
        pairs.distinct(),
    ));
    out
}

/// The instance the strategy matrix's ledgers are pinned on: 90 facts
/// rows, 60 % of them on one node of a two-rack tree, and 6 dims rows.
fn matrix_context() -> QueryContext {
    let tree = builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0);
    let facts = DistributedTable::skewed(
        "facts",
        Schema::new(vec!["id", "g", "x"]).unwrap(),
        (0..90).map(|i| vec![i, i % 6, (i * 31) % 255]).collect(),
        &tree,
        tree.compute_nodes()[0],
        0.6,
    );
    let dims = DistributedTable::round_robin(
        "dims",
        Schema::new(vec!["g", "tier"]).unwrap(),
        (0..6).map(|g| vec![g, g % 5]).collect(),
        &tree,
    );
    let mut ctx = QueryContext::new(tree).with_seed(3);
    ctx.register(facts).unwrap().register(dims).unwrap();
    ctx
}

/// The serve fixture's shape: x-serve's tables at 288 facts rows on the
/// 64-compute `fat_tree(2, 8)`.
fn serve_context() -> QueryContext {
    let tree = builders::fat_tree(2, 8, 1.0);
    let table = |name, cols, rows| {
        DistributedTable::round_robin(name, Schema::new(cols).unwrap(), rows, &tree)
    };
    let facts = (0..288).map(|i| vec![i, i % 11, (i * 29) % 1024]).collect();
    let dims = (0..11).map(|g| vec![g, 40 + g]).collect();
    let grps = (40..51).map(|t| vec![t, t % 4]).collect();
    let mut ctx = QueryContext::new(tree.clone()).with_seed(17);
    ctx.register(table("facts", vec!["id", "g", "x"], facts))
        .unwrap()
        .register(table("dims", vec!["g", "tier"], dims))
        .unwrap()
        .register(table("grps", vec!["tier", "band"], grps))
        .unwrap();
    ctx
}

/// The x-alloc experiment.
pub fn x_alloc() -> Vec<Table> {
    let mut t = Table::new(
        "X-ALLOC: heap allocations per prepared-plan run, after one warm-up",
        &["run", "allocs", "bytes"],
    )
    .ceilings(&["allocs", "bytes"]);
    let on = installed();
    let mut row = |label: String, prepared: &PreparedQuery<'_>, backend: &dyn ExecBackend| {
        prepared.run_on(backend).expect("plan runs");
        let (_, allocs, bytes) = count(|| drop(prepared.run_on(backend).expect("plan runs")));
        let cell = |n: u64| if on { n.to_string() } else { "n/a".into() };
        t.row(vec![label, cell(allocs), cell(bytes)]);
    };
    let (crew, serve, plans) = (
        PooledClusterBackend::with_shared_pool(2),
        serve_context(),
        crate::serving::workload(),
    );
    // The crew's threads start up before anything is counted.
    serve
        .prepare(&plans[0])
        .unwrap()
        .run_on(&crew)
        .expect("plan runs");
    for (i, q) in plans.iter().enumerate() {
        let prepared = serve.prepare(q).unwrap();
        row(
            format!("serving[{i}] simulator"),
            &prepared,
            &SimulatorBackend,
        );
        row(format!("serving[{i}] crew-2"), &prepared, &crew);
    }
    let base = matrix_context();
    for (i, (op, name, q)) in strategy_matrix().into_iter().enumerate() {
        let ctx = QueryContext::with_catalog(base.catalog().clone()).with_seed(3);
        let ctx = match op {
            OperatorKind::Distinct | OperatorKind::Limit => ctx,
            _ => ctx.with_strategy(op, name),
        };
        let label = format!("strategy_matrix[{i}] {op} {name}");
        row(label, &ctx.prepare(&q).unwrap(), &SimulatorBackend);
    }
    t.note(
        "Counted by the `Counting` global allocator over one run of a prepared plan \
         (every thread of the process, the crew's workers included); `n/a` when the \
         process runs on another allocator. Both columns are ceilings: the trend to \
         watch is down.",
    );
    vec![t]
}
