//! The four workloads and what they share.
//!
//! Every workload is a closed loop with one client thread. One *op* is
//! one full pass over the workload's fixed cycle of calls, so every op
//! does identical work and its output can be compared, after its timer
//! stops, with a reference computed once before set-up.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use tamp_query::prelude::{LogicalPlan, QueryContext, QueryResult};
use tamp_query::reference;
use tamp_query::row::Row;
use tamp_simulator::Cost;

use crate::json::Json;
use crate::probes::Probes;
use crate::trace::Tracer;

pub mod paper_scale;
pub mod scan_join;
pub mod serve;
pub mod serve_churn;
pub mod serve_hot;

/// The exact work one op does, read from the values its calls return.
/// Identical on every op of every launch of one seed; a difference is a
/// `nondeterministic-count` failure, never averaged away.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Σ over the op's calls of the metered `Cost::tuple_cost()` — the
    /// paper's `Σ_rounds max_e |Y_i(e)| / w_e`.
    pub model_cost: f64,
    /// Metered communication rounds.
    pub rounds: u64,
    /// Directed edges with traffic, summed over the op's calls.
    pub ledger_entries: u64,
    /// BSP supersteps executed on the crew (0 on the simulator backend).
    pub supersteps: u64,
    /// Fixpoint iterations and their crew supersteps (`serve-hot` only).
    pub iterations: u64,
    pub iter_supersteps: u64,
    /// Plan-cache hits out of lookups (serve workloads only).
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

impl Counts {
    /// Fold one metered call into the op's counts.
    pub fn add_cost(&mut self, cost: &Cost, rounds: usize) {
        self.model_cost += cost.tuple_cost();
        self.rounds += rounds as u64;
        self.ledger_entries += cost.edge_totals.iter().filter(|&&t| t > 0).count() as u64;
    }

    pub fn to_json(self) -> Json {
        Json::obj()
            .set("model_cost", self.model_cost)
            .set("rounds", self.rounds)
            .set("ledger_entries", self.ledger_entries)
            .set("supersteps", self.supersteps)
            .set("iterations", self.iterations)
            .set("iter_supersteps", self.iter_supersteps)
            .set("cache_hits", self.cache_hits)
            .set("cache_lookups", self.cache_lookups)
    }
}

/// One workload's op, alive while its set-up is.
pub trait Op {
    /// Untimed preparation of the next op's own inputs (a table to
    /// register, a pristine meter).
    fn stage(&mut self) {}
    /// The op. Timed by the caller.
    fn run(&mut self, tr: &mut Tracer) -> Counts;
    /// Verify the outputs of the last [`run`](Op::run) against the
    /// reference; returns a digest of them (rows, ledgers, final states)
    /// that must repeat across ops and launches. Untimed.
    fn check(&self) -> Result<u64, String>;
}

/// A generated workload: inputs, the reference outputs, and how to set
/// the program up on them.
pub trait Workload {
    /// Milliseconds the benchmark's own seeded generator took.
    fn generate_ms(&self) -> f64;
    /// What the reference says one op counts.
    fn expected(&self) -> Counts;
    /// The program's own set-up — topology and index build, table
    /// registration, service/orchestrator/pool construction, `prepare` —
    /// then `body` with the op. The caller times from before this call
    /// to the end of the first (cold) op inside `body`.
    fn setup_then(&self, crew: usize, body: &mut dyn FnMut(&mut dyn Op));
    /// Layer probes: the lower layers' public functions called directly
    /// on this workload's inputs. Traced launch only.
    fn probes(&self, crew: usize, out: &mut Probes);
    /// Input sizes, for `result.json` and the report.
    fn sizes(&self) -> Json;
}

/// Generate `name`'s inputs from `seed` and compute its reference.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "serve-hot" => Box::new(serve_hot::ServeHot::generate(seed, smoke)),
        "serve-churn" => Box::new(serve_churn::ServeChurn::generate(seed, smoke)),
        "scan-join" => Box::new(scan_join::ScanJoin::generate(seed, smoke)),
        "paper-scale" => Box::new(paper_scale::PaperScale::generate(seed, smoke)),
        _ => return None,
    })
}

/// Digest of anything hashable; `DefaultHasher::new()` is keyed with
/// constants, so digests compare across processes.
pub fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// `Err` unless `got == want`, naming what differed.
pub fn ensure_eq<T: PartialEq>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} differs from the reference"))
    }
}

/// What one relational plan must return: the rows of the single-node
/// reference evaluator and the ledger of a serial `prepare().run()`.
pub struct PlanReference {
    pub ordered: bool,
    pub rows: Vec<Row>,
    /// Ledger and rounds of the serial run.
    pub cost: Cost,
    pub rounds: usize,
}

impl PlanReference {
    /// Reference of every plan in `plans` over `ctx`; also returns the
    /// milliseconds `reference::evaluate` took (verification cost).
    pub fn of(ctx: &QueryContext, plans: &[LogicalPlan]) -> (Vec<PlanReference>, f64) {
        let mut evaluate_ms = 0.0;
        let refs = plans
            .iter()
            .map(|q| {
                let start = Instant::now();
                let rows = reference::evaluate(q, ctx.catalog()).expect("reference evaluates");
                evaluate_ms += start.elapsed().as_secs_f64() * 1e3;
                let ordered = reference::preserves_order(q);
                let serial = ctx
                    .prepare(q)
                    .expect("plan prepares")
                    .run()
                    .expect("serial reference run");
                assert_eq!(
                    serial.rows(ordered),
                    rows,
                    "serial run disagrees with the oracle"
                );
                PlanReference {
                    ordered,
                    rows,
                    cost: serial.cost,
                    rounds: serial.rounds,
                }
            })
            .collect();
        (refs, evaluate_ms)
    }

    /// Check one result against this reference; returns its digest.
    pub fn check(&self, k: usize, got: &QueryResult) -> Result<u64, String> {
        let rows = got.rows(self.ordered);
        ensure_eq(&format!("plan {k} rows"), &rows, &self.rows)?;
        ensure_eq(
            &format!("plan {k} edge_totals"),
            &got.cost.edge_totals,
            &self.cost.edge_totals,
        )?;
        Ok(digest(&(rows, &got.cost.edge_totals)))
    }
}
