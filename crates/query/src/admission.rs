//! Weighted-fair multi-tenant admission: the one admission gate of the
//! serving stack.
//!
//! Strict FIFO admission is fair for one population, but a single bursty
//! tenant fills the queue and every other tenant waits behind the burst.
//! The gate therefore schedules by **deficit-weighted round-robin (DRR)
//! over tenants**:
//!
//! - every tenant is declared up front as a [`TenantSpec`]: a share
//!   `weight`, a `quota` bounding its in-flight **plus** queued queries
//!   (submits beyond the quota are rejected with
//!   [`QueryError::TenantQueueFull`], not queued), and a [`Priority`]
//!   class;
//! - admission capacity is a global in-flight bound; when a slot
//!   frees, the scheduler picks the next grant by
//!   strict priority across classes and DRR within the class: each visit
//!   replenishes a tenant's deficit by its weight and grants one query
//!   per deficit unit, so over any backlogged window tenants receive
//!   service proportional to weight — and *every* backlogged tenant is
//!   visited once per rotation, which is the no-starvation guarantee;
//! - queries within one tenant stay FIFO.
//!
//! The gate belongs to a [`QueryService`](crate::service::QueryService).
//! A plain service gives it one implicit tenant (weight 1, unbounded
//! quota) — DRR over a single tenant *is* strict FIFO, so its tickets
//! are arrival-ordered; a service from
//! [`QueryService::builder`](crate::service::QueryService::builder) gets
//! a gate over the tenants it declares.
//!
//! The fairness telemetry is deliberately structural rather than
//! wall-clock: every grant records how many *other* grants happened
//! between its enqueue and its own grant (`Grant::waited_grants`,
//! surfaced per tenant as `TenantStats::max_waited_grants`). For
//! a backlogged tenant of weight `w` in a system of total weight `W`,
//! DRR bounds that number by about `W / w` per queued position — a
//! deterministic quantity the stress tests can assert exactly, where
//! wall-clock p99s would flake.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::QueryError;
use crate::lock_ok;

/// Strict priority classes: every queued query of a higher class is
/// granted before any query of a lower class is considered. Weighted
/// fairness (DRR) applies *within* a class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Served before everything else (dashboards, health probes).
    Interactive,
    /// The default class.
    #[default]
    Normal,
    /// Served only when no higher class has queued queries (backfill,
    /// report batches).
    Batch,
}

impl Priority {
    /// All classes, highest first — the scheduler's scan order.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Batch];
}

/// One tenant's admission contract: a weight, a quota and a priority
/// class (the `admission` module docs say how they interact).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Unique tenant name (the key queries are submitted under).
    pub name: String,
    /// Relative service share within the priority class (≥ 1). A
    /// weight-4 tenant gets 4 grants per DRR rotation where a weight-1
    /// tenant gets 1.
    pub weight: u32,
    /// Max in-flight + queued queries (≥ 1); submits beyond it are
    /// rejected with [`QueryError::TenantQueueFull`].
    pub(crate) quota: usize,
    /// Strict priority class.
    pub priority: Priority,
}

impl TenantSpec {
    /// A [`Priority::Normal`] tenant.
    pub fn new(name: impl Into<String>, weight: u32, quota: usize) -> Self {
        TenantSpec {
            name: name.into(),
            weight,
            quota,
            priority: Priority::Normal,
        }
    }

    /// Builder-style: set the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), QueryError> {
        if self.name.is_empty() {
            return Err(QueryError::InvalidTenantSpec("empty tenant name".into()));
        }
        if self.weight == 0 {
            return Err(QueryError::InvalidTenantSpec(format!(
                "tenant `{}` has weight 0 (need \u{2265} 1)",
                self.name
            )));
        }
        if self.quota == 0 {
            return Err(QueryError::InvalidTenantSpec(format!(
                "tenant `{}` has quota 0 (need \u{2265} 1)",
                self.name
            )));
        }
        Ok(())
    }
}

/// What [`WeightedAdmission::acquire`] returns once the query is granted:
/// its slot, released on drop even if the query errors or the serving
/// thread panics.
pub(crate) struct Grant<'a> {
    admission: &'a WeightedAdmission,
    tenant: usize,
    /// Global grant sequence number (the query's ticket).
    pub(crate) ticket: u64,
    /// Grants to *other* queries between this query's enqueue and its own
    /// grant — the structural fairness metric (see the module docs).
    pub(crate) waited_grants: u64,
    /// Wall-clock time spent queued.
    pub(crate) queued: Duration,
}

impl Drop for Grant<'_> {
    fn drop(&mut self) {
        self.admission.release(self.tenant);
    }
}

/// One tenant's scheduler state (its [`TenantSpec`] lives beside the
/// lock, in [`WeightedAdmission::specs`]).
#[derive(Default)]
struct TenantState {
    /// DRR deficit: grants this tenant may take before the cursor moves
    /// on. Replenished by `weight` when the cursor arrives with the
    /// deficit spent; reset to 0 whenever the tenant has no waiters.
    deficit: u32,
    /// Total submits accepted into the queue (assigns per-tenant seqs).
    enqueued: u64,
    /// Total grants; the waiter with seq `s` runs once `granted > s`.
    granted: u64,
    /// Currently executing queries.
    running: usize,
    /// Submits rejected at quota.
    rejected: u64,
    /// Per queued waiter (FIFO): global grant count at its enqueue.
    pending: VecDeque<u64>,
    /// seq → (global ticket, waited_grants), filled at grant time,
    /// drained by the waiter when it wakes.
    waits: HashMap<u64, (u64, u64)>,
}

impl TenantState {
    fn queued(&self) -> usize {
        (self.enqueued - self.granted) as usize
    }

    fn occupancy(&self) -> usize {
        self.queued() + self.running
    }
}

struct SchedState {
    tenants: Vec<TenantState>,
    /// Per priority class: members (indexes into `tenants`, registration
    /// order) and the DRR cursor.
    classes: [(Vec<usize>, usize); 3],
    running_total: usize,
    /// The highest `running_total` ever reached.
    running_peak: usize,
    queued_total: usize,
    grants_total: u64,
}

/// The weighted-fair admission gate (crate-internal: its one owner is a
/// [`QueryService`](crate::service::QueryService)).
pub(crate) struct WeightedAdmission {
    capacity: usize,
    /// The tenants' contracts, immutable and in declaration order — a
    /// tenant *is* its index here (see [`tenant_index`](Self::tenant_index)).
    specs: Vec<TenantSpec>,
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl WeightedAdmission {
    /// A gate admitting at most `capacity` concurrent queries across all
    /// tenants. `capacity` ≥ 1 and tenant specs are validated by the
    /// caller before this is called.
    pub(crate) fn new(capacity: usize, specs: Vec<TenantSpec>) -> Self {
        let mut classes: [(Vec<usize>, usize); 3] = Default::default();
        for (i, spec) in specs.iter().enumerate() {
            let class = Priority::ALL
                .iter()
                .position(|&p| p == spec.priority)
                .expect("every priority is in ALL");
            classes[class].0.push(i);
        }
        WeightedAdmission {
            capacity: capacity.max(1),
            state: Mutex::new(SchedState {
                tenants: specs.iter().map(|_| TenantState::default()).collect(),
                classes,
                running_total: 0,
                running_peak: 0,
                queued_total: 0,
                grants_total: 0,
            }),
            specs,
            cv: Condvar::new(),
        }
    }

    /// The one-tenant gate behind a plain `QueryService`: weight 1,
    /// unbounded quota, [`Priority::Normal`] — strict FIFO.
    pub(crate) fn single_tenant(capacity: usize) -> Self {
        WeightedAdmission::new(capacity, vec![TenantSpec::new("default", 1, usize::MAX)])
    }

    /// The declared tenants, in declaration order.
    pub(crate) fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// Resolve a tenant name to its index — once per query; every other
    /// gate call takes the index.
    pub(crate) fn tenant_index(&self, tenant: &str) -> Result<usize, QueryError> {
        self.specs
            .iter()
            .position(|s| s.name == tenant)
            .ok_or_else(|| QueryError::UnknownTenant(tenant.to_string()))
    }

    /// Block until tenant `i`'s next queued query is granted. Rejects
    /// (without queuing) when the tenant is at quota.
    pub(crate) fn acquire(&self, i: usize) -> Result<Grant<'_>, QueryError> {
        let arrived = Instant::now();
        let mut s = lock_ok(&self.state);
        let spec = &self.specs[i];
        if s.tenants[i].occupancy() >= spec.quota {
            s.tenants[i].rejected += 1;
            return Err(QueryError::TenantQueueFull {
                tenant: spec.name.clone(),
                quota: spec.quota,
            });
        }
        let seq = s.tenants[i].enqueued;
        s.tenants[i].enqueued += 1;
        let at_enqueue = s.grants_total;
        s.tenants[i].pending.push_back(at_enqueue);
        s.queued_total += 1;
        self.schedule(&mut s);
        while s.tenants[i].granted <= seq {
            s = match self.cv.wait(s) {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        let (ticket, waited_grants) = s.tenants[i]
            .waits
            .remove(&seq)
            .expect("grant recorded a wait for every seq");
        Ok(Grant {
            admission: self,
            tenant: i,
            ticket,
            waited_grants,
            queued: Instant::now().saturating_duration_since(arrived),
        })
    }

    /// Release a finished (or failed) query's slot.
    fn release(&self, i: usize) {
        let mut s = lock_ok(&self.state);
        s.tenants[i].running = s.tenants[i].running.saturating_sub(1);
        s.running_total = s.running_total.saturating_sub(1);
        self.schedule(&mut s);
    }

    /// Grant queued queries while capacity allows: strict priority across
    /// classes, DRR within a class (see the module docs). Called under
    /// the scheduler lock on every arrival and release.
    fn schedule(&self, s: &mut SchedState) {
        let mut granted_any = false;
        while s.running_total < self.capacity && s.queued_total > 0 {
            let Some(i) = self.pick(s) else { break };
            let ticket = s.grants_total;
            let t = &mut s.tenants[i];
            let seq = t.granted;
            t.granted += 1;
            t.running += 1;
            let at_enqueue = t.pending.pop_front().expect("a waiter per queued seq");
            t.waits.insert(seq, (ticket, ticket - at_enqueue));
            s.grants_total += 1;
            s.queued_total -= 1;
            s.running_total += 1;
            s.running_peak = s.running_peak.max(s.running_total);
            granted_any = true;
        }
        if granted_any {
            self.cv.notify_all();
        }
    }

    /// The DRR pick: the tenant receiving the next grant. `None` only if
    /// no tenant has waiters (callers check `queued_total` first).
    fn pick(&self, s: &mut SchedState) -> Option<usize> {
        let SchedState {
            tenants, classes, ..
        } = s;
        for (members, cursor) in classes.iter_mut() {
            if !members.iter().any(|&i| tenants[i].queued() > 0) {
                continue;
            }
            // One full rotation is guaranteed to land on a backlogged
            // member; idle members spend no deficit.
            loop {
                let at = *cursor % members.len();
                let t = &mut tenants[members[at]];
                if t.queued() == 0 {
                    // Ineligible: reset (DRR's anti-banking rule) and move
                    // on.
                    t.deficit = 0;
                    *cursor = at + 1;
                    continue;
                }
                if t.deficit == 0 {
                    t.deficit = self.specs[members[at]].weight;
                }
                t.deficit -= 1;
                if t.deficit == 0 {
                    // Quantum spent: the next pick starts at the next
                    // member.
                    *cursor = at + 1;
                }
                return Some(members[at]);
            }
        }
        None
    }

    /// The global in-flight bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queries granted so far, and the highest number ever in flight
    /// together.
    pub(crate) fn granted_and_peak(&self) -> (u64, usize) {
        let s = lock_ok(&self.state);
        (s.grants_total, s.running_peak)
    }

    /// Submits each tenant had rejected at its quota, in declaration
    /// order.
    pub(crate) fn rejected(&self) -> Vec<u64> {
        lock_ok(&self.state)
            .tenants
            .iter()
            .map(|t| t.rejected)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    impl WeightedAdmission {
        /// Total queries currently queued (tests wait on it).
        pub(crate) fn queue_depth(&self) -> usize {
            lock_ok(&self.state).queued_total
        }
    }

    #[test]
    fn specs_validate() {
        assert!(TenantSpec::new("a", 1, 1).validate().is_ok());
        for bad in [
            TenantSpec::new("", 1, 1),
            TenantSpec::new("a", 0, 1),
            TenantSpec::new("a", 1, 0),
        ] {
            assert!(matches!(
                bad.validate(),
                Err(QueryError::InvalidTenantSpec(_))
            ));
        }
    }

    #[test]
    fn unknown_tenants_and_quota_overflow_are_rejected() {
        let adm = Arc::new(WeightedAdmission::new(1, vec![TenantSpec::new("a", 1, 2)]));
        assert!(matches!(
            adm.tenant_index("nobody"),
            Err(QueryError::UnknownTenant(_))
        ));
        assert_eq!(adm.tenant_index("a").unwrap(), 0);
        // Fill the quota: 1 running + 1 queued... with capacity 1 the
        // second acquire would block, so drive it from a thread.
        let g = adm.acquire(0).unwrap();
        assert_eq!(g.ticket, 0);
        assert_eq!(g.waited_grants, 0);
        let adm2 = Arc::clone(&adm);
        let waiter = std::thread::spawn(move || adm2.acquire(0).map(|g| g.ticket));
        // Wait until the waiter is queued, then the quota (2) is full.
        while adm.queue_depth() == 0 {
            std::thread::yield_now();
        }
        let err = adm.acquire(0).err().expect("the quota is full");
        assert!(matches!(err, QueryError::TenantQueueFull { quota: 2, .. }));
        drop(g);
        assert_eq!(waiter.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn drr_shares_grants_by_weight_within_a_rotation() {
        // Two backlogged tenants, weights 3 and 1, capacity 1: grants
        // must interleave 3:1, and the weight-1 tenant's waited_grants
        // stays ≤ 3 — the structural no-starvation bound.
        let adm = Arc::new(WeightedAdmission::new(
            1,
            vec![
                TenantSpec::new("big", 3, 64),
                TenantSpec::new("small", 1, 64),
            ],
        ));
        let order = Arc::new(Mutex::new(Vec::new()));
        let queued = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for (tenant, n) in [("big", 9usize), ("small", 3usize)] {
                let ix = adm.tenant_index(tenant).unwrap();
                for _ in 0..n {
                    let (adm, order, queued) = (&adm, &order, &queued);
                    scope.spawn(move || {
                        queued.fetch_add(1, Ordering::SeqCst);
                        let g = adm.acquire(ix).unwrap();
                        order.lock().unwrap().push((tenant, g.waited_grants));
                    });
                }
            }
        });
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 12);
        for (tenant, waited) in order.iter() {
            // W = 4: a weight-1 tenant waits at most ~3 foreign grants
            // per own grant; give slack for its own earlier grants and
            // arrival racing (threads may enqueue after grants started).
            let bound = if *tenant == "small" { 9 } else { 12 };
            assert!(waited <= &bound, "{tenant} waited {waited} grants");
        }
    }

    #[test]
    fn strict_priority_preempts_lower_classes() {
        // Capacity 1; a batch query holds the slot while an interactive
        // and a batch query queue. On release, the interactive one must
        // be granted first despite arriving later.
        let adm = Arc::new(WeightedAdmission::new(
            1,
            vec![
                TenantSpec::new("fg", 1, 8).with_priority(Priority::Interactive),
                TenantSpec::new("bg", 8, 8).with_priority(Priority::Batch),
            ],
        ));
        let (fg_ix, bg_ix) = (0, 1);
        let hold = adm.acquire(bg_ix).unwrap();
        let adm_bg = Arc::clone(&adm);
        let bg = std::thread::spawn(move || {
            let g = adm_bg.acquire(bg_ix).unwrap();
            (g.ticket, std::time::Instant::now())
        });
        while adm.queue_depth() < 1 {
            std::thread::yield_now();
        }
        let adm_fg = Arc::clone(&adm);
        let fg = std::thread::spawn(move || {
            let g = adm_fg.acquire(fg_ix).unwrap();
            (g.ticket, std::time::Instant::now())
        });
        while adm.queue_depth() < 2 {
            std::thread::yield_now();
        }
        drop(hold); // frees the slot: fg must win it
        let (fg_ticket, fg_at) = fg.join().unwrap();
        let (bg_ticket, bg_at) = bg.join().unwrap();
        assert!(fg_ticket < bg_ticket, "interactive granted first");
        assert!(fg_at <= bg_at);
    }
}
