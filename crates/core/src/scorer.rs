//! Fast per-(task, machine) robustness scoring with *incremental* machine-
//! tail caching and a per-machine parallel fan-out.
//!
//! A mapping event evaluates every batch task against every machine. The
//! naive approach performs a full Eq. 3–4 convolution per pair; this module
//! exploits that PAM/MOC only need two scalars per pair:
//!
//! * **robustness** `Σ_{u<δ} A(u) · CDF_E(δ − u)` — the deadline CDF of the
//!   (deadline-truncated) convolution, computable directly from the
//!   machine-tail availability `A` and a prefix-sum CDF of the PET cell
//!   `E` without materializing the convolution;
//! * **expected completion** `Σ_{u<δ} A(u)·(u + E[E]) / Σ_{u<δ} A(u)` —
//!   the mean of the truncated convolution, again in closed form.
//!
//! Both are *exact* (they equal [`hcsim_pmf::queue_step`]'s outputs, minus
//! the compaction error that full convolution would introduce; a unit test
//! asserts the equivalence).
//!
//! # Incremental tail maintenance
//!
//! The machine-tail availability is the only convolution work left, and it
//! is maintained *incrementally* across mapping events rather than rebuilt
//! from `Pmf::delta(now)` at every version bump. Each machine's
//! [`MachineCache`] holds two layers:
//!
//! 1. a **conditioned head** — the executing task's residual-execution
//!    availability (or `delta(now)` on an idle machine). The residual
//!    lives in absolute time, so it only changes when the task's elapsed
//!    time crosses a PET impulse: a clock advance inside one impulse gap
//!    keeps the head, and with it the whole chain, bit for bit. Two binary
//!    searches decide that (`chain::head_survives_clock`). An idle head,
//!    an overrun head (all PET mass at or below `elapsed`), or a crossed
//!    impulse is recomputed at the new `now`;
//! 2. a **pending chain** — one availability PMF per pending queue entry,
//!    chained by [`hcsim_pmf::queue_step_into`]. On a queue mutation the
//!    cache matches the *longest common prefix* of the cached entry
//!    signatures `(task id, progress)` against the live queue and
//!    reconvolves only the suffix: appending a task (the mapper's
//!    assignment loop) costs one `queue_step`; dropping a mid-queue task
//!    (the pruner) reuses everything ahead of it. Eviction, preemption, a
//!    warm-set change, or a head that moved with the clock fall back to a
//!    full rebuild.
//!
//! Each cell also carries a **chain revision** that changes exactly when
//! its head or a link was rebuilt with a different result. [`ScoreTable`]
//! keys its columns on it, which is what lets a table survive a clock
//! advance: a column whose chain kept its revision needs no rescoring.
//!
//! Because the incremental path replays exactly the operations a
//! from-scratch [`analyze_queue`] would perform — in the same order, with
//! the same compaction budget — cached tails are bit-identical to
//! from-scratch analysis (a replay proptest in `tests/` asserts this).
//! All intermediate storage is drawn from a per-machine [`ConvScratch`]
//! pool, so the steady-state scoring loop allocates nothing per
//! (task, machine) pair.
//!
//! # Parallel per-machine fan-out
//!
//! Each [`MachineCache`] is a self-contained mutable cell: its chain, its
//! slot statistics, its column scratch, *and* its convolution scratch
//! pool. That is what lets [`ScoreTable::rebuild`] and
//! [`ProbScorer::warm_caches`] fan the per-machine work out across worker
//! threads with no locking contention: every worker owns a disjoint set of
//! machine cells, and results merge in machine-index order. Because every
//! per-machine computation is deterministic in the machine's state alone
//! (the replay-equivalence invariant above), the fan-out is
//! **bit-identical** to sequential evaluation at any thread count —
//! `threads` is purely a performance knob. Small fan-outs fall back to a
//! single thread (see [`PARALLEL_MIN_MACHINES`]) so fan-out overhead never
//! lands on the small-cluster hot path.
//!
//! Two fan-out engines exist, selected by [`FanoutBackend`] via
//! [`ProbScorer::set_parallelism`]:
//!
//! * **scoped** ([`hcsim_parallel::parallel_for_each_mut`]) — threads are
//!   spawned and joined inside every fan-out, borrowing the cells. Simple,
//!   but pays ~7–15 µs of spawn tax per thread per fan-out, several times
//!   per event.
//! * **pool** ([`hcsim_parallel::WorkerPool`], the default at cluster
//!   scale) — the machine cells *move into* a persistent pool whose
//!   workers own one shard each for the lifetime of the scorer; a fan-out
//!   becomes a request/response round over channels. Per-round inputs
//!   (machine snapshots, the live window rows) cross the channel as
//!   pooled `Arc` buffers, so the steady state stays allocation-free.
//!   Between rounds the scorer reaches individual cells through the
//!   pool's shared handle ([`hcsim_parallel::WorkerPool::with_cell`]),
//!   which is what keeps single-machine requests — a column refresh after
//!   an assignment, a pruner slot query after a drop — at direct-call
//!   cost instead of a channel round-trip.

use crate::chain::{analyze_queue_cold, PetTables, QueueAnalysis};
use crate::tables::{PetCdf, SpecTables};
use hcsim_model::{MachineId, PetMatrix, SystemSpec, Task, TaskId, TaskTypeId, Time};
use hcsim_parallel::{parallel_for_each_mut, FanoutBackend, WorkerPool};
use hcsim_pmf::{queue_step_into, ConvScratch, DropPolicy, Pmf};
use hcsim_sim::MachineState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Minimum number of active per-machine jobs before a fan-out actually
/// goes parallel (and minimum cluster size before the worker pool is
/// built). Below this the fan-out overhead (channel round-trips for the
/// pool, tens of microseconds of spawns for scoped threads) exceeds the
/// work itself on paper-sized clusters (8 machines), so the fan-out
/// degenerates to the sequential path — which produces bit-identical
/// results by construction.
pub const PARALLEL_MIN_MACHINES: usize = 16;

/// Machines per [`ScoreTable`] shard. The table's bound pass works on
/// shard-level *envelope* bounds first and only descends into shards that
/// can clear the caller's threshold, so per-row bound work is
/// O(machines / width) instead of O(machines) for the (dominant, under
/// oversubscription) provably-deferred rows. Deliberately independent of
/// the thread count: shard boundaries affect only which *aggregates* are
/// consulted, never any exact score, so results stay bit-identical across
/// thread counts and backends — but a deterministic width also keeps the
/// aggregate layout itself reproducible. 32 puts a 1024-machine cluster
/// at 32 shards (bound sweep and phase-2 reduction both 32× narrower)
/// while an 8-machine paper system degenerates to a single shard.
pub const TABLE_SHARD_WIDTH: usize = 32;

/// The two scalars phase 1/2 of the probabilistic heuristics consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairScore {
    /// Eq. 1 robustness of appending the task to the machine's queue.
    pub robustness: f64,
    /// Expected completion time given the task starts (infinite when it
    /// can never start before its deadline).
    pub expected_completion: f64,
    /// Expected execution time of the task on this machine (the paper's
    /// tie-breaker).
    pub mean_exec: f64,
}

/// Per-slot robustness/skewness of a queued task — the pruner's view of a
/// machine queue, served from the incremental cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotScore {
    /// The task occupying the slot.
    pub task: Task,
    /// Queue position κ: 0 is the executing task (or the first pending
    /// task on an idle-but-nonempty queue snapshot).
    pub position: usize,
    /// Eq. 1 robustness of completing by the deadline.
    pub robustness: f64,
    /// Eq. 6 bounded skewness of the completion PMF (0 when the task can
    /// never start).
    pub skewness: f64,
}

/// Identity of one pending queue entry, as far as the chain math cares:
/// the task id pins (type, deadline); `progress` pins the residual PET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingSig {
    id: TaskId,
    progress: Time,
}

/// One machine's cached availability chain (see module docs).
#[derive(Debug, Default)]
struct TailCache {
    valid: bool,
    /// Machine version the cache reflects.
    version: u64,
    /// Warm-container revision the cache reflects
    /// ([`MachineState::warm_rev`]). The head-reuse path deliberately
    /// ignores `version` (a queue append bumps it without invalidating the
    /// prefix), but a warm-set change *does* re-select PET cells for the
    /// whole chain — this separate key forces the rebuild. Constant 0 in
    /// the classic model, so the check never fires there.
    warm_rev: u64,
    /// Event time the cache was last brought up to date at. The head may
    /// have been computed at an earlier tick and carried forward, which
    /// is exact because the carry only happens while the head survives
    /// the clock (see module docs).
    now: Time,
    /// Chain revision: a fresh [`next_chain_rev`] value whenever the head
    /// or a link changes, untouched when `ensure` keeps or reproduces the
    /// chain bit for bit. [`ScoreTable`] compares it to decide whether a
    /// column must be rescored.
    rev: u64,
    /// Executing-task identity: `(id, started_at, progress_before)`.
    /// Together with `now` this fully determines the conditioned head.
    exec_sig: Option<(TaskId, Time, Time)>,
    /// Signatures of the pending entries the chain was built over.
    pending_sig: Vec<PendingSig>,
    /// Layer 1: availability after the executing task (or `delta(now)`);
    /// `None` only before the first build.
    head: Option<Pmf>,
    /// Layer 2: availability after each pending entry; the machine tail is
    /// `links.last()` (or `head` when no tasks are pending).
    links: Vec<Pmf>,
    /// Per-slot robustness/skewness, head first — the pruner's view.
    slots: Vec<SlotScore>,
    /// True when every slot's skewness is populated. Skewness is only
    /// needed by the pruner and costs a moment pass over the *uncompacted*
    /// completion PMF, so tail/score extensions skip it (leaving NaN
    /// placeholders) and [`ProbScorer::slot_scores`] rebuilds in stats
    /// mode on demand.
    stats_valid: bool,
}

impl TailCache {
    /// Only called after `ensure`, which always populates the head.
    fn tail(&self) -> &Pmf {
        self.links.last().or(self.head.as_ref()).expect("cache built before query")
    }
}

/// Issues chain revisions ([`TailCache::rev`]). One process-wide counter,
/// so a revision names a single chain build across every cell and scorer:
/// a cell that starts over (released, or re-created after an abandoned
/// pool) can never reissue a revision a [`ScoreTable`] recorded earlier.
/// Revisions are only ever compared for equality, so the values a
/// parallel fan-out draws never influence a result.
fn next_chain_rev() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One machine's independently-borrowable scoring cell: the incremental
/// tail cache, the convolution scratch pool that feeds it, and a column
/// scratch the pooled fan-out fills in place. Workers in a fan-out own one
/// cell each; nothing is shared mutably across cells.
#[derive(Debug, Default)]
struct MachineCache {
    cache: TailCache,
    /// Convolution scratch + PMF storage pool private to this machine.
    scratch: ConvScratch,
    /// Score-column scratch for pooled [`ScoreTable::rebuild`] rounds:
    /// workers cannot write into the caller-owned table, so they fill this
    /// and the caller swaps it into the table column in machine-index
    /// order (buffers recycle across events through the same swap).
    col: Vec<Option<PairScore>>,
}

impl MachineCache {
    /// Drops the cached chain — the machine left the cluster. Every PMF is
    /// recycled into the cell's own scratch pool, so a later re-join
    /// rebuilds from the free-list instead of the allocator; the cell
    /// itself (and its shard slot in a pooled store) stays put, which is
    /// what keeps surviving machines' warmth intact across membership
    /// changes.
    fn release(&mut self) {
        let Self { cache, scratch, .. } = self;
        for link in cache.links.drain(..) {
            scratch.recycle(link);
        }
        if let Some(head) = cache.head.take() {
            scratch.recycle(head);
        }
        cache.pending_sig.clear();
        cache.slots.clear();
        cache.exec_sig = None;
        cache.valid = false;
        cache.stats_valid = false;
    }

    /// Brings the cache up to date against `machine` at event time `now`
    /// (see module docs for the incremental strategy). `want_stats`
    /// additionally guarantees every slot's skewness is populated,
    /// rebuilding the chain in stats mode when a previous stats-free
    /// extension left placeholders.
    fn ensure(
        &mut self,
        tables: &SpecTables,
        policy: DropPolicy,
        now: Time,
        machine: &MachineState,
        want_stats: bool,
    ) {
        let (pets, budget) = (tables.pets(), tables.budget());
        let Self { cache, scratch, .. } = self;
        if cache.valid
            && cache.version == machine.version()
            && cache.now == now
            && (!want_stats || cache.stats_valid)
        {
            return;
        }

        let executing = machine.executing();
        let exec_sig = executing.map(|e| (e.task.id, e.started_at, e.progress_before));
        // The cached head is still exact when the executing task and the
        // warm set are unchanged and the clock either stood still or moved
        // without the head noticing (an idle head is `delta(now)`, so it
        // always notices).
        let head_same = cache.valid
            && cache.exec_sig == exec_sig
            && cache.warm_rev == machine.warm_rev()
            && (cache.now == now
                || executing.is_some_and(|e| {
                    crate::chain::head_survives_clock(
                        e,
                        pets.for_exec(e),
                        machine.id(),
                        cache.now,
                        now,
                    )
                }));
        let lcp = if head_same {
            machine
                .pending_entries()
                .zip(cache.pending_sig.iter())
                .take_while(|(e, s)| e.task.id == s.id && e.progress == s.progress)
                .count()
        } else {
            0
        };
        // A stats rebuild below replays the same operations on the same
        // inputs, so the chain only changes when the head or the pending
        // signatures do.
        let chain_same =
            head_same && lcp == cache.pending_sig.len() && lcp == machine.pending_entries().len();
        if head_same && (!want_stats || cache.stats_valid) {
            // Layer 2 prefix reuse: keep every chain link up to the first
            // divergence between the cached and live pending queues.
            for link in cache.links.drain(lcp..) {
                scratch.recycle(link);
            }
            cache.pending_sig.truncate(lcp);
            cache.slots.truncate(usize::from(exec_sig.is_some()) + lcp);
        } else {
            // Full rebuild: recompute the conditioned head at `now`.
            for link in cache.links.drain(..) {
                scratch.recycle(link);
            }
            cache.pending_sig.clear();
            cache.slots.clear();
            if let Some(old) = cache.head.take() {
                scratch.recycle(old);
            }
            if let Some(exec) = executing {
                // Shared head pipeline (`chain::conditioned_head`) keeps
                // this bit-identical to from-scratch analysis.
                let (mut completion, robustness, skewness) = crate::chain::conditioned_head(
                    exec,
                    pets.for_exec(exec),
                    machine.id(),
                    now,
                    budget,
                    scratch,
                );
                if policy == DropPolicy::All {
                    // Eq. 5: the executing task is evicted at its deadline,
                    // so the machine is free no later than δ.
                    completion.clamp_above(exec.task.deadline);
                }
                cache.slots.push(SlotScore { task: exec.task, position: 0, robustness, skewness });
                cache.head = Some(completion);
            } else {
                cache.head = Some(Pmf::delta(now));
            }
            cache.exec_sig = exec_sig;
            cache.stats_valid = true;
        }

        // Extend the chain over the (new) pending suffix, via the shared
        // `chain::chain_extension` step. The Eq. 6 moment pass over the
        // uncompacted completion is the single most expensive part of an
        // append; only the pruner reads it, so stats-free callers skip it
        // (leaving the NaN placeholder `stats_valid` tracks).
        for (idx, entry) in machine.pending_entries().enumerate().skip(cache.pending_sig.len()) {
            let avail = cache.links.last().or(cache.head.as_ref()).expect("head built above");
            let (mut step, skewness) = crate::chain::chain_extension(
                avail,
                entry,
                pets.for_pending(machine, idx, entry),
                machine.id(),
                policy,
                budget,
                want_stats,
                scratch,
            );
            if !want_stats {
                cache.stats_valid = false;
            }
            if let Some(c) = step.completion.take() {
                scratch.recycle(c);
            }
            cache.slots.push(SlotScore {
                task: entry.task,
                position: cache.slots.len(),
                robustness: step.robustness.min(1.0),
                skewness,
            });
            cache.pending_sig.push(PendingSig { id: entry.task.id, progress: entry.progress });
            cache.links.push(step.availability);
        }

        if !chain_same {
            cache.rev = next_chain_rev();
        }
        cache.valid = true;
        cache.version = machine.version();
        cache.warm_rev = machine.warm_rev();
        cache.now = now;
    }
}

/// Where the per-machine cells live: locally in the scorer (sequential and
/// scoped fan-outs borrow them), or moved into a persistent
/// [`WorkerPool`] whose workers own one shard each (pooled fan-outs are
/// request/response rounds; between rounds the scorer reaches cells
/// through the pool's shared handle).
#[derive(Debug)]
enum CellStore {
    Local(Vec<MachineCache>),
    Pooled(WorkerPool<MachineCache>),
}

impl CellStore {
    /// Runs `f` against cell `i` on the calling thread — the single-cell
    /// request path (scores, tail/slot queries, column refreshes).
    fn with<R>(&mut self, i: usize, f: impl FnOnce(&mut MachineCache) -> R) -> R {
        match self {
            CellStore::Local(cells) => f(&mut cells[i]),
            CellStore::Pooled(pool) => pool.with_cell(i, f),
        }
    }
}

/// Which machines a warm-up fan-out touches. A tiny `Copy` enum (rather
/// than a closure) so the pooled round can ship the filter to `'static`
/// workers.
#[derive(Debug, Clone, Copy)]
enum WarmFilter {
    /// Machines with at least one queued task (the pruner's view).
    Occupied,
    /// Machines that can accept an assignment (the score table's view).
    FreeSlot,
}

impl WarmFilter {
    fn admits(self, machine: &MachineState) -> bool {
        match self {
            WarmFilter::Occupied => machine.occupancy() > 0,
            WarmFilter::FreeSlot => machine.has_free_slot(),
        }
    }
}

/// Shard-grouped live window rows shipped to pooled column rounds:
/// one `(row index, task)` list per shard, shared with workers as an
/// `Arc` and reclaimed via `Arc::get_mut` after the round.
type SharedLiveRows = Arc<Vec<Vec<(usize, Task)>>>;

/// Robustness/expected-completion scorer with incremental tail caching.
#[derive(Debug)]
pub struct ProbScorer {
    /// The spec-derived tables (PETs, prefix and envelope CDFs),
    /// `Arc`-shared with pool workers and, via [`ProbScorer::for_spec`],
    /// with every other scorer on the same spec.
    tables: Arc<SpecTables>,
    /// The drop policy the chains and scores model.
    policy: DropPolicy,
    /// Current event clock (set by [`ProbScorer::begin_event`]).
    now: Time,
    /// Resolved fan-out width (set by [`ProbScorer::set_parallelism`]).
    threads: usize,
    /// Last cluster-membership epoch synchronized
    /// ([`ProbScorer::sync_membership`]); `None` until the first sync.
    membership_epoch: Option<u64>,
    /// Schedulable machines as of the last sync — what gates the worker
    /// pool (the fan-out should track the *live* cluster, not the machine
    /// universe).
    schedulable: usize,
    /// Per-machine incremental availability chains, index-aligned with
    /// machine ids.
    cells: CellStore,
    /// Scratch for scorer-level (machine-independent) operations:
    /// hypothetical appends and their recycling.
    hypo_scratch: ConvScratch,
    /// Pooled-round input buffers, reclaimed via `Arc::get_mut` once the
    /// workers drop their clones at the end of each round.
    snapshot: Option<Arc<Vec<MachineState>>>,
    live_shared: Option<SharedLiveRows>,
    /// Copy-out buffers for single-cell queries in pooled mode (borrows
    /// cannot escape a cell lock).
    slots_buf: Vec<SlotScore>,
    tail_buf: Pmf,
}

impl ProbScorer {
    /// Builds a scorer for `pet` under `policy`, compacting intermediate
    /// availability PMFs to `budget` impulses. The tables are built for
    /// this scorer alone; [`ProbScorer::for_spec`] is the shared path.
    #[must_use]
    pub fn new(pet: &PetMatrix, policy: DropPolicy, budget: usize) -> Self {
        Self::with_cold(pet, None, policy, budget)
    }

    /// Builds a scorer for a full system spec: cold-start-aware when the
    /// spec carries a [`hcsim_model::ColdStartModel`], identical to
    /// [`ProbScorer::new`] otherwise. The tables — cold PET, prefix CDFs,
    /// shard envelopes — are built once per spec and budget and shared
    /// by every scorer on the spec or a clone of it (see
    /// [`SpecTables::for_spec`]), so only the first mapper pays for them.
    #[must_use]
    pub fn for_spec(spec: &SystemSpec, policy: DropPolicy, budget: usize) -> Self {
        Self::from_tables(SpecTables::for_spec(spec, budget), policy)
    }

    /// [`ProbScorer::new`] with an explicit cold-placement PET (same
    /// dimensions as `pet`; see [`hcsim_model::ColdStartModel::cold_pet`]).
    /// Queue chains and append scores then select the warm or cold cell
    /// per position via the [`PetTables`] warmth rules. Both PETs are
    /// kept by `Arc`, not copied; the tables are not memoized.
    ///
    /// # Panics
    ///
    /// Panics when `cold`'s dimensions disagree with `pet`'s.
    #[must_use]
    pub fn with_cold(
        pet: &PetMatrix,
        cold: Option<&PetMatrix>,
        policy: DropPolicy,
        budget: usize,
    ) -> Self {
        Self::from_tables(Arc::new(SpecTables::build(pet, cold, budget)), policy)
    }

    fn from_tables(tables: Arc<SpecTables>, policy: DropPolicy) -> Self {
        let machines = tables.machines();
        Self {
            tables,
            policy,
            now: 0,
            threads: 1,
            membership_epoch: None,
            schedulable: machines,
            cells: CellStore::Local((0..machines).map(|_| MachineCache::default()).collect()),
            hypo_scratch: ConvScratch::new(),
            snapshot: None,
            live_shared: None,
            slots_buf: Vec::new(),
            tail_buf: Pmf::delta(0),
        }
    }

    /// The spec-derived tables this scorer scores against (shared with
    /// every scorer [`ProbScorer::for_spec`] built from the same spec).
    #[must_use]
    pub fn tables(&self) -> &Arc<SpecTables> {
        &self.tables
    }

    /// The drop policy the scorer models.
    #[must_use]
    pub fn policy(&self) -> DropPolicy {
        self.policy
    }

    /// Starts a new mapping event at `now`. Caches are *not* discarded:
    /// validity is re-checked lazily when a machine is next queried. An
    /// event at the same timestamp (a same-instant arrival burst) keeps
    /// every chain; after a clock advance a chain is kept too unless its
    /// head moved with the clock (an idle machine, an overrun task, or an
    /// executing task whose elapsed time crossed a PET impulse), and only
    /// the machines actually queried are rebuilt.
    pub fn begin_event(&mut self, now: Time) {
        self.now = now;
    }

    /// Configures the fan-out engine: `threads` workers (resolved — pass
    /// the output of [`crate::effective_threads`]) on the given `backend`.
    /// With [`FanoutBackend::Pool`] (or `Auto`) and a cluster large enough
    /// to fan out at all, the machine cells move into a persistent
    /// [`WorkerPool`] — built once, reused for every event, re-sharded
    /// only if the knobs change. Scoped/sequential configurations keep (or
    /// move back to) local cells. Idempotent and cheap when nothing
    /// changed, so mappers call it every event.
    pub fn set_parallelism(&mut self, threads: usize, backend: FanoutBackend) {
        let threads = threads.max(1);
        self.threads = threads;
        // Gate on the *schedulable* machine count (the live cluster after
        // churn, synced by [`ProbScorer::sync_membership`]; the full
        // machine universe for a static cluster), so a cluster that
        // shrinks below the fan-out floor dissolves its pool and one that
        // grows back re-builds it.
        let live = self.schedulable;
        let resolved = hcsim_parallel::resolve_backend(backend);
        let want_stealing = resolved == FanoutBackend::Stealing;
        let want_pool = matches!(resolved, FanoutBackend::Pool | FanoutBackend::Stealing)
            && threads > 1
            && live >= PARALLEL_MIN_MACHINES;
        let pool_threads = threads.clamp(1, live.max(1));
        let needs_change = match &self.cells {
            CellStore::Local(_) => want_pool,
            CellStore::Pooled(pool) => {
                !want_pool || pool.threads() != pool_threads || pool.stealing() != want_stealing
            }
        };
        if !needs_change {
            return;
        }
        self.cells = match std::mem::replace(&mut self.cells, CellStore::Local(Vec::new())) {
            // Pooled → pooled with a different width or round mode: the
            // membership-epoch re-shard (or a backend flip between owned
            // and stealing rounds). Cells move intact, so surviving
            // machines keep their cached chains.
            CellStore::Pooled(pool) if want_pool => {
                // Built with the clamped count so the `needs_change`
                // compare above is structural, not a coincidence of
                // matching clamps.
                CellStore::Pooled(WorkerPool::with_mode(
                    pool.into_cells(),
                    pool_threads,
                    want_stealing,
                ))
            }
            CellStore::Pooled(pool) => CellStore::Local(pool.into_cells()),
            CellStore::Local(cells) if want_pool => {
                CellStore::Pooled(WorkerPool::with_mode(cells, pool_threads, want_stealing))
            }
            local => local,
        };
    }

    /// Synchronizes the scorer with the cluster's membership epoch (see
    /// [`hcsim_sim::MapContext::membership_epoch`]). A no-op while the
    /// epoch is unchanged — the per-event steady state costs one compare.
    /// On a new epoch:
    ///
    /// * the schedulable-machine count that gates the worker pool is
    ///   refreshed (the next [`ProbScorer::set_parallelism`] call then
    ///   re-shards via [`WorkerPool::reshard`] if the clamp moved —
    ///   surviving machines' cells migrate with their cache warmth);
    /// * machines that left the cluster with empty queues have their
    ///   cached availability chains released back into their cells'
    ///   scratch pools (a re-join starts from a fresh, empty queue anyway,
    ///   and the version bump of the join would invalidate the chain —
    ///   releasing eagerly just returns the memory).
    ///
    /// Purely a resource-management hook: results are bit-identical with
    /// or without it, because cache validity is keyed on machine versions,
    /// which every lifecycle transition bumps.
    pub fn sync_membership(&mut self, epoch: u64, machines: &[MachineState]) {
        if self.membership_epoch == Some(epoch) {
            return;
        }
        self.membership_epoch = Some(epoch);
        debug_assert_machine_alignment(machines);
        self.schedulable = machines.iter().filter(|m| m.is_schedulable()).count();
        for (i, machine) in machines.iter().enumerate() {
            if !machine.is_schedulable() && machine.occupancy() == 0 {
                self.cells.with(i, MachineCache::release);
            }
        }
    }

    /// Schedulable machines as of the last membership sync (diagnostics).
    #[must_use]
    pub fn schedulable_machines(&self) -> usize {
        self.schedulable
    }

    /// Revision of `machine`'s cached availability chain, as of its last
    /// query (diagnostics/tests). It changes exactly when a query rebuilt
    /// the conditioned head or a pending link with a different result, so
    /// an unchanged revision across a clock advance means the chain was
    /// carried over intact.
    pub fn chain_revision(&mut self, machine: MachineId) -> u64 {
        self.cells.with(machine.index(), |cell| cell.cache.rev)
    }

    /// True when the machine cells currently live in a persistent worker
    /// pool (diagnostics/tests).
    #[must_use]
    pub fn pool_active(&self) -> bool {
        matches!(self.cells, CellStore::Pooled(_))
    }

    /// Drains and joins the worker pool (if one is active) within
    /// `timeout`, moving the machine cells back to local storage. Returns
    /// `false` when a wedged worker forced the pool to be abandoned — the
    /// cells are then rebuilt empty, which is decision-neutral (caches are
    /// a pure accelerator) but loses their warmth. Idempotent; a scorer
    /// with local cells returns `true` immediately.
    pub fn shutdown(&mut self, timeout: std::time::Duration) -> bool {
        match std::mem::replace(&mut self.cells, CellStore::Local(Vec::new())) {
            CellStore::Local(cells) => {
                self.cells = CellStore::Local(cells);
                true
            }
            CellStore::Pooled(mut pool) => {
                if pool.shutdown(timeout) {
                    self.cells = CellStore::Local(pool.into_cells());
                    true
                } else {
                    // Workers still hold the shared cells; start over with
                    // cold caches rather than blocking on the wedged pool.
                    let machines = self.tables.machines();
                    self.cells =
                        CellStore::Local((0..machines).map(|_| MachineCache::default()).collect());
                    false
                }
            }
        }
    }

    /// Full queue analysis built from scratch — the reference
    /// implementation the incremental cache is verified against, and the
    /// source of per-slot completion PMFs when a caller needs more than
    /// [`SlotScore`] scalars.
    #[must_use]
    pub fn analyze(&self, machine: &MachineState, now: Time) -> QueueAnalysis {
        analyze_queue_cold(machine, self.pets(), now, self.policy, self.tables.budget())
    }

    /// The warm/cold PET pair every queue chain selects its cells from
    /// (cold side absent in the classic model).
    #[must_use]
    pub fn pets(&self) -> PetTables<'_> {
        self.tables.pets()
    }

    /// The machine's tail availability PMF, maintained incrementally.
    pub fn tail(&mut self, machine: &MachineState) -> &Pmf {
        let i = machine.id().index();
        let Self { tables, policy, now, cells, tail_buf, .. } = self;
        match cells {
            CellStore::Local(cells) => {
                let cell = &mut cells[i];
                cell.ensure(tables, *policy, *now, machine, false);
                cell.cache.tail()
            }
            CellStore::Pooled(pool) => {
                pool.with_cell(i, |cell| {
                    cell.ensure(tables, *policy, *now, machine, false);
                    tail_buf.clone_from(cell.cache.tail());
                });
                tail_buf
            }
        }
    }

    /// Clones the machine's tail into `out`, reusing `out`'s buffers —
    /// the single-copy path for callers that need an *owned* tail (MOC's
    /// permutation phase): in pooled mode a borrow cannot escape the cell
    /// lock, so [`ProbScorer::tail`] + `clone()` would copy twice.
    pub fn tail_into(&mut self, machine: &MachineState, out: &mut Pmf) {
        let Self { tables, policy, now, cells, .. } = self;
        cells.with(machine.id().index(), |cell| {
            cell.ensure(tables, *policy, *now, machine, false);
            out.clone_from(cell.cache.tail());
        });
    }

    /// Per-slot robustness/skewness for every queued task (head first) —
    /// what the pruner's dropping pass consumes. Served from the
    /// incremental cache, so re-evaluating a queue after a mid-queue drop
    /// reconvolves only the suffix behind the removed task.
    pub fn slot_scores(&mut self, machine: &MachineState) -> &[SlotScore] {
        let i = machine.id().index();
        let Self { tables, policy, now, cells, slots_buf, .. } = self;
        match cells {
            CellStore::Local(cells) => {
                let cell = &mut cells[i];
                cell.ensure(tables, *policy, *now, machine, true);
                &cell.cache.slots
            }
            CellStore::Pooled(pool) => {
                pool.with_cell(i, |cell| {
                    cell.ensure(tables, *policy, *now, machine, true);
                    slots_buf.clone_from(&cell.cache.slots);
                });
                slots_buf
            }
        }
    }

    /// Scores appending `task` to `machine`'s queue. A machine with an
    /// announced departure scores against `min(δ, departs_at)` — the
    /// churn-aware bias that steers phase 2 away from soon-to-leave
    /// machines (see `effective_deadline`).
    pub fn score(&mut self, machine: &MachineState, task: &Task) -> PairScore {
        let Self { tables, policy, now, cells, .. } = self;
        let deadline = effective_deadline(task.deadline, machine.announced_departure());
        cells.with(machine.id().index(), |cell| {
            cell.ensure(tables, *policy, *now, machine, false);
            score_against(
                cell.cache.tail(),
                tables.cdf_for(task.type_id, machine),
                deadline,
                *policy,
            )
        })
    }

    /// Scores `task` against an explicit tail (used by MOC's permutation
    /// phase, which evaluates hypothetical assignments).
    ///
    /// Always scores against the *warm* PET cell: the hypothetical tail
    /// carries no machine-warmth context. Under a cold-start model this
    /// overestimates the robustness of what would be a cold placement — an
    /// accepted approximation for the permutation/preemption probes that
    /// use this path (the serverless scenario maps with PAM, whose phases
    /// all go through the warmth-aware [`ProbScorer::score`] and
    /// [`ScoreTable`] paths).
    #[must_use]
    pub fn score_against_tail(
        &self,
        tail: &Pmf,
        tt: TaskTypeId,
        m: MachineId,
        deadline: Time,
    ) -> PairScore {
        score_against(tail, self.tables.cdf(tt, m), deadline, self.policy)
    }

    /// Availability after hypothetically appending a task with execution
    /// PMF `exec` and `deadline` behind `tail`, compacted to the scorer's
    /// budget. Storage is drawn from the scorer's pool; hand the result
    /// back via [`ProbScorer::recycle`] to keep the loop allocation-free.
    pub fn append_availability(&mut self, tail: &Pmf, exec: &Pmf, deadline: Time) -> Pmf {
        let mut step = queue_step_into(tail, exec, deadline, self.policy, &mut self.hypo_scratch);
        step.availability.compact(self.tables.budget());
        if let Some(c) = step.completion {
            self.hypo_scratch.recycle(c);
        }
        step.availability
    }

    /// Returns a PMF obtained from this scorer to its storage pool.
    pub fn recycle(&mut self, pmf: Pmf) {
        self.hypo_scratch.recycle(pmf);
    }

    /// Brings every occupied machine's cache up to date in one fan-out —
    /// the pruner calls this with `want_stats` before its sequential
    /// dropping walk so the expensive chain/statistics work runs across
    /// cores while the drop *decisions* stay in machine-index order.
    ///
    /// Results are bit-identical at any `threads`/backend (each cell's
    /// update is deterministic in the machine state alone); fan-outs
    /// smaller than [`PARALLEL_MIN_MACHINES`] run sequentially.
    pub fn warm_caches(&mut self, machines: &[MachineState], want_stats: bool) {
        debug_assert_machine_alignment(machines);
        let eligible = machines.iter().filter(|m| m.occupancy() > 0).count();
        let parallel = eligible >= PARALLEL_MIN_MACHINES;
        self.warm(machines, WarmFilter::Occupied, want_stats, parallel);
    }

    /// One warm-up fan-out over the machines `filter` admits: a pool round
    /// in pooled mode, a scoped fan-out over the filtered cells otherwise;
    /// `parallel = false` forces the sequential path on the calling
    /// thread.
    fn warm(
        &mut self,
        machines: &[MachineState],
        filter: WarmFilter,
        want_stats: bool,
        parallel: bool,
    ) {
        let Self { tables, policy, now, threads, cells, snapshot, .. } = self;
        let (policy, now) = (*policy, *now);
        match cells {
            CellStore::Pooled(pool) if parallel => {
                let snap = share_snapshot(snapshot, machines);
                let tables = Arc::clone(tables);
                pool.run(move |i, cell| {
                    let machine = &snap[i];
                    if filter.admits(machine) {
                        cell.ensure(&tables, policy, now, machine, want_stats);
                    }
                });
            }
            CellStore::Pooled(pool) => {
                for (i, machine) in machines.iter().enumerate() {
                    if filter.admits(machine) {
                        pool.with_cell(i, |cell| {
                            cell.ensure(tables, policy, now, machine, want_stats)
                        });
                    }
                }
            }
            CellStore::Local(cells) => {
                let threads = if parallel { *threads } else { 1 };
                struct WarmJob<'a> {
                    cell: &'a mut MachineCache,
                    machine: &'a MachineState,
                }
                let mut jobs: Vec<WarmJob<'_>> = cells
                    .iter_mut()
                    .zip(machines)
                    .filter(|(_, machine)| filter.admits(machine))
                    .map(|(cell, machine)| WarmJob { cell, machine })
                    .collect();
                let tables: &SpecTables = tables;
                parallel_for_each_mut(&mut jobs, threads, |_, job| {
                    job.cell.ensure(tables, policy, now, job.machine, want_stats);
                });
            }
        }
    }

    /// Fan-out 2 of [`ScoreTable::rebuild`]: scores the bound-surviving
    /// rows against the free machines of the shards they survived in —
    /// `live_by_shard[s]` lists the `(row, task)` pairs live in shard `s`,
    /// and machine `m` scores exactly `live_by_shard[m / width]` — one
    /// column per machine, merged into `cols` in machine-index order.
    fn fill_columns(
        &mut self,
        machines: &[MachineState],
        live_by_shard: &[Vec<(usize, Task)>],
        rows: usize,
        cols: &mut [Vec<Option<PairScore>>],
        parallel: bool,
    ) {
        let Self { tables, policy, threads, cells, snapshot, live_shared, .. } = self;
        let policy = *policy;
        match cells {
            CellStore::Pooled(pool) if parallel => {
                let snap = share_snapshot(snapshot, machines);
                let live = share_live(live_shared, live_by_shard);
                let tables = Arc::clone(tables);
                pool.run(move |i, cell| {
                    let machine = &snap[i];
                    let MachineCache { cache, col, .. } = cell;
                    col.clear();
                    col.resize(rows, None);
                    if !machine.has_free_slot() {
                        return;
                    }
                    let live = &live[i / TABLE_SHARD_WIDTH];
                    score_column_scatter(cache.tail(), &tables, policy, machine, live, col);
                });
                // Index-ordered merge: swap each worker-filled column into
                // the table (and recycle the table's old buffer as the
                // cell's next scratch).
                for (i, col) in cols.iter_mut().enumerate() {
                    pool.with_cell(i, |cell| std::mem::swap(col, &mut cell.col));
                }
            }
            CellStore::Pooled(pool) => {
                for ((i, machine), col) in machines.iter().enumerate().zip(cols.iter_mut()) {
                    col.clear();
                    col.resize(rows, None);
                    if !machine.has_free_slot() {
                        continue;
                    }
                    let live = &live_by_shard[i / TABLE_SHARD_WIDTH];
                    pool.with_cell(i, |cell| {
                        score_column_scatter(cell.cache.tail(), tables, policy, machine, live, col);
                    });
                }
            }
            CellStore::Local(cells) => {
                let threads = if parallel { *threads } else { 1 };
                struct ColJob<'a> {
                    cell: &'a mut MachineCache,
                    machine: &'a MachineState,
                    col: &'a mut Vec<Option<PairScore>>,
                }
                let mut jobs: Vec<ColJob<'_>> = cells
                    .iter_mut()
                    .zip(machines)
                    .zip(cols.iter_mut())
                    .map(|((cell, machine), col)| ColJob { cell, machine, col })
                    .collect();
                let tables: &SpecTables = tables;
                parallel_for_each_mut(&mut jobs, threads, |_, job| {
                    job.col.clear();
                    job.col.resize(rows, None);
                    if !job.machine.has_free_slot() {
                        return;
                    }
                    let live = &live_by_shard[job.machine.id().index() / TABLE_SHARD_WIDTH];
                    score_column_scatter(
                        job.cell.cache.tail(),
                        tables,
                        policy,
                        job.machine,
                        live,
                        job.col,
                    );
                });
            }
        }
    }

    /// Ensures a free `machine`'s cell and returns its tail's earliest
    /// start and its chain revision — the per-machine probe [`ScoreTable`]
    /// keeps its bound scalars and reuse keys current with. A machine
    /// without a free slot is never scored, so it reports `(None, 0)`
    /// without touching its cell.
    fn probe_chain(&mut self, machine: &MachineState) -> (Option<Time>, u64) {
        if !machine.has_free_slot() {
            return (None, 0);
        }
        let Self { tables, policy, now, cells, .. } = self;
        cells.with(machine.id().index(), |cell| {
            cell.ensure(tables, *policy, *now, machine, false);
            (Some(cell.cache.tail().min_time()), cell.cache.rev)
        })
    }
}

/// Clones `machines` into the reusable `Arc` snapshot buffer a pooled
/// round ships to its `'static` workers. Workers drop their `Arc` clones
/// before acknowledging the round, so `Arc::get_mut` reclaims the buffer
/// — and `MachineState::clone_from` the per-machine queue buffers — every
/// time after the first.
///
/// The update is **version-delta**: a buffered machine whose
/// `(id, version)` already matches the live one is skipped entirely —
/// `MachineState::version()` bumps on every mutation, and the whole
/// incremental-cache layer already keys on it, so an equal version means
/// identical content. In particular the second round of a
/// [`ScoreTable::rebuild`] (machines untouched since the warm round)
/// costs a scalar compare per machine, not a re-clone.
fn share_snapshot(
    slot: &mut Option<Arc<Vec<MachineState>>>,
    machines: &[MachineState],
) -> Arc<Vec<MachineState>> {
    let mut arc = slot.take().unwrap_or_else(|| Arc::new(Vec::new()));
    match Arc::get_mut(&mut arc) {
        Some(buf) => {
            buf.truncate(machines.len());
            let filled = buf.len();
            for (dst, src) in buf.iter_mut().zip(machines) {
                if dst.id() != src.id() || dst.version() != src.version() {
                    dst.clone_from(src);
                }
            }
            buf.extend(machines[filled..].iter().cloned());
        }
        None => arc = Arc::new(machines.to_vec()),
    }
    *slot = Some(Arc::clone(&arc));
    arc
}

/// Same reuse pattern for the per-shard live window rows of a column
/// round (inner buffers keep their capacity across events).
fn share_live(
    slot: &mut Option<SharedLiveRows>,
    live_by_shard: &[Vec<(usize, Task)>],
) -> SharedLiveRows {
    let mut arc = slot.take().unwrap_or_else(|| Arc::new(Vec::new()));
    match Arc::get_mut(&mut arc) {
        Some(buf) => {
            buf.resize_with(live_by_shard.len(), Vec::new);
            for (dst, src) in buf.iter_mut().zip(live_by_shard) {
                dst.clear();
                dst.extend_from_slice(src);
            }
        }
        None => arc = Arc::new(live_by_shard.to_vec()),
    }
    *slot = Some(Arc::clone(&arc));
    arc
}

/// Slop added to the robustness upper bound before comparing it against a
/// skip threshold. The analytic bound `Σ p_u · cdf(δ−u) ≤ cdf(δ−u_min)`
/// can be violated by float rounding only by ~`n·ulp` (≤ 1e-13 for any
/// realistic tail) plus the tail's normalization epsilon (1e-9), so a
/// 1e-8 margin makes the skip decision *provably* agree with the exact
/// comparison.
const BOUND_MARGIN: f64 = 1e-8;

/// The (window task × machine) score matrix PAM and MOC reduce over,
/// maintained *hierarchically* and *incrementally* — within a mapping
/// event and, when nothing invalidates it, across mapping events: the
/// events of a same-instant arrival burst and later ticks alike.
///
/// Layout is machine-major (one contiguous column per machine), grouped
/// into contiguous `TABLE_SHARD_WIDTH`-machine shards, which is what
/// makes both the bound pass and the phase-2 reduction cheap at cluster
/// scale:
///
/// * [`ScoreTable::rebuild`] — on the first event, after a membership
///   change or threshold drift, or when most chains moved with the
///   clock — ensures every free machine's tail cache in a per-machine
///   fan-out (a worker-pool round at cluster scale), then scores the
///   surviving (row, shard) pairs in a second fan-out (columns are
///   disjoint cells, merged in machine-index order);
/// * between the two fan-outs, a **hierarchical bound pass** proves most
///   window rows deferred without scoring them — and most shards of the
///   remaining rows irrelevant without touching their machines. The
///   robustness of (task, machine) is at most `CDF_E(δ − tail.min_time())`
///   (every startable impulse has at least that much slack, and the tail
///   carries at most unit mass); per shard, the *envelope* CDF (pointwise
///   max over members, precomputed once) evaluated at the shard's
///   earliest free start dominates every member's individual bound. A
///   shard whose envelope bound stays below the caller's skip threshold
///   is skipped whole; a row dead in *every* shard is deferred without
///   scoring anything. Per-row bound work is O(shards), not O(machines).
///   `BOUND_MARGIN` absorbs float slop, so skip decisions *provably*
///   agree with exact scoring: a skipped machine's exact robustness is
///   strictly below the threshold, so its score could only ever lose the
///   reduction to deferral anyway. (The shard test is conservative — an
///   envelope can clear the threshold when no member does — so surviving
///   shards are scored *exactly*; extra `Some` entries below the
///   threshold never change a decision, because the reductions defer/cull
///   on the exact value.)
/// * each shard also caches its **per-row best candidate**
///   (first-wins under the exact comparison), so
///   [`ScoreTable::best_for_row`] reduces over O(shards) precomputed
///   winners instead of scanning O(machines) columns. Shards are
///   contiguous index ranges, so the grouped first-wins reduction picks
///   exactly the machine a flat ascending scan would.
/// * between assignments, only the *assigned* machine's column (and its
///   shard's aggregates) change ([`ScoreTable::refresh_machine`]), plus
///   one appended row when a new batch task slides into the window
///   ([`ScoreTable::push_row`]). Every other pair keeps its previously
///   computed score — which is exactly the value a from-scratch rescore
///   would produce, because pair scores are deterministic in
///   (machine state, task) alone. Within one event machines only fill up
///   and bounds only tighten, so a skipped row can never need
///   resurrection mid-event.
/// * across events, [`ScoreTable::ensure`] revalidates the table against
///   `(membership epoch, machine versions, chain revisions, window)`
///   instead of rebuilding: only machines whose version moved
///   (completions, pruner drops) or whose chain moved with the clock are
///   rescored, rows whose bounds those machines *loosened* are resurrected
///   shard-by-shard, and the window diff is applied as removals +
///   appended rows. Pair scores depend on the tail, the PET CDF and the
///   deadline, never on `now` itself, so a column whose chain kept its
///   revision across a clock advance is still exact. Every surviving
///   entry is byte-identical to what a fresh rebuild would compute, so a
///   reused event costs O(changed), not O(machines).
///
/// The sequential heuristics used to rescore the full window × machines
/// product on every loop iteration; under oversubscription — where the
/// batch is dominated by tasks that will be deferred again — the table
/// turns that into a cheap per-shard bound sweep plus O(live) exact
/// work, without changing a single mapping decision.
#[derive(Debug, Default)]
pub struct ScoreTable {
    /// One column per machine; `cols[m][i]` scores window task `i` on
    /// machine `m` (`None`: no free slot, or (row, shard) skipped by the
    /// bound pass).
    cols: Vec<Vec<Option<PairScore>>>,
    /// Row-aligned: false when the bound pass proved the row deferred.
    scored: Vec<bool>,
    /// Row-aligned: which shards the row survived the bound pass in
    /// (inner length = shards). Entries only flip dead → live, and only
    /// in [`ScoreTable::ensure`] when a changed machine loosened a bound.
    shard_live: Vec<Vec<bool>>,
    /// Recycled `shard_live` lanes (keeps row churn allocation-free).
    spare_lanes: Vec<Vec<bool>>,
    /// Per shard, per row: the shard's best candidate under the exact
    /// first-wins comparison (`None`: no scored member).
    shard_best: Vec<Vec<Option<(usize, PairScore)>>>,
    /// Scratch: `(row, task)` pairs live in one shard (column refreshes).
    live: Vec<(usize, Task)>,
    /// Scratch: per-shard `(row, task)` lists for the rebuild fan-out.
    live_by_shard: Vec<Vec<(usize, Task)>>,
    /// Earliest tail impulse per free machine (`None`: no free slot),
    /// kept current by refresh/ensure for the shard bounds.
    tail_mins: Vec<Option<Time>>,
    /// Per shard: min over members of `tail_mins` (`None`: no free
    /// member).
    shard_earliest: Vec<Option<Time>>,
    /// Reuse signature: `(now, membership epoch)` the table was last
    /// brought up to date at, and per machine the version and chain
    /// revision its column was scored against (revision 0 for a machine
    /// without a free slot), plus the window tasks as last scored.
    sig: Option<(Time, Option<u64>)>,
    versions: Vec<u64>,
    revs: Vec<u64>,
    row_tasks: Vec<Task>,
    /// Set by [`ScoreTable::invalidate`] when the caller's thresholds
    /// drifted (PAMF sufferage): the next ensure falls back to rebuild.
    stale: bool,
    /// Ensure scratch: indices/mask of changed machines, dirty shards,
    /// resurrected `(row, shard)` pairs, and the surviving-row mask of
    /// the window reconciliation.
    changed: Vec<usize>,
    changed_mask: Vec<bool>,
    dirty_shards: Vec<bool>,
    newly_live: Vec<(usize, usize)>,
    keep: Vec<bool>,
}

/// Keeps the elements of `v` whose `keep` flag is set (index-aligned).
fn retain_flagged<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    v.retain(|_| *flags.next().expect("one flag per element"));
}

/// Machine-index range of shard `s` in a `machines`-wide cluster.
#[inline]
pub(crate) fn shard_range(s: usize, machines: usize) -> std::ops::Range<usize> {
    let start = s * TABLE_SHARD_WIDTH;
    start..(start + TABLE_SHARD_WIDTH).min(machines)
}

/// The exact phase-1 comparison: higher robustness, tie → lower expected
/// completion. Strictly-better, so first-wins scans keep the lowest
/// index among equals — the sequential heuristics' order.
#[inline]
fn better_pair(score: &PairScore, best: &PairScore) -> bool {
    score.robustness > best.robustness
        || (score.robustness == best.robustness
            && score.expected_completion < best.expected_completion)
}

/// First-wins best over shard `s`'s scored entries for `row`.
fn shard_best_entry(
    cols: &[Vec<Option<PairScore>>],
    s: usize,
    row: usize,
) -> Option<(usize, PairScore)> {
    let mut best: Option<(usize, PairScore)> = None;
    for m in shard_range(s, cols.len()) {
        let Some(score) = cols[m][row] else { continue };
        if best.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
            best = Some((m, score));
        }
    }
    best
}

/// [`shard_best_entry`] restricted to machines that currently have a free
/// slot — the fallback when a cached shard best went stale-full.
fn shard_best_live(
    cols: &[Vec<Option<PairScore>>],
    s: usize,
    row: usize,
    machines: &[MachineState],
) -> Option<(usize, PairScore)> {
    let mut best: Option<(usize, PairScore)> = None;
    for m in shard_range(s, cols.len()) {
        if !machines[m].has_free_slot() {
            continue;
        }
        let Some(score) = cols[m][row] else { continue };
        if best.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
            best = Some((m, score));
        }
    }
    best
}

impl ScoreTable {
    /// An empty table; [`ScoreTable::rebuild`] sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of window tasks currently tracked.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.scored.len()
    }

    /// Recomputes the whole table for `tasks` (the batch window) against
    /// every machine, fanning the per-machine work out on the scorer's
    /// configured engine ([`ProbScorer::set_parallelism`]). `skip_below`
    /// gives, per task type, the robustness threshold under which the
    /// caller's reduction would defer/cull the task anyway — (row, shard)
    /// pairs whose envelope bound proves that are left unscored. Machines
    /// without a free slot get an all-`None` column. Bit-identical at any
    /// thread count and on every backend.
    pub fn rebuild(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        skip_below: &dyn Fn(TaskTypeId) -> f64,
    ) {
        debug_assert_machine_alignment(machines);
        self.cols.resize_with(machines.len(), Vec::new);
        let free = machines.iter().filter(|m| m.has_free_slot()).count();
        let parallel = free >= PARALLEL_MIN_MACHINES;
        let shards = scorer.tables.shards();

        // Fan-out 1: bring every free machine's availability chain up to
        // date (the convolution-heavy part), then gather the bound
        // scalars and fold them into per-shard earliest starts.
        scorer.warm(machines, WarmFilter::FreeSlot, false, parallel);
        self.tail_mins.clear();
        self.revs.clear();
        for machine in machines {
            let (tail_min, rev) = scorer.probe_chain(machine);
            self.tail_mins.push(tail_min);
            self.revs.push(rev);
        }
        self.shard_earliest.clear();
        self.shard_earliest.resize(shards, None);
        for (m, &tm) in self.tail_mins.iter().enumerate() {
            if let Some(t) = tm {
                let e = &mut self.shard_earliest[m / TABLE_SHARD_WIDTH];
                *e = Some(e.map_or(t, |cur| cur.min(t)));
            }
        }

        // Hierarchical bound pass: per row, one envelope probe per shard;
        // only surviving (row, shard) pairs reach the scoring fan-out.
        self.scored.clear();
        self.spare_lanes.append(&mut self.shard_live);
        self.live_by_shard.resize_with(shards, Vec::new);
        for lane in &mut self.live_by_shard {
            lane.clear();
        }
        for (row, task) in tasks.iter().enumerate() {
            let threshold = skip_below(task.type_id);
            let mut lanes = self.spare_lanes.pop().unwrap_or_default();
            lanes.clear();
            lanes.resize(shards, false);
            let mut any = false;
            for (s, lane) in lanes.iter_mut().enumerate() {
                let Some(earliest) = self.shard_earliest[s] else { continue };
                let env = scorer.tables.shard_cdf(task.type_id, s);
                if robustness_bound(earliest, env, task.deadline) + BOUND_MARGIN >= threshold {
                    *lane = true;
                    any = true;
                    self.live_by_shard[s].push((row, *task));
                }
            }
            self.scored.push(any);
            self.shard_live.push(lanes);
        }

        // Fan-out 2: exact scores for the surviving (row, shard) pairs,
        // one column per machine.
        scorer.fill_columns(machines, &self.live_by_shard, tasks.len(), &mut self.cols, parallel);

        // Per-shard phase-1 reduction: cache each shard's best candidate
        // per live row, so best_for_row touches O(shards) entries.
        self.shard_best.resize_with(shards, Vec::new);
        for (s, bests) in self.shard_best.iter_mut().enumerate() {
            bests.clear();
            bests.resize(tasks.len(), None);
            for &(row, _) in &self.live_by_shard[s] {
                bests[row] = shard_best_entry(&self.cols, s, row);
            }
        }

        // Reuse signature (the revisions were gathered with the bound
        // scalars above).
        self.versions.clear();
        self.versions.extend(machines.iter().map(MachineState::version));
        self.row_tasks.clear();
        self.row_tasks.extend_from_slice(tasks);
        self.sig = Some((scorer.now, scorer.membership_epoch));
        self.stale = false;
    }

    /// Marks the table unusable for reuse: the next
    /// [`ScoreTable::ensure`] rebuilds from scratch. Callers whose skip
    /// thresholds drift between events (PAMF sufferage) must invalidate,
    /// because resurrection only rechecks bounds that a *machine* change
    /// loosened — a *threshold* change would go unnoticed.
    pub fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Revalidates the table for a new mapping event instead of
    /// rebuilding. Under the membership epoch of the last rebuild, only
    /// changed machines are rescored: those whose version moved
    /// (completions, pruner drops, assignments) and, after a clock
    /// advance, those whose chain revision moved (a head that crossed a
    /// PET impulse, an idle head re-anchored at the new `now`). Rows whose
    /// bounds those machines loosened are resurrected, and the window diff
    /// is applied as removals plus appended rows. Falls back to
    /// [`ScoreTable::rebuild`] on a new epoch, after
    /// [`ScoreTable::invalidate`], or when the clock moved and more than
    /// half of the machines changed (idle heads move every tick, and the
    /// rebuild's fan-out beats rescoring them column by column). Returns
    /// `true` when the table was reused incrementally.
    ///
    /// Every entry after `ensure` that a fresh rebuild would also score
    /// is byte-identical to the rebuilt value (pair scores are
    /// deterministic in the machine's tail, its PET CDF selection and the
    /// deadline — all keyed by version and chain revision — and never read
    /// `now` itself); entries `ensure` keeps that a rebuild would have
    /// bound-skipped are exact scores strictly below the caller's
    /// threshold, which the reductions defer/cull identically. Decisions
    /// are therefore unchanged — only the work is.
    pub fn ensure(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        skip_below: &dyn Fn(TaskTypeId) -> f64,
    ) -> bool {
        let shards = scorer.tables.shards();
        let last_now = match self.sig {
            Some((last_now, epoch))
                if !self.stale
                    && epoch == scorer.membership_epoch
                    && self.versions.len() == machines.len()
                    && self.shard_earliest.len() == shards =>
            {
                last_now
            }
            _ => {
                self.rebuild(scorer, machines, tasks, skip_below);
                return false;
            }
        };
        debug_assert_machine_alignment(machines);
        let clock_moved = last_now != scorer.now;

        // Phase 1: find changed machines and refresh their bound scalars.
        // Within one tick a chain only moves with its machine's version.
        // After a clock advance, a version change or an idle free machine
        // (its head is `delta(now)`) is a change for sure — when those
        // alone are a majority, rebuild without touching a cell. Otherwise
        // one pass brings every free chain to the new clock and the loop
        // below reads the revisions. The pass stays on the calling thread:
        // most chains only take the cheap survival check, and a pool round
        // for that costs more than the few rebuilt chains save.
        let mostly_moved = |changed: usize| 2 * changed > machines.len();
        if clock_moved {
            let sure = machines
                .iter()
                .zip(&self.versions)
                .filter(|&(m, &v)| {
                    m.version() != v || (m.has_free_slot() && m.executing().is_none())
                })
                .count();
            if mostly_moved(sure) {
                self.rebuild(scorer, machines, tasks, skip_below);
                return false;
            }
            scorer.warm(machines, WarmFilter::FreeSlot, false, false);
        }
        self.changed.clear();
        self.changed_mask.clear();
        self.changed_mask.resize(machines.len(), false);
        for (m, machine) in machines.iter().enumerate() {
            let version_moved = self.versions[m] != machine.version();
            if !version_moved && !clock_moved {
                continue;
            }
            let (tail_min, rev) = scorer.probe_chain(machine);
            if version_moved || self.revs[m] != rev {
                self.versions[m] = machine.version();
                self.revs[m] = rev;
                self.tail_mins[m] = tail_min;
                self.changed.push(m);
                self.changed_mask[m] = true;
            }
        }
        if clock_moved && mostly_moved(self.changed.len()) {
            self.rebuild(scorer, machines, tasks, skip_below);
            return false;
        }
        self.sig = Some((scorer.now, scorer.membership_epoch));
        let kept = self.retain_window(tasks);
        self.dirty_shards.clear();
        self.dirty_shards.resize(shards, false);
        for &m in &self.changed {
            self.dirty_shards[m / TABLE_SHARD_WIDTH] = true;
        }
        for s in 0..shards {
            if self.dirty_shards[s] {
                self.recompute_shard_earliest(s);
            }
        }

        // Phase 2: resurrection. Only a changed machine can have loosened
        // a bound (a completion or drop shortens a queue), and only
        // within its own shard — so rechecking the dirty shards of every
        // row restores exactly the liveness a fresh bound pass would
        // compute (unchanged shards kept their bounds; live shards stay
        // live, which at worst over-scores — see above).
        self.newly_live.clear();
        for row in 0..self.scored.len() {
            let task = self.row_tasks[row];
            let threshold = skip_below(task.type_id);
            for s in 0..shards {
                if !self.dirty_shards[s] || self.shard_live[row][s] {
                    continue;
                }
                let Some(earliest) = self.shard_earliest[s] else { continue };
                let env = scorer.tables.shard_cdf(task.type_id, s);
                if robustness_bound(earliest, env, task.deadline) + BOUND_MARGIN >= threshold {
                    self.shard_live[row][s] = true;
                    self.scored[row] = true;
                    self.newly_live.push((row, s));
                }
            }
        }

        // Phase 3: rescore the changed machines' columns (rows live in
        // their shard — including the just-resurrected ones), then score
        // resurrected (row, shard) pairs on the shard's unchanged free
        // machines.
        for i in 0..self.changed.len() {
            let m = self.changed[i];
            self.rescore_column(scorer, machines, m);
        }
        for i in 0..self.newly_live.len() {
            let (row, s) = self.newly_live[i];
            let task = self.row_tasks[row];
            for m in shard_range(s, machines.len()) {
                if self.changed_mask[m] || !machines[m].has_free_slot() {
                    continue;
                }
                self.cols[m][row] = Some(scorer.score(&machines[m], &task));
            }
        }

        // Phase 4: refresh the shard-best caches once per dirty shard
        // (resurrected pairs only ever sit in dirty shards).
        for s in 0..shards {
            if !self.dirty_shards[s] {
                continue;
            }
            for row in 0..self.scored.len() {
                if self.shard_live[row][s] {
                    self.shard_best[s][row] = shard_best_entry(&self.cols, s, row);
                }
            }
        }

        // Phase 5: append the tasks that slid into the window.
        for task in &tasks[kept..] {
            self.push_row(scorer, machines, task, skip_below);
        }
        true
    }

    /// Reconciles the rows with the new window `tasks` in one pass over
    /// every row-aligned buffer and returns how many rows survived. The
    /// new window is the old one minus departed tasks (assigned last
    /// event, expired since) plus a slid-in suffix: rows are matched
    /// against `tasks` in order, and the first task without a matching
    /// row ends the match — it and every later task are the suffix the
    /// caller appends. Any weirder diff degenerates to remove-all +
    /// push-all: slower, still exact.
    fn retain_window(&mut self, tasks: &[Task]) -> usize {
        let rows = self.rows();
        self.keep.clear();
        self.keep.resize(rows, false);
        let (mut row, mut kept) = (0, 0);
        for task in tasks {
            while row < rows && self.row_tasks[row].id != task.id {
                row += 1;
            }
            if row == rows {
                break;
            }
            self.keep[row] = true;
            row += 1;
            kept += 1;
        }
        if kept == rows {
            return kept;
        }
        let keep = &self.keep;
        for col in &mut self.cols {
            retain_flagged(col, keep);
        }
        for bests in &mut self.shard_best {
            retain_flagged(bests, keep);
        }
        retain_flagged(&mut self.scored, keep);
        retain_flagged(&mut self.row_tasks, keep);
        let mut flags = keep.iter();
        let spare = &mut self.spare_lanes;
        self.shard_live.retain_mut(|lanes| {
            let k = *flags.next().expect("one flag per row");
            if !k {
                spare.push(std::mem::take(lanes));
            }
            k
        });
        kept
    }

    /// Recomputes `shard_earliest[s]` from its members' `tail_mins`.
    fn recompute_shard_earliest(&mut self, s: usize) {
        self.shard_earliest[s] =
            self.tail_mins[shard_range(s, self.tail_mins.len())].iter().flatten().copied().min();
    }

    /// Rescores machine `m`'s column for the rows live in its shard (or
    /// clears it when the machine has no free slot). Bound scalars and
    /// shard aggregates are the caller's responsibility.
    fn rescore_column(&mut self, scorer: &mut ProbScorer, machines: &[MachineState], m: usize) {
        let machine = &machines[m];
        let rows = self.scored.len();
        if !machine.has_free_slot() {
            let col = &mut self.cols[m];
            col.clear();
            col.resize(rows, None);
            return;
        }
        let s = m / TABLE_SHARD_WIDTH;
        self.live.clear();
        for (row, task) in self.row_tasks.iter().enumerate() {
            if self.shard_live[row][s] {
                self.live.push((row, *task));
            }
        }
        let col = &mut self.cols[m];
        col.clear();
        col.resize(rows, None);
        let live = &self.live;
        let ProbScorer { tables, policy, now, cells, .. } = scorer;
        cells.with(m, |cell| {
            cell.ensure(tables, *policy, *now, machine, false);
            score_column_scatter(cell.cache.tail(), tables, *policy, machine, live, col);
        });
    }

    /// Drops window row `row` (its task was assigned or left the batch).
    pub fn remove_row(&mut self, row: usize) {
        for col in &mut self.cols {
            col.remove(row);
        }
        self.scored.remove(row);
        let lanes = self.shard_live.remove(row);
        self.spare_lanes.push(lanes);
        for bests in &mut self.shard_best {
            bests.remove(row);
        }
        if row < self.row_tasks.len() {
            self.row_tasks.remove(row);
        }
    }

    /// Appends a row for `task` (a batch task that slid into the window):
    /// shard-bound-checked against the cached earliest starts, then
    /// scored on the free machines of its surviving shards.
    ///
    /// The cached starts can be stale only for machines assigned to since
    /// their last refresh — whose queues *grew* — so a stale bound is
    /// only ever looser than the live one: liveness is a superset of a
    /// fresh bound pass, never a subset, and the extra entries are exact
    /// scores below the threshold (deferred either way).
    pub fn push_row(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        task: &Task,
        skip_below: &dyn Fn(TaskTypeId) -> f64,
    ) {
        let shards = self.shard_earliest.len();
        let threshold = skip_below(task.type_id);
        let mut lanes = self.spare_lanes.pop().unwrap_or_default();
        lanes.clear();
        lanes.resize(shards, false);
        let mut any = false;
        for (s, lane) in lanes.iter_mut().enumerate() {
            let Some(earliest) = self.shard_earliest[s] else { continue };
            let env = scorer.tables.shard_cdf(task.type_id, s);
            if robustness_bound(earliest, env, task.deadline) + BOUND_MARGIN >= threshold {
                *lane = true;
                any = true;
            }
        }
        let row = self.scored.len();
        self.scored.push(any);
        for (m, (machine, col)) in machines.iter().zip(&mut self.cols).enumerate() {
            let value = (lanes[m / TABLE_SHARD_WIDTH] && machine.has_free_slot())
                .then(|| scorer.score(machine, task));
            col.push(value);
        }
        for (s, bests) in self.shard_best.iter_mut().enumerate() {
            let entry = if lanes[s] { shard_best_entry(&self.cols, s, row) } else { None };
            bests.push(entry);
        }
        self.shard_live.push(lanes);
        self.row_tasks.push(*task);
    }

    /// Rescores machine `m`'s column against the current window `tasks`
    /// (its queue changed) — a single-cell request to wherever the cell
    /// lives, plus an update of the shard's aggregates. A machine that
    /// filled up gets an all-`None` column; within one mapping event
    /// machines never go full → free and skipped (row, shard) pairs never
    /// resurrect (their bound only tightens), so stale entries cannot
    /// resurface.
    pub fn refresh_machine(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        m: usize,
    ) {
        debug_assert_eq!(tasks.len(), self.rows(), "window drifted from table");
        debug_assert!(
            tasks.iter().zip(&self.row_tasks).all(|(a, b)| a.id == b.id),
            "window drifted from table rows"
        );
        self.rescore_column(scorer, machines, m);
        let machine = &machines[m];
        // The cell is warm after the rescore, so the probe is a cache hit.
        let (tail_min, rev) = scorer.probe_chain(machine);
        if m < self.versions.len() {
            self.versions[m] = machine.version();
            self.revs[m] = rev;
        }
        self.tail_mins[m] = tail_min;
        let s = m / TABLE_SHARD_WIDTH;
        self.recompute_shard_earliest(s);
        for row in 0..self.scored.len() {
            if self.shard_live[row][s] {
                self.shard_best[s][row] = shard_best_entry(&self.cols, s, row);
            }
        }
    }

    /// The score of window task `row` on machine `m`, if it was scored.
    #[must_use]
    pub fn get(&self, row: usize, m: usize) -> Option<PairScore> {
        self.cols[m][row]
    }

    /// Phase 1 for one window task: the machine offering the highest
    /// robustness among machines with free slots (tie → lower expected
    /// completion) — the same comparisons and effective scan order the
    /// sequential heuristics used, reduced over the per-shard best
    /// caches: shards are contiguous ascending index ranges, so the
    /// grouped first-wins reduction returns exactly the flat scan's
    /// winner. A cached best whose machine has since lost its free slot
    /// falls back to rescanning that shard.
    #[must_use]
    pub fn best_for_row(
        &self,
        machines: &[MachineState],
        row: usize,
    ) -> Option<(MachineId, PairScore)> {
        let mut best: Option<(usize, PairScore)> = None;
        for (s, bests) in self.shard_best.iter().enumerate() {
            let cand = match bests[row] {
                None => None,
                Some((m, score)) if machines[m].has_free_slot() => Some((m, score)),
                Some(_) => shard_best_live(&self.cols, s, row, machines),
            };
            let Some((m, score)) = cand else { continue };
            if best.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
                best = Some((m, score));
            }
        }
        best.map(|(m, score)| (MachineId::from(m), score))
    }
}

fn debug_assert_machine_alignment(machines: &[MachineState]) {
    debug_assert!(
        machines.iter().enumerate().all(|(i, m)| m.id().index() == i),
        "machine slice must be id-ordered"
    );
}

/// Walk-down cursor over a [`PetCdf`] for *non-increasing* query
/// sequences. The scoring loops probe `CDF_E(δ − t)` with the tail times
/// `t` ascending, so the cut index only ever moves left; maintaining it
/// with a pointer walk replaces one binary search per (impulse, task)
/// probe with amortized O(|cdf|) total work per task — and returns the
/// *exact* same prefix value as [`PetCdf::cdf_at`].
struct CdfCursor<'a> {
    times: &'a [Time],
    prefix: &'a [f64],
    idx: usize,
}

impl<'a> CdfCursor<'a> {
    fn new(cdf: &'a PetCdf) -> Self {
        Self { times: &cdf.times, prefix: &cdf.prefix, idx: cdf.times.len() }
    }

    /// CDF at `q`; callers must probe with non-increasing `q`.
    #[inline]
    fn at_descending(&mut self, q: Time) -> f64 {
        debug_assert!(self.idx == self.times.len() || self.times[self.idx] > q);
        while self.idx > 0 && self.times[self.idx - 1] > q {
            self.idx -= 1;
        }
        if self.idx == 0 {
            0.0
        } else {
            self.prefix[self.idx - 1]
        }
    }
}

/// Upper bound on the Eq. 1 robustness of appending a task with deadline
/// `deadline` behind a tail whose earliest impulse is `earliest`: every
/// startable impulse leaves at most `δ − earliest` slack, and the tail
/// carries at most unit mass, so `Σ p_u · CDF_E(δ−u) ≤ CDF_E(δ − u_min)`.
/// One CDF lookup — the [`ScoreTable`] bound pass runs this per
/// (row, machine) in place of the full scoring walk.
fn robustness_bound(earliest: Time, cdf: &PetCdf, deadline: Time) -> f64 {
    if earliest >= deadline {
        0.0
    } else {
        cdf.cdf_at(deadline - earliest)
    }
}

/// Effective scoring deadline on one machine: a task on a machine with an
/// announced departure cannot be counted on past the departure instant —
/// a drain stops the queue, a fail requeues it — so its robustness is
/// computed against `min(δ, departs_at)`. Machines without an
/// announcement score against the plain deadline. The bound pass keeps
/// the unclamped deadline: clamping only *lowers* robustness, so the
/// unclamped bound stays a valid upper bound.
#[inline]
fn effective_deadline(deadline: Time, cap: Option<Time>) -> Time {
    match cap {
        Some(departs_at) => deadline.min(departs_at),
        None => deadline,
    }
}

/// Fills one machine column of a [`ScoreTable`] for the bound-surviving
/// `(row, task)` pairs, every task scored against the same tail. Tasks
/// are processed four at a time — one shared walk over the tail drives
/// four independent accumulator lanes (distinct tasks → distinct
/// accumulators and CDF cursors), which gives the superscalar core four
/// dependency chains instead of one. Each lane performs exactly the
/// per-task walk of [`score_against`] (same impulse order, same CDF
/// values, same float operations), so the column is bit-identical to
/// per-pair scoring; the remainder lanes literally call it. The machine's
/// announced departure caps each deadline (see [`effective_deadline`]),
/// and under a cold-start model each task's CDF is selected warm-or-cold
/// from the machine's warm-container set via [`SpecTables::cdf_for`].
fn score_column_scatter(
    tail: &Pmf,
    tables: &SpecTables,
    policy: DropPolicy,
    machine: &MachineState,
    live: &[(usize, Task)],
    col: &mut [Option<PairScore>],
) {
    let cap = machine.announced_departure();
    let mut quads = live.chunks_exact(4);
    for quad in &mut quads {
        let tasks = [quad[0].1, quad[1].1, quad[2].1, quad[3].1];
        let scores = score_quad(tail, tables, policy, machine, &tasks);
        for (&(row, _), score) in quad.iter().zip(scores) {
            col[row] = Some(score);
        }
    }
    for &(row, task) in quads.remainder() {
        col[row] = Some(score_against(
            tail,
            tables.cdf_for(task.type_id, machine),
            effective_deadline(task.deadline, cap),
            policy,
        ));
    }
}

/// Four-lane unrolled [`score_against`] under the dropping scenarios; see
/// [`score_column_scatter`]. Scenario A (policy `None`) has no early-break
/// structure to share, so it stays on the scalar path.
fn score_quad(
    tail: &Pmf,
    tables: &SpecTables,
    policy: DropPolicy,
    machine: &MachineState,
    quad: &[Task],
) -> [PairScore; 4] {
    let cap = machine.announced_departure();
    let cdfs = [
        tables.cdf_for(quad[0].type_id, machine),
        tables.cdf_for(quad[1].type_id, machine),
        tables.cdf_for(quad[2].type_id, machine),
        tables.cdf_for(quad[3].type_id, machine),
    ];
    let deadlines = [
        effective_deadline(quad[0].deadline, cap),
        effective_deadline(quad[1].deadline, cap),
        effective_deadline(quad[2].deadline, cap),
        effective_deadline(quad[3].deadline, cap),
    ];
    if policy == DropPolicy::None {
        return [0, 1, 2, 3].map(|l| score_against(tail, cdfs[l], deadlines[l], policy));
    }
    let (times, masses) = (tail.times(), tail.masses());
    let mut cursors = [
        CdfCursor::new(cdfs[0]),
        CdfCursor::new(cdfs[1]),
        CdfCursor::new(cdfs[2]),
        CdfCursor::new(cdfs[3]),
    ];
    let mut robustness = [0.0f64; 4];
    let mut startable = [0.0f64; 4];
    let mut weighted = [0.0f64; 4];
    let max_deadline = deadlines.iter().copied().max().expect("four lanes");
    for (&t, &p) in times.iter().zip(masses) {
        if t >= max_deadline {
            break; // sorted: no lane can start from here on
        }
        let tp = t as f64 * p;
        for lane in 0..4 {
            if t < deadlines[lane] {
                robustness[lane] += p * cursors[lane].at_descending(deadlines[lane] - t);
                startable[lane] += p;
                weighted[lane] += tp;
            }
        }
    }
    [0, 1, 2, 3].map(|lane| {
        let expected_completion = if startable[lane] > 0.0 {
            weighted[lane] / startable[lane] + cdfs[lane].mean
        } else {
            f64::INFINITY
        };
        PairScore {
            robustness: robustness[lane].min(1.0),
            expected_completion,
            mean_exec: cdfs[lane].mean,
        }
    })
}

/// The per-pair closed-form scoring kernel. Hot enough that it is
/// specialized by policy: under the dropping scenarios (B/C) the
/// full-availability accumulators are dead weight (only the startable
/// prefix matters), impulses at or past the deadline contribute nothing
/// (sorted times → early break), and a task that can never start —
/// `tail.min_time() >= δ`, the common case for the hopeless tasks that
/// pile up in an oversubscribed batch — short-circuits to the exact
/// values the full walk would produce. All three specializations are
/// bit-identical to the naive loop: the robustness sum visits the same
/// impulses in the same order with the same CDF values.
fn score_against(tail: &Pmf, cdf: &PetCdf, deadline: Time, policy: DropPolicy) -> PairScore {
    let (times, masses) = (tail.times(), tail.masses());
    let mut robustness = 0.0;
    let mut cursor = CdfCursor::new(cdf);
    let expected_completion = match policy {
        // Scenario A: every start happens eventually; the completion mean
        // is E[A] + E[E] over the full availability.
        DropPolicy::None => {
            let mut full_mass = 0.0;
            let mut full_weighted_start = 0.0;
            for (&t, &p) in times.iter().zip(masses) {
                full_mass += p;
                full_weighted_start += t as f64 * p;
                if t < deadline {
                    robustness += p * cursor.at_descending(deadline - t);
                }
            }
            if full_mass > 0.0 {
                full_weighted_start / full_mass + cdf.mean
            } else {
                f64::INFINITY
            }
        }
        // Scenarios B/C: only starts before δ execute.
        DropPolicy::PendingOnly | DropPolicy::All => {
            let mut startable_mass = 0.0;
            let mut weighted_start = 0.0;
            for (&t, &p) in times.iter().zip(masses) {
                if t >= deadline {
                    break; // sorted: nothing behind can start either
                }
                robustness += p * cursor.at_descending(deadline - t);
                startable_mass += p;
                weighted_start += t as f64 * p;
            }
            if startable_mass > 0.0 {
                weighted_start / startable_mass + cdf.mean
            } else {
                f64::INFINITY
            }
        }
    };
    // Float-noise guard: normalized masses can sum an ulp above 1.
    PairScore { robustness: robustness.min(1.0), expected_completion, mean_exec: cdf.mean }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::analyze_queue;
    use hcsim_pmf::queue_step;
    use hcsim_sim::testkit;

    fn pet_single(points: &[(Time, f64)]) -> PetMatrix {
        PetMatrix::from_pmfs(1, 1, vec![Pmf::from_points(points).unwrap()])
    }

    fn task_with_deadline(deadline: Time) -> Task {
        Task { id: hcsim_model::TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline }
    }

    #[test]
    fn closed_form_matches_queue_step() {
        let pet = pet_single(&[(2, 0.25), (3, 0.5), (5, 0.25)]);
        let tail = Pmf::from_points(&[(1, 0.3), (4, 0.4), (9, 0.3)]).unwrap();
        for deadline in [1u64, 3, 5, 7, 9, 12, 20] {
            for policy in [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All] {
                let scorer = ProbScorer::new(&pet, policy, 64);
                let score = scorer.score_against_tail(&tail, TaskTypeId(0), MachineId(0), deadline);
                let step =
                    queue_step(&tail, pet.pmf(TaskTypeId(0), MachineId(0)), deadline, policy);
                assert!(
                    (score.robustness - step.robustness).abs() < 1e-12,
                    "robustness mismatch at δ={deadline} {policy:?}: {} vs {}",
                    score.robustness,
                    step.robustness
                );
                if policy != DropPolicy::None {
                    match &step.completion {
                        Some(c) => {
                            assert!(
                                (score.expected_completion - c.mean()).abs() < 1e-9,
                                "mean mismatch at δ={deadline} {policy:?}"
                            );
                        }
                        None => assert!(score.expected_completion.is_infinite()),
                    }
                }
            }
        }
    }

    #[test]
    fn policy_none_mean_is_additive() {
        let pet = pet_single(&[(2, 0.5), (6, 0.5)]);
        let tail = Pmf::from_points(&[(10, 0.5), (20, 0.5)]).unwrap();
        let scorer = ProbScorer::new(&pet, DropPolicy::None, 64);
        let score = scorer.score_against_tail(&tail, TaskTypeId(0), MachineId(0), 5);
        assert!((score.expected_completion - (15.0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn mean_exec_reported() {
        let pet = pet_single(&[(2, 0.5), (6, 0.5)]);
        let scorer = ProbScorer::new(&pet, DropPolicy::All, 64);
        let score = scorer.score_against_tail(&Pmf::delta(0), TaskTypeId(0), MachineId(0), 100);
        assert!((score.mean_exec - 4.0).abs() < 1e-12);
        assert!((score.robustness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_cache_respects_version_and_event() {
        let pet = pet_single(&[(5, 1.0)]);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        let machine = MachineState::new(MachineId(0), 4);
        scorer.begin_event(100);
        let t1 = scorer.tail(&machine).clone();
        assert_eq!(t1.min_time(), 100, "idle tail anchors at now");
        // Same event: cached.
        let t2 = scorer.tail(&machine).clone();
        assert_eq!(t1, t2);
        // New event at a later time: idle tail must move to the new now.
        scorer.begin_event(250);
        let t3 = scorer.tail(&machine).clone();
        assert_eq!(t3.min_time(), 250);
    }

    #[test]
    fn incremental_append_matches_from_scratch() {
        let pet = pet_single(&[(3, 0.25), (5, 0.5), (9, 0.25)]);
        let mut machine = MachineState::new(MachineId(0), 8);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(10);
        // Grow the queue one task at a time; after every append the cached
        // tail (one incremental queue_step) must equal a from-scratch
        // analysis of the whole queue.
        for i in 0..6u32 {
            let t = Task {
                id: TaskId(i),
                type_id: TaskTypeId(0),
                arrival: 0,
                deadline: 30 + u64::from(i) * 20,
            };
            assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(t)));
            let cached = scorer.tail(&machine).clone();
            let scratch = analyze_queue(&machine, &pet, 10, DropPolicy::All, 16);
            assert_eq!(cached, scratch.tail, "append {i}");
        }
    }

    #[test]
    fn incremental_mid_queue_drop_matches_from_scratch() {
        let pet = pet_single(&[(3, 0.25), (5, 0.5), (9, 0.25)]);
        let mut machine = MachineState::new(MachineId(0), 8);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(0);
        for i in 0..5u32 {
            let t = Task {
                id: TaskId(i),
                type_id: TaskTypeId(0),
                arrival: 0,
                deadline: 40 + u64::from(i) * 25,
            };
            testkit::apply(&mut machine, testkit::QueueOp::Push(t));
        }
        let _ = scorer.tail(&machine);
        // Drop the middle task: the cache reuses the prefix ahead of it.
        testkit::apply(&mut machine, testkit::QueueOp::RemovePending(TaskId(2)));
        let cached = scorer.tail(&machine).clone();
        let scratch = analyze_queue(&machine, &pet, 0, DropPolicy::All, 16);
        assert_eq!(cached, scratch.tail);
    }

    #[test]
    fn slot_scores_match_analyze_queue() {
        let pet = pet_single(&[(4, 0.5), (8, 0.5)]);
        let mut machine = MachineState::new(MachineId(0), 6);
        for i in 0..3u32 {
            let t = Task {
                id: TaskId(i),
                type_id: TaskTypeId(0),
                arrival: 0,
                deadline: 20 + u64::from(i) * 15,
            };
            testkit::apply(&mut machine, testkit::QueueOp::Push(t));
        }
        testkit::apply(&mut machine, testkit::QueueOp::StartNext { now: 2, total_exec: 6 });
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(5);
        let slots = scorer.slot_scores(&machine).to_vec();
        let reference = analyze_queue(&machine, &pet, 5, DropPolicy::All, 16);
        assert_eq!(slots.len(), reference.slots.len());
        for (got, want) in slots.iter().zip(&reference.slots) {
            assert_eq!(got.task.id, want.task.id);
            assert_eq!(got.position, want.position);
            assert!((got.robustness - want.robustness).abs() == 0.0, "robustness drift");
            assert!((got.skewness - want.skewness).abs() == 0.0, "skewness drift");
        }
    }

    #[test]
    fn score_on_idle_machine_matches_direct() {
        let pet = pet_single(&[(2, 0.25), (3, 0.5), (5, 0.25)]);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        let machine = MachineState::new(MachineId(0), 4);
        scorer.begin_event(10);
        let task = task_with_deadline(14);
        let score = scorer.score(&machine, &task);
        // Start at 10; completes by 14 iff exec <= 4 → 0.75.
        assert!((score.robustness - 0.75).abs() < 1e-12);
    }

    #[test]
    fn append_availability_matches_queue_step() {
        let pet = pet_single(&[(2, 0.25), (3, 0.5), (5, 0.25)]);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 64);
        let tail = Pmf::from_points(&[(1, 0.3), (4, 0.4), (9, 0.3)]).unwrap();
        let exec = pet.pmf(TaskTypeId(0), MachineId(0));
        let got = scorer.append_availability(&tail, exec, 7);
        let mut want = queue_step(&tail, exec, 7, DropPolicy::All).availability;
        want.compact(64);
        assert_eq!(got, want);
        scorer.recycle(got);
    }

    /// Multi-machine fixture for the fan-out tests: `n` machines with
    /// heterogeneous queues over a 2-type PET.
    fn fanout_fixture(n: usize) -> (PetMatrix, Vec<MachineState>) {
        let pmfs: Vec<Pmf> = (0..2 * n)
            .map(|i| {
                let base = 2 + (i as u64 % 5);
                Pmf::from_points(&[(base, 0.25), (base + 3, 0.5), (base + 7, 0.25)]).unwrap()
            })
            .collect();
        let pet = PetMatrix::from_pmfs(2, n, pmfs);
        let machines: Vec<MachineState> = (0..n)
            .map(|m| {
                let depth = m % 4; // heterogeneous queue depths, incl. idle
                let pending: Vec<Task> = (0..depth as u32)
                    .map(|i| Task {
                        id: TaskId(m as u32 * 100 + i),
                        type_id: TaskTypeId((i % 2) as u16),
                        arrival: 0,
                        deadline: 60 + u64::from(i) * 25 + m as u64,
                    })
                    .collect();
                testkit::machine_with_pending(MachineId::from(m), 6, &pending)
            })
            .collect();
        (pet, machines)
    }

    #[test]
    fn score_table_matches_pairwise_scoring_bitwise() {
        // 20 machines crosses PARALLEL_MIN_MACHINES, so threads=4 takes a
        // real fan-out — on every engine. Every table entry must equal a
        // direct `score` call bit for bit, across sequential, scoped,
        // pooled, and work-stealing execution.
        let (pet, machines) = fanout_fixture(20);
        let tasks: Vec<Task> = (0..7u32)
            .map(|i| Task {
                id: TaskId(1_000 + i),
                type_id: TaskTypeId((i % 2) as u16),
                arrival: 0,
                deadline: 40 + u64::from(i) * 30,
            })
            .collect();
        let mut scorer_ref = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer_ref.begin_event(5);
        for (label, threads, backend) in [
            ("seq", 1, FanoutBackend::Scoped),
            ("scoped", 4, FanoutBackend::Scoped),
            ("pool", 4, FanoutBackend::Pool),
            ("steal", 4, FanoutBackend::Stealing),
        ] {
            let mut table = ScoreTable::new();
            let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
            scorer.begin_event(5);
            scorer.set_parallelism(threads, backend);
            assert_eq!(
                scorer.pool_active(),
                matches!(backend, FanoutBackend::Pool | FanoutBackend::Stealing) && threads > 1
            );
            table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
            for (i, task) in tasks.iter().enumerate() {
                for (m, machine) in machines.iter().enumerate() {
                    let direct = scorer_ref.score(machine, task);
                    let got = table.get(i, m).expect("free slot scored");
                    assert!(
                        got.robustness.to_bits() == direct.robustness.to_bits()
                            && got.expected_completion.to_bits()
                                == direct.expected_completion.to_bits()
                            && got.mean_exec.to_bits() == direct.mean_exec.to_bits(),
                        "{label} table ({i},{m}) diverged: {got:?} vs {direct:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn score_table_incremental_updates_track_live_state() {
        let (pet, mut machines) = fanout_fixture(6);
        let mut tasks: Vec<Task> = (0..5u32)
            .map(|i| Task {
                id: TaskId(500 + i),
                type_id: TaskTypeId((i % 2) as u16),
                arrival: 0,
                deadline: 50 + u64::from(i) * 20,
            })
            .collect();
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(3);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        assert_eq!(table.rows(), 5);
        // "Assign" task row 1 to machine 2: mutate the machine, drop the
        // row, refresh the column — the table must equal a fresh rebuild.
        let assigned = tasks.remove(1);
        assert!(testkit::apply(&mut machines[2], testkit::QueueOp::Push(assigned)));
        table.remove_row(1);
        table.refresh_machine(&mut scorer, &machines, &tasks, 2);
        // A new batch task slides into the window.
        let fresh = Task { id: TaskId(900), type_id: TaskTypeId(1), arrival: 0, deadline: 220 };
        tasks.push(fresh);
        table.push_row(&mut scorer, &machines, &fresh, &|_| 0.0);
        let mut reference = ScoreTable::new();
        let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        ref_scorer.begin_event(3);
        reference.rebuild(&mut ref_scorer, &machines, &tasks, &|_| 0.0);
        assert_eq!(table.rows(), reference.rows());
        for i in 0..tasks.len() {
            for m in 0..machines.len() {
                let (a, b) = (table.get(i, m), reference.get(i, m));
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert!(
                            a.robustness.to_bits() == b.robustness.to_bits()
                                && a.expected_completion.to_bits()
                                    == b.expected_completion.to_bits(),
                            "({i},{m}): {a:?} vs {b:?}"
                        );
                    }
                    (None, None) => {}
                    other => panic!("presence mismatch at ({i},{m}): {other:?}"),
                }
            }
        }
    }

    /// Decision-level agreement between a (possibly bound-skipped) table
    /// and exact scoring: wherever the exact best meets the threshold the
    /// table must return it bit for bit; wherever it doesn't, the table
    /// may return nothing or a value the reduction would defer anyway.
    fn assert_table_agrees_with_exact(
        table: &ScoreTable,
        scorer_ref: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        threshold: &dyn Fn(TaskTypeId) -> f64,
    ) {
        for (row, task) in tasks.iter().enumerate() {
            let mut exact: Option<(usize, PairScore)> = None;
            for (m, machine) in machines.iter().enumerate() {
                if !machine.has_free_slot() {
                    continue;
                }
                let score = scorer_ref.score(machine, task);
                if exact.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
                    exact = Some((m, score));
                }
            }
            let got = table.best_for_row(machines, row);
            let t = threshold(task.type_id);
            match exact {
                Some((m, s)) if s.robustness >= t => {
                    let (gm, gs) = got.unwrap_or_else(|| {
                        panic!("row {row}: exact best r={} ≥ {t} but table skipped", s.robustness)
                    });
                    assert_eq!(gm.index(), m, "row {row}: machine diverged");
                    assert!(
                        gs.robustness.to_bits() == s.robustness.to_bits()
                            && gs.expected_completion.to_bits() == s.expected_completion.to_bits(),
                        "row {row}: {gs:?} vs {s:?}"
                    );
                }
                _ => {
                    if let Some((_, gs)) = got {
                        assert!(
                            gs.robustness < t,
                            "row {row}: table returned r={} above threshold {t} \
                             where exact best was below",
                            gs.robustness
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn score_table_ensure_matches_rebuild_after_same_tick_changes() {
        // Two shards' worth of machines; a burst of mapping events at the
        // same instant with completions, a queue growth, a departed window
        // row, and an appended arrival in between. The revalidated table
        // must be cell-for-cell identical to a from-scratch rebuild.
        let (pet, mut machines) = fanout_fixture(40);
        let mut tasks: Vec<Task> = (0..8u32)
            .map(|i| Task {
                id: TaskId(1_000 + i),
                type_id: TaskTypeId((i % 2) as u16),
                arrival: 0,
                deadline: 45 + u64::from(i) * 25,
            })
            .collect();
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(3);
        let mut table = ScoreTable::new();
        assert!(
            !table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0),
            "an empty table must rebuild"
        );
        // Next burst event, same tick: machine 5's queue grew (assignment),
        // machine 21 finished its pending task (completion), row 2 left the
        // window, a fresh arrival slid in.
        let grown = Task { id: TaskId(800), type_id: TaskTypeId(0), arrival: 0, deadline: 200 };
        assert!(testkit::apply(&mut machines[5], testkit::QueueOp::Push(grown)));
        assert!(testkit::apply(&mut machines[21], testkit::QueueOp::RemovePending(TaskId(2100))));
        tasks.remove(2);
        tasks.push(Task { id: TaskId(900), type_id: TaskTypeId(1), arrival: 0, deadline: 220 });
        scorer.begin_event(3);
        assert!(
            table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0),
            "same tick + same epoch must take the reuse path"
        );
        let mut reference = ScoreTable::new();
        let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        ref_scorer.begin_event(3);
        reference.rebuild(&mut ref_scorer, &machines, &tasks, &|_| 0.0);
        assert_table_equals_rebuild(&table, &reference, &machines, &tasks);
    }

    #[test]
    fn score_table_ensure_resurrects_rows_loosened_by_completions() {
        // 64 identical machines (2 shards), all with queues deep enough
        // that every shard bound falls below the threshold → the row is
        // fully skipped. A completion then empties one machine: ensure
        // must resurrect the row through that machine's shard and agree
        // with exact scoring.
        let n = 64;
        let pmfs: Vec<Pmf> = (0..n).map(|_| Pmf::from_points(&[(5, 1.0)]).unwrap()).collect();
        let pet = PetMatrix::from_pmfs(1, n, pmfs);
        let mut machines: Vec<MachineState> = (0..n)
            .map(|m| {
                let pending: Vec<Task> = (0..3u32)
                    .map(|i| Task {
                        id: TaskId(m as u32 * 10 + i),
                        type_id: TaskTypeId(0),
                        arrival: 0,
                        deadline: 500,
                    })
                    .collect();
                testkit::machine_with_pending(MachineId::from(m), 6, &pending)
            })
            .collect();
        let tasks =
            vec![Task { id: TaskId(9_000), type_id: TaskTypeId(0), arrival: 0, deadline: 12 }];
        let threshold = |_tt: TaskTypeId| 0.9;
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(0);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &threshold);
        assert!(
            table.best_for_row(&machines, 0).is_none(),
            "deep queues: the row must be bound-skipped everywhere"
        );
        // Machine 40 drains completely — its bound loosens to "start now".
        for i in 0..3u32 {
            assert!(testkit::apply(
                &mut machines[40],
                testkit::QueueOp::RemovePending(TaskId(400 + i))
            ));
        }
        scorer.begin_event(0);
        assert!(table.ensure(&mut scorer, &machines, &tasks, &threshold), "same tick: reuse");
        let (m, s) = table.best_for_row(&machines, 0).expect("resurrected through machine 40");
        assert_eq!(m.index(), 40);
        assert!((s.robustness - 1.0).abs() < 1e-12, "idle machine, exec 5 ≤ deadline 12");
        let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        ref_scorer.begin_event(0);
        assert_table_agrees_with_exact(&table, &mut ref_scorer, &machines, &tasks, &threshold);
    }

    /// Cell-for-cell and reduction-level equality with a fresh rebuild.
    fn assert_table_equals_rebuild(
        table: &ScoreTable,
        reference: &ScoreTable,
        machines: &[MachineState],
        tasks: &[Task],
    ) {
        assert_eq!(table.rows(), reference.rows());
        for i in 0..tasks.len() {
            for m in 0..machines.len() {
                match (table.get(i, m), reference.get(i, m)) {
                    (Some(a), Some(b)) => assert!(
                        a.robustness.to_bits() == b.robustness.to_bits()
                            && a.expected_completion.to_bits() == b.expected_completion.to_bits(),
                        "({i},{m}): {a:?} vs {b:?}"
                    ),
                    (None, None) => {}
                    other => panic!("presence mismatch at ({i},{m}): {other:?}"),
                }
            }
            assert_eq!(
                table.best_for_row(machines, i),
                reference.best_for_row(machines, i),
                "row {i} reduction diverged"
            );
        }
    }

    #[test]
    fn score_table_ensure_rebuilds_on_tick_epoch_or_invalidate() {
        // The fixture's machines are idle, so every head is `delta(now)`.
        let (pet, machines) = fanout_fixture(20);
        let tasks = vec![Task { id: TaskId(1), type_id: TaskTypeId(0), arrival: 0, deadline: 90 }];
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(3);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        // A later tick where the chains moved (idle heads re-anchor at the
        // new now) must rebuild.
        scorer.begin_event(7);
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "new tick, chains moved");
        // A membership epoch bump must rebuild (shard geometry may move).
        scorer.sync_membership(1, &machines);
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "new epoch");
        // Explicit invalidation (PAMF threshold drift) must rebuild.
        table.invalidate();
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "invalidated");
        // And with nothing changed, the reuse path holds.
        assert!(table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "steady state");

        // Busy machines: every head is a residual started at t=10, and the
        // fixture's first PET impulse is at t≥2 — so a one-tick advance
        // keeps every chain, and the table must be reused as is.
        let mut busy = machines.clone();
        for (m, machine) in busy.iter_mut().enumerate() {
            let head = Task {
                id: TaskId(5_000 + m as u32),
                type_id: TaskTypeId(0),
                arrival: 0,
                deadline: 500,
            };
            assert!(testkit::start_executing(machine, head, 10, 40));
        }
        scorer.begin_event(10);
        table.rebuild(&mut scorer, &busy, &tasks, &|_| 0.0);
        let revs: Vec<u64> =
            (0..busy.len()).map(|m| scorer.chain_revision(MachineId::from(m))).collect();
        scorer.begin_event(11);
        assert!(
            table.ensure(&mut scorer, &busy, &tasks, &|_| 0.0),
            "new tick, every chain survived"
        );
        for (m, &rev) in revs.iter().enumerate() {
            assert_eq!(scorer.chain_revision(MachineId::from(m)), rev, "machine {m} chain rebuilt");
        }
        let mut reference = ScoreTable::new();
        let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        ref_scorer.begin_event(11);
        reference.rebuild(&mut ref_scorer, &busy, &tasks, &|_| 0.0);
        assert_table_equals_rebuild(&table, &reference, &busy, &tasks);
        // Far past every impulse the heads overrun: `delta(1 + now)` moves
        // with the clock, so the table rebuilds.
        scorer.begin_event(200);
        assert!(!table.ensure(&mut scorer, &busy, &tasks, &|_| 0.0), "new tick, heads overran");
    }

    #[test]
    fn hierarchical_bound_pass_agrees_with_exact_at_1024_machines() {
        // Full mega-cluster cardinality (32 shards), post-churn skewed
        // occupancy (a block of full machines, a block of absent ones),
        // and a near-tie threshold sitting exactly on the best row score —
        // the BOUND_MARGIN case the skip decision must survive.
        let n = 1024;
        let pmfs: Vec<Pmf> = (0..2 * n)
            .map(|i| {
                let base = 2 + (i as u64 % 7);
                Pmf::from_points(&[(base, 0.3), (base + 4, 0.5), (base + 11, 0.2)]).unwrap()
            })
            .collect();
        let pet = PetMatrix::from_pmfs(2, n, pmfs);
        let mut machines: Vec<MachineState> = (0..n)
            .map(|m| {
                let depth = if m < 300 { 2 } else { m % 3 }; // skewed occupancy
                let pending: Vec<Task> = (0..depth as u32)
                    .map(|i| Task {
                        id: TaskId(m as u32 * 10 + i),
                        type_id: TaskTypeId((i % 2) as u16),
                        arrival: 0,
                        deadline: 70 + u64::from(i) * 30 + (m % 16) as u64,
                    })
                    .collect();
                testkit::machine_with_pending(MachineId::from(m), 2, &pending)
            })
            .collect();
        // Churn skew: machines 600..680 failed.
        for m in machines.iter_mut().skip(600).take(80) {
            assert!(testkit::apply(m, testkit::QueueOp::Fail));
        }
        let tasks: Vec<Task> = (0..6u32)
            .map(|i| Task {
                id: TaskId(50_000 + i),
                type_id: TaskTypeId((i % 2) as u16),
                arrival: 0,
                deadline: 9 + u64::from(i) * 4, // tight: bounds actually skip shards
            })
            .collect();
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(1);
        // Pass 1: threshold 0 (everything live) to learn the exact bests.
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        let exact_best: Vec<f64> = (0..tasks.len())
            .map(|row| table.best_for_row(&machines, row).map_or(0.0, |(_, s)| s.robustness))
            .collect();
        let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        ref_scorer.begin_event(1);
        // Pass 2: the near-tie threshold — exactly row 0's best score.
        let tie = exact_best.iter().copied().fold(0.0f64, f64::max);
        for threshold in [0.25, tie, (tie + 1e-6).min(1.0)] {
            let t = move |_tt: TaskTypeId| threshold;
            let mut bounded = ScoreTable::new();
            bounded.rebuild(&mut scorer, &machines, &tasks, &t);
            assert_table_agrees_with_exact(&bounded, &mut ref_scorer, &machines, &tasks, &t);
        }
    }

    #[test]
    fn score_table_skips_full_machines() {
        let pet = pet_single(&[(2, 0.5), (4, 0.5)]);
        let pending: Vec<Task> = (0..2u32)
            .map(|i| Task { id: TaskId(i), type_id: TaskTypeId(0), arrival: 0, deadline: 100 })
            .collect();
        let full = testkit::machine_with_pending(MachineId(0), 2, &pending);
        assert!(!full.has_free_slot());
        let machines = vec![full];
        let tasks = vec![Task { id: TaskId(9), type_id: TaskTypeId(0), arrival: 0, deadline: 50 }];
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(0);
        scorer.set_parallelism(4, FanoutBackend::Pool);
        assert!(!scorer.pool_active(), "1-machine system stays below the pool gate");
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        assert_eq!(table.get(0, 0), None);
        assert!(table.best_for_row(&machines, 0).is_none());
    }

    #[test]
    fn warm_caches_is_execution_mode_invariant() {
        let (pet, machines) = fanout_fixture(20);
        let mut cold = ProbScorer::new(&pet, DropPolicy::All, 16);
        cold.begin_event(7);
        for (label, threads, backend) in
            [("scoped", 4, FanoutBackend::Scoped), ("pool", 4, FanoutBackend::Pool)]
        {
            let mut warm = ProbScorer::new(&pet, DropPolicy::All, 16);
            warm.begin_event(7);
            warm.set_parallelism(threads, backend);
            warm.warm_caches(&machines, true);
            for machine in &machines {
                if machine.occupancy() == 0 {
                    continue;
                }
                let a = warm.slot_scores(machine).to_vec();
                let b = cold.slot_scores(machine).to_vec();
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        x.robustness.to_bits() == y.robustness.to_bits()
                            && x.skewness.to_bits() == y.skewness.to_bits(),
                        "{label}: machine {} diverged",
                        machine.id()
                    );
                }
                // The tails must also be byte-identical.
                assert_eq!(warm.tail(machine).clone(), cold.tail(machine).clone());
            }
        }
    }

    #[test]
    fn pool_single_cell_queries_match_local() {
        // The between-rounds request path (score / tail / slot_scores
        // through the pool's cell handle) must serve exactly what local
        // cells serve.
        let (pet, machines) = fanout_fixture(PARALLEL_MIN_MACHINES + 2);
        let mut local = ProbScorer::new(&pet, DropPolicy::All, 16);
        let mut pooled = ProbScorer::new(&pet, DropPolicy::All, 16);
        local.begin_event(9);
        pooled.begin_event(9);
        pooled.set_parallelism(4, FanoutBackend::Pool);
        assert!(pooled.pool_active());
        let task = Task { id: TaskId(77), type_id: TaskTypeId(1), arrival: 0, deadline: 90 };
        for machine in &machines {
            let a = local.score(machine, &task);
            let b = pooled.score(machine, &task);
            assert_eq!(a.robustness.to_bits(), b.robustness.to_bits());
            assert_eq!(a.expected_completion.to_bits(), b.expected_completion.to_bits());
            assert_eq!(local.tail(machine).clone(), pooled.tail(machine).clone());
            if machine.occupancy() > 0 {
                assert_eq!(local.slot_scores(machine), pooled.slot_scores(machine));
            }
        }
    }

    #[test]
    fn membership_sync_regates_pool_and_releases_departed_chains() {
        let n = PARALLEL_MIN_MACHINES + 4;
        let (pet, mut machines) = fanout_fixture(n);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(3);
        scorer.sync_membership(0, &machines);
        assert_eq!(scorer.schedulable_machines(), n);
        scorer.set_parallelism(4, FanoutBackend::Pool);
        assert!(scorer.pool_active());
        scorer.warm_caches(&machines, false);
        // Churn: fail 5 and drain 4 machines → below the fan-out floor.
        for m in machines.iter_mut().take(5) {
            assert!(testkit::apply(m, testkit::QueueOp::Fail));
        }
        for m in machines.iter_mut().skip(5).take(4) {
            testkit::apply(m, testkit::QueueOp::BeginDrain);
        }
        scorer.sync_membership(1, &machines);
        assert_eq!(scorer.schedulable_machines(), n - 9);
        scorer.set_parallelism(4, FanoutBackend::Pool);
        assert!(!scorer.pool_active(), "cluster shrank below the pool gate");
        // Every tail — survivors from their migrated warm cells, departed
        // machines rebuilt from scratch — must match a cold scorer.
        let mut cold = ProbScorer::new(&pet, DropPolicy::All, 16);
        cold.begin_event(3);
        for machine in &machines {
            assert_eq!(
                scorer.tail(machine).clone(),
                cold.tail(machine).clone(),
                "machine {} diverged after churn",
                machine.id()
            );
        }
        // Re-join the failed machines: the pool comes back, warm state
        // (whatever survived) migrates in.
        for m in machines.iter_mut().take(5) {
            assert!(testkit::apply(m, testkit::QueueOp::Join));
        }
        scorer.sync_membership(2, &machines);
        scorer.set_parallelism(4, FanoutBackend::Pool);
        assert!(scorer.pool_active(), "grown cluster re-builds the pool");
        // Same epoch again: a no-op (the steady-state path).
        scorer.sync_membership(2, &machines);
        assert_eq!(scorer.schedulable_machines(), n - 4);
    }

    #[test]
    fn score_table_gives_absent_machines_empty_columns() {
        let (pet, mut machines) = fanout_fixture(6);
        testkit::apply(&mut machines[1], testkit::QueueOp::BeginDrain);
        testkit::apply(&mut machines[2], testkit::QueueOp::Fail);
        let tasks = vec![Task { id: TaskId(9), type_id: TaskTypeId(0), arrival: 0, deadline: 400 }];
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(0);
        scorer.sync_membership(1, &machines);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        for m in [1usize, 2] {
            assert_eq!(table.get(0, m), None, "absent machine {m} must not be scored");
        }
        let (best_machine, _) = table.best_for_row(&machines, 0).expect("survivors scored");
        assert!(machines[best_machine.index()].is_schedulable());
    }

    #[test]
    fn set_parallelism_migrates_cells_without_losing_state() {
        // Local → pooled → local round-trips keep every cached chain: the
        // tails served after each migration are identical, and the reshard
        // path (different thread count) works.
        let (pet, machines) = fanout_fixture(PARALLEL_MIN_MACHINES);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(4);
        let baseline: Vec<Pmf> = machines.iter().map(|m| scorer.tail(m).clone()).collect();
        scorer.set_parallelism(4, FanoutBackend::Pool);
        assert!(scorer.pool_active());
        scorer.set_parallelism(2, FanoutBackend::Pool); // reshard
        assert!(scorer.pool_active());
        scorer.set_parallelism(4, FanoutBackend::Scoped); // move back
        assert!(!scorer.pool_active());
        for (machine, want) in machines.iter().zip(&baseline) {
            assert_eq!(scorer.tail(machine), want, "machine {} lost its chain", machine.id());
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_pmf(max_t: Time, max_n: usize) -> impl Strategy<Value = Pmf> {
            prop::collection::vec((1..max_t, 0.01f64..1.0), 1..max_n).prop_map(|pts| {
                let mut p = Pmf::from_points(&pts).unwrap();
                p.normalize();
                p
            })
        }

        proptest! {
            #[test]
            fn closed_form_always_matches_queue_step(
                tail in arb_pmf(300, 12),
                exec in arb_pmf(80, 10),
                deadline in 1u64..400,
                policy_idx in 0usize..3,
            ) {
                let policy =
                    [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
                let pet = PetMatrix::from_pmfs(1, 1, vec![exec.clone()]);
                let scorer = ProbScorer::new(&pet, policy, 256);
                let score =
                    scorer.score_against_tail(&tail, TaskTypeId(0), MachineId(0), deadline);
                let step = queue_step(&tail, &exec, deadline, policy);
                prop_assert!((score.robustness - step.robustness).abs() < 1e-9);
                if policy != DropPolicy::None {
                    match &step.completion {
                        Some(c) => prop_assert!(
                            (score.expected_completion - c.mean()).abs() < 1e-6
                        ),
                        None => prop_assert!(score.expected_completion.is_infinite()),
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]
            /// The hierarchical bound pass never changes a decision: over
            /// random multi-shard clusters with skewed occupancy (full
            /// machines, failed machines, empty ones) and an arbitrary
            /// threshold — including thresholds landing right on a row's
            /// best score — the bounded table agrees with exact scoring.
            #[test]
            fn hierarchical_bound_pass_agrees_with_exact(
                depths in prop::collection::vec((0usize..5, 0usize..8), 33..72),
                deadlines in prop::collection::vec(5u64..120, 1..6),
                threshold in 0.0f64..1.0,
            ) {
                let n = depths.len();
                let pmfs: Vec<Pmf> = (0..2 * n)
                    .map(|i| {
                        let base = 2 + (i as u64 % 5);
                        Pmf::from_points(&[(base, 0.25), (base + 3, 0.5), (base + 7, 0.25)])
                            .unwrap()
                    })
                    .collect();
                let pet = PetMatrix::from_pmfs(2, n, pmfs);
                let mut machines: Vec<MachineState> = depths
                    .iter()
                    .enumerate()
                    .map(|(m, &(depth, _))| {
                        let pending: Vec<Task> = (0..depth as u32)
                            .map(|i| Task {
                                id: TaskId(m as u32 * 100 + i),
                                type_id: TaskTypeId((i % 2) as u16),
                                arrival: 0,
                                deadline: 40 + u64::from(i) * 20 + m as u64,
                            })
                            .collect();
                        testkit::machine_with_pending(MachineId::from(m), 4, &pending)
                    })
                    .collect();
                for (machine, &(_, fail)) in machines.iter_mut().zip(&depths) {
                    if fail == 0 {
                        testkit::apply(machine, testkit::QueueOp::Fail);
                    }
                }
                let tasks: Vec<Task> = deadlines
                    .iter()
                    .enumerate()
                    .map(|(i, &deadline)| Task {
                        id: TaskId(40_000 + i as u32),
                        type_id: TaskTypeId((i % 2) as u16),
                        arrival: 0,
                        deadline,
                    })
                    .collect();
                let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
                scorer.begin_event(2);
                let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
                ref_scorer.begin_event(2);
                // Pass 1: exact bests (threshold 0 keeps everything live).
                let mut flat = ScoreTable::new();
                flat.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
                let tie = (0..tasks.len())
                    .filter_map(|row| flat.best_for_row(&machines, row))
                    .map(|(_, s)| s.robustness)
                    .fold(0.0f64, f64::max);
                // Pass 2: the random threshold AND the exact near-tie one.
                for t in [threshold, tie] {
                    let thr = move |_tt: TaskTypeId| t;
                    let mut bounded = ScoreTable::new();
                    bounded.rebuild(&mut scorer, &machines, &tasks, &thr);
                    assert_table_agrees_with_exact(
                        &bounded, &mut ref_scorer, &machines, &tasks, &thr,
                    );
                }
            }
        }
    }

    #[test]
    fn hopeless_deadline_scores_zero() {
        let pet = pet_single(&[(2, 1.0)]);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        let machine = MachineState::new(MachineId(0), 4);
        scorer.begin_event(100);
        let score = scorer.score(&machine, &task_with_deadline(50));
        assert_eq!(score.robustness, 0.0);
        assert!(score.expected_completion.is_infinite());
    }

    #[test]
    fn for_spec_shares_one_table_build() {
        let spec =
            hcsim_workload::specint_system(6, &mut hcsim_stats::SeedSequence::new(3).stream(0));
        let first = ProbScorer::for_spec(&spec, DropPolicy::All, 16);
        let second = ProbScorer::for_spec(&spec, DropPolicy::All, 16);
        assert!(Arc::ptr_eq(first.tables(), second.tables()));
        let own = ProbScorer::new(&spec.pet, DropPolicy::All, 16);
        assert!(!Arc::ptr_eq(first.tables(), own.tables()), "only for_spec memoizes");
        assert_eq!(**first.tables(), **own.tables());
    }
}
