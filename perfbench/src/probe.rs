//! Timing from outside the program: a pass-through [`Mapper`] that clocks
//! every call into the wrapped heuristic, plus process-level readings
//! (CPU time, peak resident memory) from `/proc`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hcsim_model::{Task, TaskOutcome};
use hcsim_sim::{MapContext, Mapper, MapperInstrumentation};

use crate::stats::Histogram;

/// Nanoseconds since `t0`, saturating.
#[must_use]
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What the wrappers of one measured run record. Shared by every mapper
/// the run builds (one per trial, or one per life of a crashed service),
/// so it lives behind an `Rc<RefCell<_>>`.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Record the per-layer readings too (the traced run).
    pub traced: bool,
    /// Mapping events seen, first events included.
    pub events: u64,
    /// Host time of each mapper's first event, where PAM builds its
    /// scorer: set-up, not steady state.
    pub first_event_ns: Vec<u64>,
    /// Host time of every later mapping event.
    pub decisions: Histogram,
    /// Host time spent constructing mappers.
    pub build_ns: u64,
    /// Traced: host time inside `on_task_finished`, and its calls.
    pub finish_ns: u64,
    /// Traced: `on_task_finished` calls.
    pub finish_calls: u64,
    /// Traced: batch length at event entry, summed over events.
    pub batch_len_sum: u64,
    /// Traced: pending tasks over all machine queues at event entry,
    /// summed over events.
    pub queue_depth_sum: u64,
    /// Traced: batch tasks the mapper left unmapped, summed over events.
    pub deferred_sum: u64,
    /// Traced: the heuristic's own counters, summed over dropped mappers.
    pub instr: MapperInstrumentation,
    /// Traced: the counters of the last mapper dropped.
    pub last_instr: MapperInstrumentation,
}

impl Recorder {
    /// A shared recorder.
    #[must_use]
    pub fn shared(traced: bool) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Self { traced, ..Self::default() }))
    }

    /// Host time of all first events.
    #[must_use]
    pub fn first_event_total(&self) -> u64 {
        self.first_event_ns.iter().sum()
    }

    /// Adds `other`'s counts and first-event times, but not its decision
    /// histogram, to this recorder.
    pub fn absorb(&mut self, other: &Recorder) {
        self.events += other.events;
        self.first_event_ns.extend(&other.first_event_ns);
        self.build_ns += other.build_ns;
        self.finish_ns += other.finish_ns;
        self.finish_calls += other.finish_calls;
        self.batch_len_sum += other.batch_len_sum;
        self.queue_depth_sum += other.queue_depth_sum;
        self.deferred_sum += other.deferred_sum;
        self.add_instr(other.instr);
    }

    fn add_instr(&mut self, i: MapperInstrumentation) {
        self.last_instr = i;
        let s = &mut self.instr;
        s.mapping_events += i.mapping_events;
        s.events_dropping_engaged += i.events_dropping_engaged;
        s.toggle_transitions += i.toggle_transitions;
        s.pruner_drops += i.pruner_drops;
        s.preemptions += i.preemptions;
        s.table_reuses += i.table_reuses;
        s.events_deep_calm += i.events_deep_calm;
    }
}

/// Pass-through wrapper: forwards every [`Mapper`] call to `inner` and
/// clocks it into a [`Recorder`]. Untraced it reads the clock once before
/// and once after each mapping event, records that time and reads
/// nothing else.
pub struct Timed<M> {
    inner: M,
    rec: Rc<RefCell<Recorder>>,
    traced: bool,
    seen_first: bool,
    last_instr: Option<MapperInstrumentation>,
}

impl<M: Mapper> Timed<M> {
    /// Wraps the mapper `build` returns, charging its construction time
    /// to `rec`.
    pub fn build(rec: &Rc<RefCell<Recorder>>, build: impl FnOnce() -> M) -> Self {
        let t0 = Instant::now();
        let inner = build();
        let ns = ns_since(t0);
        let traced = {
            let mut r = rec.borrow_mut();
            r.build_ns += ns;
            r.traced
        };
        Self { inner, rec: Rc::clone(rec), traced, seen_first: false, last_instr: None }
    }
}

impl<M> Drop for Timed<M> {
    fn drop(&mut self) {
        if let (Some(i), Ok(mut r)) = (self.last_instr, self.rec.try_borrow_mut()) {
            r.add_instr(i);
        }
    }
}

impl<M: Mapper> Mapper for Timed<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        let entry = self.traced.then(|| {
            let depth: usize = ctx.machines().iter().map(|m| m.pending().len()).sum();
            (ctx.batch().len(), depth)
        });
        let t0 = Instant::now();
        self.inner.on_mapping_event(ctx);
        let ns = ns_since(t0);
        let mut r = self.rec.borrow_mut();
        r.events += 1;
        if self.seen_first {
            r.decisions.record(ns);
        } else {
            self.seen_first = true;
            r.first_event_ns.push(ns);
        }
        if let Some((batch, depth)) = entry {
            r.batch_len_sum += batch as u64;
            r.queue_depth_sum += depth as u64;
            r.deferred_sum += ctx.batch().len() as u64;
            self.last_instr = self.inner.instrumentation();
        }
    }

    fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
        if self.traced {
            let t0 = Instant::now();
            self.inner.on_task_finished(task, outcome);
            let ns = ns_since(t0);
            let mut r = self.rec.borrow_mut();
            r.finish_ns += ns;
            r.finish_calls += 1;
        } else {
            self.inner.on_task_finished(task, outcome);
        }
    }

    fn instrumentation(&self) -> Option<MapperInstrumentation> {
        self.inner.instrumentation()
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.inner.restore_state(bytes);
    }

    fn on_shutdown(&mut self) {
        self.inner.on_shutdown();
    }
}

/// Peak resident set size of this process so far, in bytes (`VmHWM`).
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// CPU time this process has used on all its threads, in seconds
/// (`utime + stime` from `/proc/self/stat`, at the standard 100 ticks
/// per second).
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}
