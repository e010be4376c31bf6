//! The three workloads: their inputs (a pure function of the seed), one
//! measured repetition of each, and the output checks made along the way.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hcsim_core::{HeuristicKind, PruningConfig};
use hcsim_model::{ChurnTrace, SystemSpec, Task};
use hcsim_service::{
    bounded, feed_schedule, resume, run_with_recovery, serve, FaultPlan, RecoveryOutcome,
    ServiceCheckpoint, ServiceConfig, ServiceExit, ServiceReport,
};
use hcsim_sim::{
    run_simulation, ChurnSource, EventSource, Mapper, SimConfig, SimReport, SimSession,
    TaskTraceSource,
};
use hcsim_stats::{SeedSequence, Xoshiro256pp};
use hcsim_workload::{
    cluster_churn, faas_system, specint_cluster, specint_system, ArrivalSchedule, ChurnConfig,
    FaasConfig, FaasGenerator, WorkloadConfig, WorkloadGenerator,
};

use crate::probe::{ns_since, Recorder, Timed};
use crate::stats::{one_terminal_record_per_task, report_digest, Checks, Digest};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One point of the paper's figures: 8 SPECint machines at 34k.
    Paper8m,
    /// The serverless burst shape: 256 machines, 48 cold-starting functions.
    Faas256m,
    /// Service mode on a 64-machine cluster under churn, with a crash.
    Service64mChurn,
}

/// Mapper threads of the measured runs. At one thread the decision tail
/// is set by the decisions themselves; with the worker pool on a small
/// host it is set by how fast idle workers wake, which varies from run
/// to run far beyond any usable bound.
pub const THREADS: usize = 1;
/// Mapper threads of the traced run's worker-pool leg.
pub const POOL_THREADS: usize = 2;
/// Seed of every system spec (the paper's publication year).
const SPEC_SEED: u64 = 2019;
/// Trials per repetition of `paper_8m` (the paper's 30 trials per point).
const PAPER_TRIALS: usize = 30;
/// Trials per repetition of `faas_256m`.
const FAAS_TRIALS: usize = 12;
/// Arrivals of `service_64m_churn`.
const SERVICE_TASKS: usize = 2_000;
/// Engine backlog at which `service_64m_churn` starts shedding arrivals.
const SERVICE_BACKLOG_BOUND: usize = 128;
/// Membership epoch at which the crashed `service_64m_churn` run dies.
const SERVICE_KILL_EPOCH: u64 = 2;
/// Capacity of the bounded arrival channel between feeder and service.
const SERVICE_CHANNEL: usize = 32;
/// Arrivals the service probe replays on the workloads without a service.
const PROBE_TASKS: usize = 300;
/// Engine steps between two snapshots in a traced trial.
const SNAPSHOT_EVERY: u64 = 400;

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] =
        [Workload::Paper8m, Workload::Faas256m, Workload::Service64mChurn];

    /// The name the benchmark's `--workload` flag takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper8m => "paper_8m",
            Workload::Faas256m => "faas_256m",
            Workload::Service64mChurn => "service_64m_churn",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The generator parameters, as printed next to the metrics.
    #[must_use]
    pub fn params(self) -> &'static str {
        match self {
            Workload::Paper8m => {
                "specint_system(queue 6); 30 trials x 800 tasks, oversubscription 34k, \
                 slack_beta 1.5; PAM, 1 thread; paper trimming (100 per end)"
            }
            Workload::Faas256m => {
                "faas_system(256 machines, 48 functions, keep_alive 60); 12 trials x 2500 \
                 requests, oversubscription 2.8M, burst_shape 0.35, zipf 1.2; PAM, 1 thread; \
                 paper trimming"
            }
            Workload::Service64mChurn => {
                "specint_cluster(64 machines, queue 6); 2000 tasks, oversubscription 272k; \
                 churn 6 joins + 6 drains + 5 fails over the arrival window (floor 40); \
                 run_with_recovery fast-forward, epoch checkpoints, backlog bound 128, \
                 channel 32, kill at epoch 2; PAM, 1 thread; untrimmed"
            }
        }
    }

    /// Why the workload is in the benchmark.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::Paper8m => {
                "a paper figure point: chain warm-up and column fill dominate, almost no \
                 set-up, never a worker pool"
            }
            Workload::Faas256m => {
                "serverless bursts: scorer set-up, same-tick table reuse and memory carry \
                 the weight"
            }
            Workload::Service64mChurn => {
                "service mode under churn, killed and resumed: resharding, checkpoints, \
                 restore and admission shedding"
            }
        }
    }

    fn sim_config(self) -> SimConfig {
        match self {
            Workload::Service64mChurn => SimConfig::untrimmed(),
            _ => SimConfig::default(),
        }
    }

    fn faas_config() -> FaasConfig {
        FaasConfig {
            num_machines: 256,
            num_tasks: 2_500,
            oversubscription: 2_800_000.0,
            ..FaasConfig::default()
        }
    }

    /// Builds the system spec: the timed part of set-up. The spec is the
    /// same for every `--seed`, as the paper holds its PET matrix constant
    /// across all experiments; the seed drives the traces.
    #[must_use]
    pub fn build_spec(self) -> SystemSpec {
        let seeds = SeedSequence::new(SPEC_SEED);
        match self {
            Workload::Paper8m => specint_system(6, &mut seeds.stream(0)),
            Workload::Faas256m => faas_system(&Self::faas_config(), &mut seeds.stream(0)),
            Workload::Service64mChurn => specint_cluster(64, 6, &mut seeds.stream(0)),
        }
    }

    fn build_mapper(self, threads: usize) -> Box<dyn Mapper> {
        HeuristicKind::Pam.build(PruningConfig { threads, ..PruningConfig::default() })
    }
}

/// A workload's generated inputs. Trace generation is the benchmark's
/// input, made once per process and never timed.
pub struct Inputs {
    /// The workload.
    pub kind: Workload,
    /// Root of every random stream.
    pub seeds: SeedSequence,
    /// The spec, built once to generate the traces (repetitions rebuild
    /// it under the clock).
    pub spec: SystemSpec,
    /// Task trace per trial (one for the service).
    pub trials: Vec<Vec<Task>>,
    /// The service's membership timeline; for the other workloads, the
    /// timeline of the service probe.
    pub churn: ChurnTrace,
    /// Arrivals the service probe replays.
    pub probe_tasks: Vec<Task>,
}

impl Inputs {
    /// Generates every input from `seed`.
    #[must_use]
    pub fn generate(kind: Workload, seed: u64) -> Self {
        let seeds = SeedSequence::new(seed);
        let spec = kind.build_spec();
        let trial_seeds = |t: usize| seeds.child(100 + t as u64);
        let trials: Vec<Vec<Task>> = match kind {
            Workload::Paper8m => {
                let gen = WorkloadGenerator::new(WorkloadConfig {
                    num_tasks: 800,
                    oversubscription: 34_000.0,
                    ..WorkloadConfig::default()
                });
                (0..PAPER_TRIALS)
                    .map(|t| gen.generate(&spec, &mut trial_seeds(t).stream(0)))
                    .collect()
            }
            Workload::Faas256m => {
                let gen = FaasGenerator::new(Workload::faas_config());
                (0..FAAS_TRIALS)
                    .map(|t| gen.generate(&spec, &mut trial_seeds(t).stream(0)))
                    .collect()
            }
            Workload::Service64mChurn => {
                let gen = WorkloadGenerator::new(WorkloadConfig {
                    num_tasks: SERVICE_TASKS,
                    oversubscription: 272_000.0,
                    ..WorkloadConfig::default()
                });
                vec![gen.generate(&spec, &mut trial_seeds(0).stream(0))]
            }
        };
        let probe_tasks: Vec<Task> = match kind {
            Workload::Service64mChurn => trials[0].clone(),
            _ => trials[0][..PROBE_TASKS.min(trials[0].len())].to_vec(),
        };
        let window = probe_tasks.last().map_or(1, |t| t.arrival.max(1));
        let n = spec.num_machines();
        let churn_cfg = match kind {
            Workload::Service64mChurn => ChurnConfig {
                num_machines: n,
                initial_absent: 6,
                drains: 6,
                fails: 5,
                span: window,
                min_active: 40,
            },
            _ => ChurnConfig {
                num_machines: n,
                initial_absent: 2,
                drains: 2,
                fails: 2,
                span: window,
                min_active: n / 2,
            },
        };
        let churn = cluster_churn(&churn_cfg, &mut seeds.stream(3));
        Self { kind, seeds, spec, trials, churn, probe_tasks }
    }

    fn exec_rng(&self, trial: usize) -> Xoshiro256pp {
        self.seeds.child(100 + trial as u64).stream(1)
    }
}

/// The traced run's engine-side readings.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTrace {
    /// Engine steps.
    pub steps: u64,
    /// Host time inside `SimSession::step`.
    pub step_ns: u64,
    /// Host time inside the mapper's `on_mapping_event` during those steps.
    pub map_ns: u64,
    /// Host time inside the mapper's `on_task_finished` during those steps.
    pub finish_ns: u64,
    /// Mapping events the reports counted.
    pub mapping_events: u64,
    /// Trials (or replays) the readings sum over.
    pub runs: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Host time of those snapshots.
    pub snapshot_ns: u64,
    /// Bytes of those snapshots.
    pub snapshot_bytes: u64,
}

impl EngineTrace {
    /// Adds `other`'s readings to these.
    pub fn add(&mut self, other: &EngineTrace) {
        self.steps += other.steps;
        self.step_ns += other.step_ns;
        self.map_ns += other.map_ns;
        self.finish_ns += other.finish_ns;
        self.mapping_events += other.mapping_events;
        self.runs += other.runs;
        self.snapshots += other.snapshots;
        self.snapshot_ns += other.snapshot_ns;
        self.snapshot_bytes += other.snapshot_bytes;
    }
}

/// One measured repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Host time building the spec.
    pub spec_build_ns: u64,
    /// Set-up: spec build plus every mapper's construction and first event.
    pub setup_ns: u64,
    /// Host time of the steady state: everything else.
    pub steady_ns: u64,
    /// Mapping events in the steady state.
    pub steady_events: u64,
    /// What the mapper wrappers recorded.
    pub rec: Recorder,
    /// Digest of every report the repetition produced.
    pub digest: u64,
    /// Mean on-time share over trials, in percent (simulated).
    pub robustness_pct: f64,
    /// Mean cost per percent on time (simulated).
    pub cost_per_pct: f64,
    /// Runs the heuristic's counters in `rec.instr` sum over.
    pub instr_runs: u64,
    /// Share of arrivals the admission controller shed (service only).
    pub shed_share: Option<f64>,
    /// Traced: engine-side readings.
    pub engine: EngineTrace,
}

/// Runs one repetition of the workload: builds the spec and drives every
/// trial, untraced or traced, checking each report.
pub fn run_rep(inputs: &Inputs, traced: bool, threads: usize, checks: &mut Checks) -> Rep {
    let kind = inputs.kind;
    let t0 = Instant::now();
    let spec = kind.build_spec();
    let spec_build_ns = ns_since(t0);
    let rec = Recorder::shared(traced);
    match kind {
        Workload::Paper8m | Workload::Faas256m => {
            run_trials(inputs, &spec, spec_build_ns, rec, threads, checks)
        }
        Workload::Service64mChurn => {
            run_service(inputs, &spec, spec_build_ns, rec, threads, checks)
        }
    }
}

fn unshare(rec: Rc<RefCell<Recorder>>) -> Recorder {
    Rc::try_unwrap(rec).map(RefCell::into_inner).expect("every mapper wrapper has been dropped")
}

fn run_trials(
    inputs: &Inputs,
    spec: &SystemSpec,
    spec_build_ns: u64,
    rec: Rc<RefCell<Recorder>>,
    threads: usize,
    checks: &mut Checks,
) -> Rep {
    let kind = inputs.kind;
    let traced = rec.borrow().traced;
    let mut digest = Digest::default();
    let mut engine = EngineTrace::default();
    let (mut steady_ns, mut steady_events) = (0u64, 0u64);
    let (mut robustness, mut cost) = (0.0, 0.0);
    for (t, tasks) in inputs.trials.iter().enumerate() {
        let mut mapper = Timed::build(&rec, || kind.build_mapper(threads));
        let mut rng = inputs.exec_rng(t);
        let events_before = rec.borrow().events;
        let t0 = Instant::now();
        let report = if traced {
            stepped_run(
                spec,
                kind.sim_config(),
                tasks,
                None,
                &mut mapper,
                &mut rng,
                &rec,
                &mut engine,
            )
        } else {
            run_simulation(spec, kind.sim_config(), tasks, &mut mapper, &mut rng)
        };
        let wall = ns_since(t0);
        drop(mapper);
        let r = rec.borrow();
        let first = *r.first_event_ns.last().expect("a trial has at least one mapping event");
        let events = r.events - events_before;
        steady_ns += wall.saturating_sub(first);
        steady_events += events - 1;
        checks.check(one_terminal_record_per_task(&report, tasks.len()), || {
            format!("{} trial {t}: not one terminal record per task", kind.name())
        });
        checks.check(events == report.mapping_events, || {
            format!(
                "{} trial {t}: mapper saw {events} events, report counts {}",
                kind.name(),
                report.mapping_events
            )
        });
        digest.feed(&report_digest(&report).to_le_bytes());
        robustness += report.metrics.pct_on_time;
        cost += report.cost_per_percent.unwrap_or(f64::NAN);
    }
    if traced {
        steady_ns = steady_ns.saturating_sub(engine.snapshot_ns);
    }
    let n = inputs.trials.len() as f64;
    let rec = unshare(rec);
    Rep {
        spec_build_ns,
        setup_ns: spec_build_ns + rec.build_ns + rec.first_event_total(),
        steady_ns,
        steady_events,
        rec,
        digest: digest.value(),
        robustness_pct: robustness / n,
        cost_per_pct: cost / n,
        instr_runs: inputs.trials.len() as u64,
        shed_share: None,
        engine,
    }
}

/// Drives one run step by step through [`SimSession`], clocking every
/// step and taking a snapshot every [`SNAPSHOT_EVERY`] steps. The report
/// must equal [`run_simulation`]'s; the caller checks that through the
/// digest.
#[allow(clippy::too_many_arguments)]
fn stepped_run<M: Mapper>(
    spec: &SystemSpec,
    config: SimConfig,
    tasks: &[Task],
    churn: Option<&ChurnTrace>,
    mapper: &mut Timed<M>,
    rng: &mut Xoshiro256pp,
    rec: &Rc<RefCell<Recorder>>,
    engine: &mut EngineTrace,
) -> SimReport {
    let (map_before, finish_before) = {
        let r = rec.borrow();
        (r.first_event_total() + r.decisions.sum(), r.finish_ns)
    };
    let mut task_source = TaskTraceSource::new(tasks);
    let mut churn_source = churn.map(ChurnSource::new);
    let mut sources: Vec<&mut dyn EventSource> = vec![&mut task_source];
    if let Some(c) = churn_source.as_mut() {
        sources.push(c);
    }
    let mut session = SimSession::new(spec, config, &mut sources, mapper, rng);
    loop {
        let t0 = Instant::now();
        let more = session.step();
        engine.step_ns += ns_since(t0);
        if !more {
            break;
        }
        engine.steps += 1;
        if engine.steps.is_multiple_of(SNAPSHOT_EVERY) {
            let t0 = Instant::now();
            let bytes = session.snapshot();
            engine.snapshot_ns += ns_since(t0);
            engine.snapshot_bytes += bytes.len() as u64;
            engine.snapshots += 1;
        }
    }
    let report = session.finish();
    let r = rec.borrow();
    engine.map_ns += r.first_event_total() + r.decisions.sum() - map_before;
    engine.finish_ns += r.finish_ns - finish_before;
    engine.mapping_events += report.mapping_events;
    engine.runs += 1;
    report
}

/// Runs the service under `fault` through the public recovery harness.
fn service_run(
    inputs: &Inputs,
    spec: &SystemSpec,
    schedule: &ArrivalSchedule,
    fault: &FaultPlan,
    rec: &Rc<RefCell<Recorder>>,
    threads: usize,
) -> (RecoveryOutcome, u64) {
    let kind = inputs.kind;
    let t0 = Instant::now();
    let outcome = run_with_recovery(
        spec,
        kind.sim_config(),
        &service_config(),
        fault,
        Some(&inputs.churn),
        schedule.entries(),
        SERVICE_CHANNEL,
        || Timed::build(rec, || kind.build_mapper(threads)),
        || inputs.exec_rng(0),
    );
    (outcome, ns_since(t0))
}

fn service_config() -> ServiceConfig {
    ServiceConfig { backlog_bound: SERVICE_BACKLOG_BOUND, ..ServiceConfig::default() }
}

/// Checks a service report's accounting: one record per arrival, and
/// every arrival either admitted or shed.
fn check_service(checks: &mut Checks, what: &str, report: &ServiceReport, arrivals: usize) {
    checks.check(one_terminal_record_per_task(&report.sim, arrivals), || {
        format!("{what}: not one terminal record per arrival")
    });
    let accounted = report.stats.admitted + report.stats.shed;
    checks.check(accounted == arrivals as u64, || {
        format!("{what}: admitted + shed = {accounted}, arrivals = {arrivals}")
    });
}

/// Digest of a service run: the engine report plus the admission split.
fn service_digest(report: &ServiceReport) -> u64 {
    let mut digest = Digest::default();
    digest.feed(&report_digest(&report.sim).to_le_bytes());
    digest.feed(&report.stats.admitted.to_le_bytes());
    digest.feed(&report.stats.shed.to_le_bytes());
    digest.value()
}

/// The uninterrupted service run that every crashed and resumed run must
/// reproduce bit for bit. Run once per process, untimed.
#[derive(Debug, Clone, Copy)]
pub struct ServiceReference {
    /// Digest of the uninterrupted run.
    pub digest: u64,
    /// Epoch checkpoints it took.
    pub checkpoints: u64,
}

/// Runs the service on the workload's inputs without a fault.
pub fn service_reference(inputs: &Inputs, checks: &mut Checks) -> ServiceReference {
    let schedule = ArrivalSchedule::from_tasks(&inputs.trials[0]);
    let rec = Recorder::shared(false);
    let (clean, _) =
        service_run(inputs, &inputs.spec, &schedule, &FaultPlan::none(), &rec, THREADS);
    checks.check(clean.killed_at_epoch.is_none(), || "uninterrupted service was killed".into());
    check_service(checks, "uninterrupted service", &clean.report, inputs.trials[0].len());
    ServiceReference {
        digest: service_digest(&clean.report),
        checkpoints: clean.report.stats.checkpoints,
    }
}

fn run_service(
    inputs: &Inputs,
    spec: &SystemSpec,
    spec_build_ns: u64,
    rec: Rc<RefCell<Recorder>>,
    threads: usize,
    checks: &mut Checks,
) -> Rep {
    let tasks = &inputs.trials[0];
    let schedule = ArrivalSchedule::from_tasks(tasks);
    let kill = FaultPlan { kill_at_epoch: Some(SERVICE_KILL_EPOCH), ..FaultPlan::none() };
    let (crashed, wall_ns) = service_run(inputs, spec, &schedule, &kill, &rec, threads);
    checks.check(crashed.killed_at_epoch == Some(SERVICE_KILL_EPOCH), || {
        format!("kill at epoch {SERVICE_KILL_EPOCH} did not fire")
    });
    check_service(checks, "crash-resumed service", &crashed.report, tasks.len());

    let mut rec = unshare(rec);
    // The restored mapper resumes the heuristic's counters from the kill
    // checkpoint, so the last life's counters cover the whole run.
    rec.instr = rec.last_instr;
    let restore_ns = crashed.restore_nanos.unwrap_or(0);
    let one_time = rec.build_ns + rec.first_event_total();
    let lives = rec.first_event_ns.len() as u64;
    let report = &crashed.report;
    Rep {
        spec_build_ns,
        setup_ns: spec_build_ns + one_time,
        steady_ns: wall_ns.saturating_sub(one_time + restore_ns),
        steady_events: rec.events - lives,
        rec,
        digest: service_digest(report),
        robustness_pct: report.sim.metrics.pct_on_time,
        cost_per_pct: report.sim.cost_per_percent.unwrap_or(f64::NAN),
        instr_runs: 1,
        shed_share: Some(report.stats.shed as f64 / tasks.len() as f64),
        engine: EngineTrace::default(),
    }
}

/// The engine-side readings for the service workload, whose driver owns
/// its session: the same spec, tasks and churn replayed offline (every
/// arrival admitted) through a stepped [`SimSession`].
pub fn engine_replay(inputs: &Inputs, checks: &mut Checks) -> EngineTrace {
    let kind = inputs.kind;
    let rec = Recorder::shared(true);
    let mut engine = EngineTrace::default();
    let mut mapper = Timed::build(&rec, || kind.build_mapper(THREADS));
    let mut rng = inputs.exec_rng(0);
    let tasks = &inputs.trials[0];
    let report = stepped_run(
        &inputs.spec,
        kind.sim_config(),
        tasks,
        Some(&inputs.churn),
        &mut mapper,
        &mut rng,
        &rec,
        &mut engine,
    );
    drop(mapper);
    checks.check(one_terminal_record_per_task(&report, tasks.len()), || {
        "offline replay: not one terminal record per task".into()
    });
    engine
}

/// Direct readings of the service layer on the workload's own spec: a
/// checkpoint taken by killing a served run, its encode and decode time,
/// and the restore time of resuming from it.
#[derive(Debug, Clone, Copy)]
pub struct ServiceProbe {
    /// Median host time of `ServiceCheckpoint::to_bytes`.
    pub encode_ns: f64,
    /// Median host time of `ServiceCheckpoint::from_bytes`.
    pub decode_ns: f64,
    /// Restore time `resume` reported.
    pub restore_ns: u64,
    /// Epoch checkpoints over the resumed run.
    pub checkpoints: u64,
    /// Share of the probe's arrivals shed.
    pub shed_share: f64,
}

/// Serves the probe arrivals under the probe churn, kills the service at
/// `kill_epoch`, times the checkpoint codec and resumes to completion.
/// `None` when the kill never fired (counted as a failed check).
pub fn service_probe(inputs: &Inputs, checks: &mut Checks) -> Option<ServiceProbe> {
    const CODEC_REPS: usize = 31;
    let kind = inputs.kind;
    let spec = &inputs.spec;
    let config = kind.sim_config();
    let service = service_config();
    let schedule = ArrivalSchedule::from_tasks(&inputs.probe_tasks);
    let schedule = schedule.entries();
    // Mid-run, so the checkpoint carries a loaded engine.
    let kill_epoch = (inputs.churn.events.len() as u64 / 2).max(1);
    let fault = FaultPlan { kill_at_epoch: Some(kill_epoch), ..FaultPlan::none() };

    let mut mapper = kind.build_mapper(THREADS);
    let mut rng = inputs.exec_rng(0);
    let exit = std::thread::scope(|s| {
        let (tx, rx) = bounded::<Task>(SERVICE_CHANNEL);
        s.spawn(move || feed_schedule(&tx, schedule));
        let mut churn = ChurnSource::new(&inputs.churn);
        let mut sources: Vec<&mut dyn EventSource> = vec![&mut churn];
        serve(spec, config, &service, &fault, &mut sources, rx, &mut mapper, &mut rng)
    });
    mapper.on_shutdown();
    drop(mapper);
    let checkpoint = match exit {
        ServiceExit::Killed { checkpoint, .. } => checkpoint,
        ServiceExit::Completed(_) => {
            checks
                .check(false, || format!("service probe: kill at epoch {kill_epoch} did not fire"));
            return None;
        }
    };

    let mut encode = Vec::with_capacity(CODEC_REPS);
    let mut decode = Vec::with_capacity(CODEC_REPS);
    let mut decoded = None;
    for _ in 0..CODEC_REPS {
        let t0 = Instant::now();
        let bytes = std::hint::black_box(checkpoint.to_bytes());
        encode.push(ns_since(t0) as f64);
        let t0 = Instant::now();
        let back = ServiceCheckpoint::from_bytes(std::hint::black_box(&bytes));
        decode.push(ns_since(t0) as f64);
        decoded = Some(back);
    }
    let decoded = decoded.expect("at least one codec repetition").ok();
    checks.check(decoded.as_ref() == Some(&checkpoint), || {
        "service probe: checkpoint does not decode to itself".into()
    });
    let decoded = decoded?;

    let mut mapper = kind.build_mapper(THREADS);
    let mut rng = inputs.exec_rng(0);
    let resumed = std::thread::scope(|s| {
        let (tx, rx) = bounded::<Task>(SERVICE_CHANNEL);
        s.spawn(move || feed_schedule(&tx, schedule));
        resume(spec, config, &service, &FaultPlan::none(), rx, &decoded, &mut mapper, &mut rng)
    });
    mapper.on_shutdown();
    let (exit, restore_ns) = match resumed {
        Ok(r) => r,
        Err(e) => {
            checks.check(false, || format!("service probe: checkpoint failed to restore: {e}"));
            return None;
        }
    };
    let report = match exit {
        ServiceExit::Completed(report) => *report,
        ServiceExit::Killed { .. } => {
            checks.check(false, || "service probe: resumed run was killed".into());
            return None;
        }
    };
    check_service(checks, "service probe", &report, inputs.probe_tasks.len());
    Some(ServiceProbe {
        encode_ns: crate::stats::median(&encode),
        decode_ns: crate::stats::median(&decode),
        restore_ns,
        checkpoints: report.stats.checkpoints,
        shed_share: report.stats.shed as f64 / inputs.probe_tasks.len() as f64,
    })
}
