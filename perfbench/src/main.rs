//! The simulator's benchmark: one command, three workloads, every metric
//! printed by name with its unit, and the simulated outputs checked.
//!
//! ```text
//! hcsim-perfbench --workload <paper_8m|faas_256m|service_64m_churn>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run.
//! `--trace 1` runs the workload untraced and then traced for half the
//! time each, then once more with the mapper's worker pool at two
//! threads, and reports the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The benchmark drives the program only through public items of its
//! crates; see `README.md` for what each metric means.

#![forbid(unsafe_code)]

mod layers;
mod probe;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{highest_supported, median, self_time, Checks, Histogram};
use workloads::{
    engine_replay, run_rep, service_probe, service_reference, Inputs, Rep, ServiceReference,
    Workload, POOL_THREADS, THREADS,
};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 2019;
/// The second seed, never used while the benchmark was tuned.
const HELD_OUT_SEED: u64 = 4242;

/// Outcome digests recorded for the default and held-out seeds: a run on
/// one of these seeds whose digest differs has changed the simulated
/// outcome.
const RECORDED_DIGESTS: &[(&str, u64, u64)] = &[
    ("paper_8m", DEFAULT_SEED, 0xa6ab_f6c6_141c_6620),
    ("faas_256m", DEFAULT_SEED, 0x8fc4_75a6_c1cb_469a),
    ("service_64m_churn", DEFAULT_SEED, 0x6042_6761_6bf9_6077),
    ("paper_8m", HELD_OUT_SEED, 0x30ce_5eb5_4d7f_15d3),
    ("faas_256m", HELD_OUT_SEED, 0x782e_0800_cf21_06fe),
    ("service_64m_churn", HELD_OUT_SEED, 0xb96a_77c3_cd06_5001),
];

/// End-to-end metrics, reported by `--trace 0`: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "events/s"),
    ("setup_s", "s"),
    ("decision_p50_us", "us"),
    ("decision_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("robustness_pct", "%"),
    ("cost_per_pct", "USD/%"),
    ("checks_ok_share", "ratio"),
];

/// Per-layer metrics, reported by `--trace 1`: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.spec_build_ms", "ms"),
    ("core.scorer_init_ms", "ms"),
    ("core.first_event_ms", "ms"),
    ("core.map_us", "us"),
    ("core.map_share", "ratio"),
    ("core.table_reuse_ratio", "ratio"),
    ("core.batch_len", "count"),
    ("core.queue_depth", "count"),
    ("core.deferred_per_event", "count"),
    ("core.pruner_drops", "count"),
    ("core.dropping_engaged_share", "ratio"),
    ("core.finish_ns", "ns"),
    ("sim.step_self_us", "us"),
    ("sim.steps", "count"),
    ("sim.mapping_events", "count"),
    ("sim.snapshot_us", "us"),
    ("sim.snapshot_bytes", "bytes"),
    ("service.checkpoint_encode_us", "us"),
    ("service.checkpoint_decode_us", "us"),
    ("service.restore_us", "us"),
    ("service.checkpoints", "count"),
    ("service.admission_ns", "ns"),
    ("service.shed_share", "ratio"),
    ("parallel.cpu_per_wall", "ratio"),
    ("parallel.speedup_t2", "ratio"),
    ("pmf.convolve_ns", "ns"),
    ("pmf.queue_step_ns", "ns"),
    ("bench.trace_overhead", "ratio"),
    ("bench.decision_samples", "count"),
];

const USAGE: &str = "usage: hcsim-perfbench --workload <paper_8m|faas_256m|service_64m_churn> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().ok().filter(|&s| s >= 1).ok_or_else(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

/// The repetitions of one measured phase, each one's decision-time
/// median and p99 (in ns, `None` when it timed too few decisions), and
/// the steady-state decision times of all of them (merged, so memory
/// stays flat however many repetitions run).
struct Phase {
    reps: Vec<Rep>,
    p50_ns: Vec<Option<f64>>,
    p99_ns: Vec<Option<f64>>,
    decisions: Histogram,
}

/// Repeats the workload until `budget` has passed and at least
/// `min_reps` repetitions ran, checking that every repetition's outcome
/// matches the first's.
fn measure(
    inputs: &Inputs,
    traced: bool,
    threads: usize,
    budget: Duration,
    min_reps: usize,
    checks: &mut Checks,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase {
        reps: Vec::new(),
        p50_ns: Vec::new(),
        p99_ns: Vec::new(),
        decisions: Histogram::default(),
    };
    while phase.reps.len() < min_reps || start.elapsed() < budget {
        let mut rep = run_rep(inputs, traced, threads, checks);
        if let Some(first) = phase.reps.first() {
            checks.check(rep.digest == first.digest, || {
                format!("repetition {} produced a different outcome", phase.reps.len())
            });
        }
        let decisions = std::mem::take(&mut rep.rec.decisions);
        phase.p50_ns.push(decisions.percentile(500));
        phase.p99_ns.push(decisions.percentile(990));
        phase.decisions.merge(&decisions);
        phase.reps.push(rep);
    }
    phase
}

impl Phase {
    fn events_per_s(&self) -> f64 {
        let rates: Vec<f64> =
            self.reps.iter().map(|r| r.steady_events as f64 / (r.steady_ns as f64 / 1e9)).collect();
        median(&rates)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

/// Median over repetitions of a per-repetition value; NaN when any
/// repetition lacks it.
fn median_of(values: &[Option<f64>]) -> f64 {
    values.iter().copied().collect::<Option<Vec<f64>>>().map_or(f64::NAN, |v| median(&v))
}

fn end_to_end(phase: &Phase, checks: &Checks) -> BTreeMap<&'static str, f64> {
    let setup: Vec<f64> = phase.reps.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let first = &phase.reps[0];
    BTreeMap::from([
        ("events_per_s", phase.events_per_s()),
        ("setup_s", median(&setup)),
        ("decision_p50_us", median_of(&phase.p50_ns) / 1e3),
        ("decision_p99_us", median_of(&phase.p99_ns) / 1e3),
        ("peak_rss_mib", probe::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1048576.0)),
        ("robustness_pct", first.robustness_pct),
        ("cost_per_pct", first.cost_per_pct),
        ("checks_ok_share", 1.0 - ratio(checks.failed(), checks.attempted)),
    ])
}

/// The traced run: the untraced and traced halves, the engine replay for
/// the service, and the direct probes.
fn per_layer(
    inputs: &Inputs,
    untraced: &Phase,
    traced: &Phase,
    reference: Option<ServiceReference>,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let spec = &inputs.spec;
    let mut rec = probe::Recorder::default();
    let mut instr_runs = 0;
    let mut engine = workloads::EngineTrace::default();
    for r in &traced.reps {
        rec.absorb(&r.rec);
        instr_runs += r.instr_runs;
        engine.add(&r.engine);
    }
    if inputs.kind == Workload::Service64mChurn {
        engine = engine_replay(inputs, checks);
    }
    let service = service_probe(inputs, checks);
    let (shed_share, checkpoints) = match (traced.reps[0].shed_share, reference) {
        (Some(s), Some(r)) => (s, r.checkpoints as f64),
        _ => service.map_or((f64::NAN, f64::NAN), |p| (p.shed_share, p.checkpoints as f64)),
    };
    let (convolve_ns, queue_step_ns) = layers::pmf_kernel_ns(spec, 15);
    let spec_build: Vec<f64> =
        untraced.reps.iter().chain(&traced.reps).map(|r| r.spec_build_ns as f64 / 1e6).collect();
    let n_first = rec.first_event_ns.len() as u64;
    let events = rec.events;
    BTreeMap::from([
        ("workload.spec_build_ms", median(&spec_build)),
        ("core.scorer_init_ms", layers::scorer_init_ns(spec, 3) / 1e6),
        ("core.first_event_ms", ratio(rec.first_event_total(), n_first) / 1e6),
        ("core.map_us", ratio(traced.decisions.sum(), traced.decisions.count()) / 1e3),
        ("core.map_share", ratio(engine.map_ns, engine.step_ns)),
        ("core.table_reuse_ratio", ratio(rec.instr.table_reuses, rec.instr.mapping_events)),
        ("core.batch_len", ratio(rec.batch_len_sum, events)),
        ("core.queue_depth", ratio(rec.queue_depth_sum, events)),
        ("core.deferred_per_event", ratio(rec.deferred_sum, events)),
        ("core.pruner_drops", ratio(rec.instr.pruner_drops, instr_runs)),
        (
            "core.dropping_engaged_share",
            ratio(rec.instr.events_dropping_engaged, rec.instr.mapping_events),
        ),
        ("core.finish_ns", ratio(rec.finish_ns, rec.finish_calls)),
        (
            "sim.step_self_us",
            ratio(self_time(engine.step_ns, &[engine.map_ns, engine.finish_ns]), engine.steps)
                / 1e3,
        ),
        ("sim.steps", ratio(engine.steps, engine.runs)),
        ("sim.mapping_events", ratio(engine.mapping_events, engine.runs)),
        ("sim.snapshot_us", ratio(engine.snapshot_ns, engine.snapshots) / 1e3),
        ("sim.snapshot_bytes", ratio(engine.snapshot_bytes, engine.snapshots)),
        ("service.checkpoint_encode_us", service.map_or(f64::NAN, |p| p.encode_ns / 1e3)),
        ("service.checkpoint_decode_us", service.map_or(f64::NAN, |p| p.decode_ns / 1e3)),
        ("service.restore_us", service.map_or(f64::NAN, |p| p.restore_ns as f64 / 1e3)),
        ("service.checkpoints", checkpoints),
        ("service.admission_ns", layers::admission_ns(spec, &inputs.probe_tasks, 15)),
        ("service.shed_share", shed_share),
        ("pmf.convolve_ns", convolve_ns),
        ("pmf.queue_step_ns", queue_step_ns),
        ("bench.trace_overhead", traced.events_per_s() / untraced.events_per_s()),
        ("bench.decision_samples", untraced.decisions.count() as f64),
    ])
}

/// Renders the result line, or an error naming the first metric that is
/// missing or not a finite number.
fn render(
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
    checks: &Checks,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v = *values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        metrics.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed() == 0,
        checks.attempted,
        checks.failed(),
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = args.workload;
    let inputs = Inputs::generate(kind, args.seed);
    let mut checks = Checks::default();
    let budget = Duration::from_secs(args.seconds);

    let reference =
        (kind == Workload::Service64mChurn).then(|| service_reference(&inputs, &mut checks));
    let (untraced, mut values, table) = if args.trace {
        let untraced = measure(&inputs, false, THREADS, budget / 2, 1, &mut checks);
        let traced = measure(&inputs, true, THREADS, budget / 2, 1, &mut checks);
        checks.check(traced.reps[0].digest == untraced.reps[0].digest, || {
            "traced run's outcome differs from the untraced run's".into()
        });
        let cpu0 = probe::process_cpu_s();
        let wall0 = Instant::now();
        let pool = measure(&inputs, false, POOL_THREADS, Duration::ZERO, 1, &mut checks);
        let cpu_per_wall = match (cpu0, probe::process_cpu_s()) {
            (Some(a), Some(b)) => (b - a) / wall0.elapsed().as_secs_f64(),
            _ => f64::NAN,
        };
        checks.check(pool.reps[0].digest == untraced.reps[0].digest, || {
            format!("outcome at {POOL_THREADS} threads differs from the one at {THREADS}")
        });
        let mut values = per_layer(&inputs, &untraced, &traced, reference, &mut checks);
        values.insert("parallel.cpu_per_wall", cpu_per_wall);
        values.insert("parallel.speedup_t2", pool.events_per_s() / untraced.events_per_s());
        (untraced, values, PER_LAYER)
    } else {
        let phase = measure(&inputs, false, THREADS, budget, 2, &mut checks);
        let values = end_to_end(&phase, &checks);
        (phase, values, END_TO_END)
    };

    let digest = untraced.reps[0].digest;
    if let Some(r) = reference {
        checks.check(digest == r.digest, || {
            "crash-resumed service report differs from the uninterrupted one".into()
        });
    }
    let recorded = RECORDED_DIGESTS
        .iter()
        .find(|(w, seed, _)| *w == kind.name() && *seed == args.seed)
        .map(|&(_, _, d)| d);
    if let Some(expected) = recorded {
        checks.check(digest == expected, || {
            format!("outcome digest {digest:016x} differs from the recorded {expected:016x}")
        });
    }
    // Some checks come after the end-to-end values were taken, so refresh
    // the share of checks passed.
    if !args.trace {
        values.insert("checks_ok_share", 1.0 - ratio(checks.failed(), checks.attempted));
    }

    let decisions = &untraced.decisions;
    let n = usize::try_from(decisions.count()).unwrap_or(usize::MAX);
    let tail = highest_supported(n, &[500, 900, 990, 999]);
    let seed_note = match args.seed {
        DEFAULT_SEED => ", the default seed",
        HELD_OUT_SEED => ", the held-out seed",
        _ => "",
    };
    println!(
        "workload {} seed {}{seed_note} ({} repetitions)",
        kind.name(),
        args.seed,
        untraced.reps.len()
    );
    println!("  params: {}", kind.params());
    println!("  why: {}", kind.why());
    println!(
        "  outcome digest {digest:016x}{}",
        match recorded {
            Some(_) => " (checked against the recorded one)",
            None => " (no digest recorded for this seed)",
        }
    );
    println!(
        "  decisions {}: p99 has {} samples beyond it; highest percentile with {} beyond: {}",
        n,
        stats::beyond(n, 990),
        stats::MIN_BEYOND,
        tail.map_or("none".to_string(), |p| format!(
            "p{} = {:.1} us",
            p as f64 / 10.0,
            decisions.percentile(p).unwrap_or(f64::NAN) / 1e3
        )),
    );
    for (i, r) in untraced.reps.iter().enumerate() {
        println!(
            "  repetition {i}: set-up {:.4} s, {} steady events in {:.4} s ({:.0} events/s)",
            r.setup_ns as f64 / 1e9,
            r.steady_events,
            r.steady_ns as f64 / 1e9,
            r.steady_events as f64 / (r.steady_ns as f64 / 1e9)
        );
    }
    println!("  checks: {} attempted, {} failed", checks.attempted, checks.failed());
    for f in &checks.failures {
        println!("  FAILED: {f}");
    }
    for (name, unit) in table {
        if let Some(v) = values.get(name) {
            println!("  {name:<30} {v:>16.4} {unit}");
        }
    }
    match render(table, &values, &checks) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn plain_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_are_plain() {
        let metrics = END_TO_END.iter().chain(PER_LAYER);
        let mut names: Vec<&str> = metrics.clone().map(|(n, _)| *n).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(plain_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
        }
        for (name, unit) in metrics {
            assert!(plain_unit(unit), "{name}: unit {unit:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "every name is used once");
        assert!(plain_name("core.map_us") && !plain_name("core map") && !plain_name("_x"));
    }

    #[test]
    fn workload_names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("paper"), None);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut expected = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(doc.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name}");
            expected += 1;
        }
        for w in Workload::ALL {
            assert!(doc.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
            expected += 1;
        }
        assert_eq!(doc.matches("\"name\":").count(), expected, "no other names listed");
    }

    #[test]
    fn render_refuses_missing_and_non_finite_metrics() {
        let checks = Checks::default();
        let table = [("a", "s"), ("b", "ms")];
        let ok = BTreeMap::from([("a", 1.5), ("b", 2.0)]);
        assert_eq!(
            render(&table, &ok, &checks).expect("complete"),
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        assert!(render(&table, &BTreeMap::from([("a", 1.0)]), &checks).is_err());
        assert!(render(&table, &BTreeMap::from([("a", 1.0), ("b", f64::NAN)]), &checks).is_err());
    }
}
