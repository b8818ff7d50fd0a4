//! `perfbench` — the service benchmark of the gpm workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> [--runs <n>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! A run repeats whole rounds of one workload for `--seconds` (and at least
//! 100 batches), checks every output, prints the rounds' exact work counts
//! and, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `steady` runs one workload several
//! times in child processes and prints each end-to-end metric's median and
//! quartiles, flagging any difference in work counts. See README.md.

mod check;
mod cpu;
mod run;
mod stats;
mod trace;
mod workload;

use run::{inproc_round, wire_round, Measured, WorkCounts};
use stats::{mean, median, nearest_rank, quartiles};
use std::process::ExitCode;
use std::time::Instant;
use trace::{traced_round, Traced};
use workload::{Inputs, Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                     \x20      perfbench steady --workload <name> [--runs <n>] [--seed <n>] [--seconds <s>]";

/// Batches a run needs so that at least ten samples lie beyond its p90.
const MIN_BATCHES: usize = 100;

/// Set-ups timed on their own at the start of a run, besides the one that
/// opens each round: every round is long, so rounds alone give too few
/// `setup_s` samples for a steady median.
const SETUP_REPEATS: usize = 4;

/// Whether a run that started at `start` and has done `done` rounds starts
/// another: until it has `min_rounds`, then while that round is expected to
/// end nearer to the `seconds` budget than stopping now would.
fn another_round(done: usize, min_rounds: usize, start: Instant, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    done < min_rounds || elapsed + elapsed / done as f64 / 2.0 < seconds
}

/// The workload seed when `--seed` is not given (README: seeds).
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse(argv: &[String], steady: bool) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut runs = 5;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload `{value}` (expected one of {})",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" if !steady => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--runs" if steady => {
                runs = value
                    .parse()
                    .ok()
                    .filter(|&r: &usize| (2..=50).contains(&r))
                    .ok_or_else(|| bad("a run count from 2 to 50"))?
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        runs,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let steady = argv.first().map(String::as_str) == Some("steady");
    let args = match parse(&argv[usize::from(steady)..], steady) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if steady {
        return steady_command(&args);
    }
    // Before any thread is spawned, so that server and subscriber threads
    // inherit the mask (see cpu.rs). A multi-worker service keeps its CPUs.
    if args.workload.workers == 1 {
        match cpu::pin_to_one_cpu() {
            Some(c) => println!("all threads on CPU {c}"),
            None => println!("all threads unpinned: CPU affinity not available"),
        }
        println!("one malloc arena: {}", cpu::one_malloc_arena());
    }
    let report = if args.trace {
        traced_run(&args)
    } else {
        measured_run(&args)
    };
    println!("{report}");
    ExitCode::SUCCESS
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn describe(w: &Workload, seed: u64, inp: &Inputs) {
    println!(
        "workload {}: seed {seed}, |V| = {}, |E| = {}, {} oracle, K = {}, P(4, 4, 3) DAG patterns, \
         {}-update 50/50 batches, churn every {} batches, {} worker(s), {} batches per round{}",
        w.name,
        inp.graph.node_count(),
        inp.graph.edge_count(),
        w.backend,
        w.queries,
        w.batch_size,
        w.churn_every,
        w.workers,
        w.round_batches,
        if w.wire {
            format!(
                ", wire subscriber on initial query #{} (changes on {} of {} batches)",
                inp.subscribed,
                inp.subscribed_changes,
                inp.batches.len()
            )
        } else {
            String::new()
        }
    );
}

fn round(w: &Workload, inp: &Inputs, m: &mut Measured) -> Result<WorkCounts, String> {
    if w.wire {
        wire_round(w, inp, m)
    } else {
        inproc_round(w, inp, m)
    }
}

/// Prints the work counts of the rounds and whether every round did the
/// same work (`aff2`, seen only when traced, is left out of the comparison).
fn report_counts(label: &str, rounds: &[WorkCounts], reference: Option<&WorkCounts>) -> bool {
    let strip = |c: &WorkCounts| WorkCounts {
        aff2: None,
        ..c.clone()
    };
    let first = rounds.first().map(strip);
    let agree = rounds.iter().all(|c| Some(strip(c)) == first)
        && reference.is_none_or(|r| Some(strip(r)) == first);
    match rounds.first() {
        Some(c) => {
            println!("counts {label} per round: {}", c.json());
            println!(
                "rounds: {}, identical work in every round: {agree}",
                rounds.len()
            );
        }
        None => println!("counts {label}: no complete round"),
    }
    agree
}

/// Untraced set-ups and rounds: at least `MIN_BATCHES` batches, then
/// rounds while they fit in `seconds`. Returns the first error, if any.
fn untraced(w: &Workload, inp: &Inputs, seconds: f64) -> (Measured, Option<String>) {
    gpm::obs::set_enabled(false);
    let mut m = Measured::default();
    let min_rounds = MIN_BATCHES.div_ceil(w.round_batches);
    let start = Instant::now();
    let mut error = (0..SETUP_REPEATS).find_map(|_| run::setup_only(w, inp, &mut m).err());
    while error.is_none() && another_round(m.rounds.len(), min_rounds, start, seconds) {
        let mark = m.mark();
        match round(w, inp, &mut m) {
            Ok(c) => m.end_round(mark, c),
            Err(e) => error = Some(e),
        }
    }
    println!(
        "untraced samples: {} setups, {} batches, {} registrations in {:.1} s",
        m.setup_s.len(),
        m.batch_ms.len(),
        m.register_ms.len(),
        start.elapsed().as_secs_f64()
    );
    (m, error)
}

fn measured_run(a: &Args) -> String {
    let w = a.workload;
    let inp = Inputs::generate(w, a.seed);
    describe(w, a.seed, &inp);
    let (m, error) = untraced(w, &inp, a.seconds);
    let agree = report_counts("untraced", &m.rounds, None);
    if let Some(e) = &error {
        eprintln!("perfbench: {}: {e}", w.name);
    }
    let metrics = [
        Metric::new("setup_s", median(&m.setup_s).unwrap_or(0.0), "s"),
        Metric::new(
            "batch_p50_ms",
            nearest_rank(&m.batch_ms, 0.5).unwrap_or(0.0),
            "ms",
        ),
        // Per round, then the median over rounds: a burst of host load
        // that spoils one round of a run does not move these.
        Metric::new("batch_p90_ms", median(&m.round_p90_ms).unwrap_or(0.0), "ms"),
        Metric::new(
            "updates_per_s",
            median(&m.round_updates_per_s).unwrap_or(0.0),
            "1/s",
        ),
        Metric::new(
            "register_p50_ms",
            nearest_rank(&m.register_ms, 0.5).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("rss_peak_mib", run::rss_peak_mib(), "MiB"),
    ];
    let failed = u64::from(error.is_some());
    result_line(
        error.is_none() && agree,
        m.operations + failed,
        failed,
        &metrics,
    )
}

fn traced_run(a: &Args) -> String {
    let w = a.workload;
    let inp = Inputs::generate(w, a.seed);
    describe(w, a.seed, &inp);
    // The shortest untraced run first: the reference for the overhead.
    let (base, mut error) = untraced(w, &inp, 0.0);

    gpm::obs::set_enabled(true);
    let mut t = Traced::default();
    let mut rounds: Vec<WorkCounts> = Vec::new();
    let start = Instant::now();
    while error.is_none() && another_round(rounds.len(), 1, start, a.seconds) {
        match traced_round(w, &inp, &mut t) {
            Ok(c) => rounds.push(c),
            Err(e) => error = Some(e),
        }
    }
    gpm::obs::set_enabled(false);
    let agree = report_counts("traced", &rounds, base.rounds.first());
    if let Some(e) = &error {
        eprintln!("perfbench: {}: {e}", w.name);
    }

    let n = t.batches.max(1) as f64;
    let per_batch_ms = |secs: f64| secs * 1e3 / n;
    let coverage = t.coverage();
    let overhead = median(&t.e2e_ms).unwrap_or(0.0) / median(&base.batch_ms).unwrap_or(1.0) - 1.0;
    println!(
        "trace: {} traced batches, spans cover {:.1}% of service.apply_ms, tracing overhead {:+.1}% \
         (median batch {:.3} ms traced vs {:.3} ms untraced)",
        t.batches,
        coverage * 100.0,
        overhead * 100.0,
        median(&t.e2e_ms).unwrap_or(0.0),
        median(&base.batch_ms).unwrap_or(0.0)
    );
    // A shortfall speaks of the trace, not of the service's outputs, so it
    // is reported but does not make the run incorrect.
    if coverage < 0.95 {
        eprintln!(
            "perfbench: {}: spans cover only {:.1}% of service.apply_ms (want >= 95%)",
            w.name,
            coverage * 100.0
        );
    }
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let metrics = [
        Metric::new("graph.mutate_ms", per_batch_ms(t.mutate_s), "ms"),
        Metric::new("distance.maintain_ms", per_batch_ms(t.maintain_s), "ms"),
        Metric::new("distance.aff1_pairs", t.aff1 as f64 / n, "count"),
        Metric::new(
            "distance.aff1_crossing_share",
            share(t.aff1_crossing, t.aff1),
            "share",
        ),
        Metric::new("distance.rebuilds", t.rebuilds as f64 / n, "count"),
        Metric::new("distance.rebuild_ms", t.rebuild_ns as f64 / 1e6 / n, "ms"),
        Metric::new(
            "distance.label_queries",
            t.label_queries as f64 / n,
            "count",
        ),
        Metric::new(
            "distance.build_ms",
            median(&t.build_ms).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "distance.oracle_mib",
            median(&t.oracle_mib).unwrap_or(0.0),
            "MiB",
        ),
        Metric::new("core.match_ms", mean(&t.match_ms), "ms"),
        Metric::new("incremental.repair_ms", per_batch_ms(t.repair_sum_s), "ms"),
        Metric::new(
            "incremental.verifications",
            t.verifications as f64 / n,
            "count",
        ),
        Metric::new("incremental.aff2_pairs", t.aff2 as f64 / n, "count"),
        Metric::new(
            "incremental.useful_share",
            share(t.aff2, t.verifications),
            "share",
        ),
        Metric::new("service.apply_ms", per_batch_ms(t.apply_s), "ms"),
        Metric::new("service.delta_ms", per_batch_ms(t.delta_s), "ms"),
        Metric::new("service.unattributed_share", 1.0 - coverage, "share"),
        Metric::new("net.rtt_ms", per_batch_ms(t.rtt_s), "ms"),
        Metric::new("net.overhead_ms", per_batch_ms(t.overhead_s), "ms"),
        Metric::new("net.codec_ms", per_batch_ms(t.codec_s), "ms"),
        Metric::new("net.frame_bytes", t.frame_bytes as f64 / n, "bytes"),
        Metric::new("net.sub_lag_ms", mean(&t.sub_lag_ms), "ms"),
        Metric::new("net.sub_lag_samples", t.sub_lag_ms.len() as f64, "count"),
        Metric::new(
            "exec.busy_share",
            t.busy_ns as f64 / (w.workers as f64 * t.apply_s * 1e9),
            "share",
        ),
        Metric::new("trace.overhead_share", overhead, "share"),
    ];
    for metric in &metrics {
        println!(
            "layer {:<30} {:>14.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let operations = base.operations + t.batches + (rounds.len() * w.churns_per_round()) as u64;
    let failed = u64::from(error.is_some());
    result_line(
        error.is_none() && agree,
        operations + failed,
        failed,
        &metrics,
    )
}

/// Runs the workload `--runs` times in child processes with one seed and
/// prints each end-to-end metric's median and quartiles.
fn steady_command(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench steady: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut counts: Vec<String> = Vec::new();
    let mut all_correct = true;
    for run in 1..=a.runs {
        let out = std::process::Command::new(&exe)
            .args(["--workload", a.workload.name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", "0"])
            .output();
        let out = match out {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            Ok(out) => {
                eprintln!("perfbench steady: run {run} exited with {}", out.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench steady: run {run} did not start: {e}");
                return ExitCode::FAILURE;
            }
        };
        counts.extend(
            out.lines()
                .filter(|l| l.starts_with("counts "))
                .map(str::to_owned),
        );
        let last = out.lines().last().unwrap_or_default();
        let Ok(serde::Value::Map(top)) = serde_json::from_str::<serde::Value>(last) else {
            eprintln!("perfbench steady: run {run} printed no result line");
            return ExitCode::FAILURE;
        };
        for (key, value) in &top {
            match (key.as_str(), value) {
                ("correct", serde::Value::Bool(ok)) => all_correct &= ok,
                ("metrics", serde::Value::Map(metrics)) => {
                    for (name, metric) in metrics {
                        let (v, unit) = metric_value(metric);
                        match values.iter_mut().find(|(n, _, _)| n == name) {
                            Some((_, _, vs)) => vs.push(v),
                            None => values.push((name.clone(), unit, vec![v])),
                        }
                    }
                }
                _ => {}
            }
        }
        println!("run {run}/{}: {last}", a.runs);
    }
    println!(
        "\n{} x {} (seed {}, {} s each): all correct: {all_correct}",
        a.runs, a.workload.name, a.seed, a.seconds
    );
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>8}  unit",
        "metric", "q1", "median", "q3", "iqr/med"
    );
    for (name, unit, vs) in &values {
        let med = median(vs).unwrap_or(0.0);
        let (q1, q3) = quartiles(vs).unwrap_or((med, med));
        println!(
            "{name:<18} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>7.2}%  {unit}",
            (q3 - q1) / med * 100.0
        );
    }
    let identical = counts.iter().all(|c| *c == counts[0]);
    if identical {
        println!(
            "work counts identical across runs: {}",
            counts.first().map_or("", |c| c)
        );
    } else {
        println!("WORK COUNTS DIFFER between runs:");
        for c in &counts {
            println!("  {c}");
        }
    }
    if all_correct && identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_value(metric: &serde::Value) -> (f64, String) {
    let mut value = f64::NAN;
    let mut unit = String::new();
    if let serde::Value::Map(fields) = metric {
        for (k, v) in fields {
            match (k.as_str(), v) {
                ("value", serde::Value::Float(f)) => value = *f,
                ("value", serde::Value::Int(i)) => value = *i as f64,
                ("unit", serde::Value::Str(s)) => unit = s.clone(),
                _ => {}
            }
        }
    }
    (value, unit)
}
