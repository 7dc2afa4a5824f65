//! End-to-end host-time benchmark of the Distributed-HISQ reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A closed loop of one client with 2 sweep workers: generate scenario
//! files from the seed, then time whole passes (parse → expand →
//! `run_sweep_cached` with a fresh cache → `SweepReport::to_json`, once
//! per file) for `--seconds`, checking every pass's output. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` interleaves traced and
//! untraced passes and prints the per-layer metrics. The last stdout
//! line is the JSON result. See `hostbench/README.md`.

mod inputs;
mod pass;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pass::{check, fingerprint, timed_pass, FileRun, Tally, THREADS};

/// The seed whose reports are pinned in `fingerprints.txt`.
const DEFAULT_SEED: u64 = 1;
/// Set-up rounds per run; each regenerates the inputs and runs one
/// warm-up pass, and `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Fewest timed (or traced) passes per run, however long they take.
const MIN_PASSES: usize = 3;
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one pass in this fresh process and print its report
    /// fingerprint and peak resident set (see [`cold_peaks`]).
    cold_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        cold_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid {flag} value `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--cold-probe" => args.cold_probe = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !inputs::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            inputs::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn add(total: &mut Tally, t: Tally) {
    total.attempted += t.attempted;
    total.failed += t.failed;
    total.executions += t.executions;
}

/// This process's resident-set high-water mark, from procfs.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The committed report fingerprint of `workload` at the default seed.
fn pinned_fingerprint(workload: &str) -> Option<u64> {
    FINGERPRINTS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next() == Some(workload))
            .then(|| fields.next().and_then(|h| u64::from_str_radix(h, 16).ok()))
            .flatten()
    })
}

/// Set-up rounds: inputs from the seed, then one full pass each. The
/// first round's pass is the reference every later pass must equal.
struct Setup {
    files: Vec<inputs::ScenarioText>,
    reference: Vec<FileRun>,
    /// False when the default seed's reference differs from its pin:
    /// then every execution, all equal to the reference, is wrong.
    pinned_ok: bool,
    round_s: Vec<f64>,
    tally: Tally,
}

fn set_up(args: &Args) -> Result<Setup, String> {
    let mut reference: Option<Vec<FileRun>> = None;
    let mut round_s = Vec::new();
    let mut tally = Tally::default();
    let mut files = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let start = Instant::now();
        files = inputs::generate(&args.workload, args.seed).expect("workload name checked");
        let (runs, _) = timed_pass(&files);
        round_s.push(start.elapsed().as_secs_f64());
        match &reference {
            Some(reference) => add(&mut tally, check(&runs, reference)),
            None => {
                let runs = runs?;
                add(&mut tally, check(&Ok(runs.clone()), &runs));
                reference = Some(runs);
            }
        }
    }
    let rounds: Vec<String> = round_s.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    eprintln!("[hostbench] set-up rounds {} ms", rounds.join(" / "));
    let reference = reference.expect("at least one set-up round");
    let fnv = fingerprint(&reference);
    eprintln!(
        "[hostbench] {} seed {}: report fingerprint {fnv:016x}",
        args.workload, args.seed
    );
    let pinned_ok = args.seed != DEFAULT_SEED || pinned_fingerprint(&args.workload) == Some(fnv);
    if !pinned_ok {
        eprintln!("[hostbench] report differs from the fingerprint pinned for the default seed");
    }
    Ok(Setup {
        files,
        reference,
        pinned_ok,
        round_s,
        tally,
    })
}

fn metric(out: &mut Vec<(String, f64, &'static str)>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_string(), value, unit));
}

/// Fresh processes, each like one cold `hisq run` invocation: at least
/// [`MIN_COLD_PROBES`], then more, up to [`MAX_COLD_PROBES`], while the
/// probes so far took less than [`COLD_PROBE_TIME`].
const MIN_COLD_PROBES: usize = 3;
const MAX_COLD_PROBES: usize = 7;
const COLD_PROBE_TIME: Duration = Duration::from_secs(3);

/// The child side of [`cold_peaks`]: one pass in a fresh process.
fn cold_probe(args: &Args) -> ExitCode {
    let files = inputs::generate(&args.workload, args.seed).expect("workload name checked");
    match timed_pass(&files).0 {
        Ok(runs) => {
            println!("{:016x} {}", fingerprint(&runs), peak_rss_mib());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set of a cold invocation: several child processes
/// each run one pass and report their high-water mark, and
/// their reports must match the reference. A warmed process is no
/// good for this: its allocator keeps memory from earlier passes, so
/// its high-water mark depends on that history. The peak of one pass
/// still depends on which large points the two workers happen to hold
/// at once, so the smallest of the probes is reported.
fn cold_peaks(args: &Args, setup: &Setup, tally: &mut Tally) -> Vec<f64> {
    let expected: u64 = setup
        .reference
        .iter()
        .flat_map(|r| r.report.records())
        .map(pass::executions)
        .sum();
    let want = format!("{:016x}", fingerprint(&setup.reference));
    let mut peaks = Vec::new();
    let start = Instant::now();
    for probe in 0..MAX_COLD_PROBES {
        if probe >= MIN_COLD_PROBES && start.elapsed() >= COLD_PROBE_TIME {
            break;
        }
        let output = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args([
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args(["--cold-probe", "1"])
                .output()
        });
        let stdout = output.map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
        let mut fields = stdout.as_deref().unwrap_or("").split_whitespace();
        let (fnv, peak) = (
            fields.next(),
            fields.next().and_then(|p| p.parse::<f64>().ok()),
        );
        tally.attempted += expected;
        match (fnv, peak) {
            (Some(fnv), Some(peak)) if fnv == want => {
                tally.executions += expected;
                peaks.push(peak);
            }
            _ => tally.failed += expected,
        }
    }
    peaks
}

/// Timed untraced passes: the end-to-end metrics.
fn end_to_end(args: &Args, setup: &Setup, tally: &mut Tally) -> Vec<(String, f64, &'static str)> {
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(args.seconds) {
        let (runs, secs) = timed_pass(&setup.files);
        let t = check(&runs, &setup.reference);
        rates.push(t.executions as f64 / secs);
        add(tally, t);
    }
    eprintln!(
        "[hostbench] {} timed passes, {:.1} to {:.1} executions/s",
        rates.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max)
    );
    let peaks = cold_peaks(args, setup, tally);
    let mut out = Vec::new();
    metric(&mut out, "runs_per_s", median(&rates), "1/s");
    metric(&mut out, "setup_s", median(&setup.round_s), "s");
    if !peaks.is_empty() {
        let lowest = peaks.iter().copied().fold(f64::INFINITY, f64::min);
        metric(&mut out, "peak_rss_mib", lowest, "MiB");
    }
    out
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(pass: &traced::TracedPass, probes: &traced::Probes) -> BTreeMap<String, f64> {
    let acc = trace::account(&pass.spans, THREADS as u64);
    let ms = |name: &str| acc.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let replay_ms = |name: &str| probes.replay.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let count = |name: &str| {
        (pass.counts.get(name).copied().unwrap_or(0)
            + probes.replay_counts.get(name).copied().unwrap_or(0)) as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let budget = acc.budget_ns as f64;
    let mut m = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    let compile_ms = ms("compiler.compile");
    // Counted by the assembler probe, outside the traced pass.
    let lines = probes.assembled_lines as f64;
    set("compiler.compile_ms", compile_ms);
    set("compiler.compiles", count("compiler.compiles"));
    set("compiler.source_lines", lines);
    set("compiler.ns_per_line", ratio(compile_ms * 1e6, lines));
    let assemble_ms = probes.assemble_ns as f64 / 1e6;
    set("isa.assemble_ms", assemble_ms);
    set("isa.ns_per_line", ratio(assemble_ms * 1e6, lines));
    set("isa.share_of_compile", ratio(assemble_ms, compile_ms));

    let build_ms = ms("sim.build") + replay_ms("sim.build");
    let run_ms = ms("sim.run") + replay_ms("sim.run");
    let controllers = count("sim.controllers");
    let events = count("sim.events");
    set("sim.build_ms", build_ms);
    set("sim.controllers", controllers);
    set(
        "sim.build_us_per_controller",
        ratio(build_ms * 1e3, controllers),
    );
    set("sim.run_ms", run_ms);
    set("sim.drop_ms", ms("sim.drop") + replay_ms("sim.drop"));
    set("sim.events", events);
    set("sim.instructions", count("sim.instructions"));
    set("sim.ns_per_event", ratio(run_ms * 1e6, events));

    let hits = count("runner.cache_hits");
    let misses = count("runner.cache_misses");
    set("runner.lower_ms", ms("runner.lower"));
    set(
        "runner.prepare_ms",
        ms("runner.prepare") + replay_ms("runner.prepare"),
    );
    let points: Vec<f64> = acc.point_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    set(
        "runner.point_ms_p50",
        if points.is_empty() {
            0.0
        } else {
            median(&points)
        },
    );
    set("runner.cache_hits", hits);
    set("runner.cache_misses", misses);
    set("runner.cache_hit_ratio", ratio(hits, hits + misses));

    let load_ms = ms("load.run_load");
    let completed = count("load.jobs_completed");
    let replayed_ms: f64 = probes.replay.values().sum::<u64>() as f64 / 1e6;
    set("load.run_ms", load_ms);
    set("load.jobs_completed", completed);
    set("load.jobs_rejected", count("load.jobs_rejected"));
    set("load.us_per_job", ratio(load_ms * 1e3, completed));
    set(
        "load.reject_ratio",
        ratio(count("load.jobs_rejected"), count("load.jobs_submitted")),
    );
    set("load.sim_share", ratio(replayed_ms, load_ms));

    set("workloads.build_ms", ms("workloads.build"));
    set("workloads.gates", count("workloads.gates"));
    set("scenario.parse_ms", ms("scenario.parse"));
    set("scenario.expand_ms", ms("scenario.expand"));
    set("scenario.points", count("scenario.points"));
    let point_total: u64 = acc.point_ns.iter().sum();
    set("sweep.busy_ratio", ratio(point_total as f64, budget));
    set("sweep.emit_ms", ms("sweep.emit"));
    set("sweep.report_bytes", count("sweep.report_bytes"));

    for name in SHARED_SPANS {
        set(&format!("share.{name}"), ratio(ms(name) * 1e6, budget));
    }
    set("share.idle", ratio(acc.idle_ns as f64, budget));
    set("trace.gap_ratio", ratio(acc.gap_ns as f64, budget));
    set("trace.pass_ms", acc.wall_ns as f64 / 1e6);
    m
}

/// Layer spans whose share of the traced pass is reported.
const SHARED_SPANS: [&str; 13] = [
    "scenario.parse",
    "scenario.expand",
    "workloads.build",
    "net.topology",
    "compiler.compile",
    "runner.cache",
    "runner.lower",
    "runner.prepare",
    "sim.build",
    "sim.run",
    "sim.drop",
    "load.run_load",
    "sweep.emit",
];

/// Interleaved untraced and traced passes: the per-layer metrics.
fn per_layer(args: &Args, setup: &Setup, tally: &mut Tally) -> Vec<(String, f64, &'static str)> {
    let mut untraced_s = Vec::new();
    let mut traced: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut spans_out = String::new();
    let start = Instant::now();
    while traced.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(args.seconds) {
        let (runs, secs) = timed_pass(&setup.files);
        add(tally, check(&runs, &setup.reference));
        untraced_s.push(secs);
        let pass = traced::traced_pass(&setup.files, &setup.reference);
        add(tally, pass.tally);
        let probes = traced::probes(&pass);
        add(tally, probes.tally);
        trace::write_jsonl(
            &mut spans_out,
            traced.len(),
            &pass.spans,
            &pass.point_counts,
        );
        let metrics = layer_metrics(&pass, &probes);
        eprintln!(
            "[hostbench] untraced pass {:.1} ms, traced pass {:.1} ms",
            secs * 1e3,
            metrics["trace.pass_ms"]
        );
        traced.push(metrics);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans_out)) {
        eprintln!("[hostbench] cannot write {}: {e}", path.display());
    }

    // The cache counters are the program's own, from the reference
    // pass; the traced pass's share-per-key cache must agree with them.
    let hits: u64 = setup.reference.iter().map(|r| r.cache_hits).sum();
    let misses: u64 = setup.reference.iter().map(|r| r.cache_misses).sum();
    let last = traced.last_mut().expect("at least one traced pass");
    if (last["runner.cache_hits"], last["runner.cache_misses"]) != (hits as f64, misses as f64) {
        eprintln!("[hostbench] traced cache counts differ from CompileCache's ({hits} hits, {misses} misses)");
    }
    for m in &mut traced {
        m.insert("runner.cache_hits".into(), hits as f64);
        m.insert("runner.cache_misses".into(), misses as f64);
        m.insert(
            "runner.cache_hit_ratio".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    let mut out = Vec::new();
    for name in traced[0].keys() {
        let values: Vec<f64> = traced.iter().map(|m| m[name]).collect();
        metric(&mut out, name, median(&values), unit_of(name));
    }
    let traced_ms: Vec<f64> = traced.iter().map(|m| m["trace.pass_ms"]).collect();
    metric(
        &mut out,
        "trace.overhead_ratio",
        median(&traced_ms) / 1e3 / median(&untraced_s),
        "ratio",
    );
    out
}

fn unit_of(name: &str) -> &'static str {
    let suffix = name.rsplit('.').next().unwrap_or(name);
    if name.starts_with("share.") || suffix.contains("ratio") || suffix.contains("share") {
        "ratio"
    } else if suffix.ends_with("_ms") || suffix.starts_with("point_ms") {
        "ms"
    } else if suffix.starts_with("ns_per") {
        "ns"
    } else if suffix.starts_with("us_per") || suffix.ends_with("_us_per_controller") {
        "us"
    } else if suffix.ends_with("bytes") {
        "bytes"
    } else {
        "count"
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.cold_probe {
        return cold_probe(&args);
    }
    let setup = match set_up(&args) {
        Ok(setup) => setup,
        Err(e) => {
            eprintln!("hostbench: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = setup.tally;
    let mut metrics = if args.trace {
        per_layer(&args, &setup, &mut tally)
    } else {
        end_to_end(&args, &setup, &mut tally)
    };
    if !setup.pinned_ok {
        tally.failed = tally.attempted;
    }
    if args.trace {
        let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
        metric(&mut metrics, "error_rate", error_rate, "ratio");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
