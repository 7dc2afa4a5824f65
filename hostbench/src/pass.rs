//! One untraced pass, the way one `hisq run --threads 2 --json`
//! invocation per scenario file runs it, and the output checks.

use std::time::Instant;

use distributed_hisq::runner::{run_sweep_cached, CompileCache};
use distributed_hisq::scenario::ScenarioFile;
use distributed_hisq::sim::{Metric, SweepRecord, SweepReport};

use crate::inputs::ScenarioText;

/// Worker threads of every sweep (`hisq run --threads 2`).
pub const THREADS: usize = 2;

/// What one scenario file produced in one pass.
#[derive(Clone)]
pub struct FileRun {
    pub report: SweepReport,
    pub json: String,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Parses, expands, runs and emits every file: parse → expand →
/// `run_sweep_cached` with a fresh `CompileCache` → `to_json`.
pub fn run_pass(files: &[ScenarioText]) -> Result<Vec<FileRun>, String> {
    files
        .iter()
        .map(|file| {
            let parsed =
                ScenarioFile::parse(&file.text).map_err(|e| format!("{}: {e}", file.name))?;
            let points = parsed.expand(None);
            let cache = CompileCache::new();
            let report = run_sweep_cached(&points, THREADS, &cache)
                .map_err(|e| format!("{}: {e}", file.name))?;
            let json = report.to_json();
            Ok(FileRun {
                report,
                json,
                cache_hits: cache.hits(),
                cache_misses: cache.misses(),
            })
        })
        .collect()
}

/// Runs one pass and returns it with its wall time in seconds.
pub fn timed_pass(files: &[ScenarioText]) -> (Result<Vec<FileRun>, String>, f64) {
    let start = Instant::now();
    let runs = std::hint::black_box(run_pass(files));
    (runs, start.elapsed().as_secs_f64())
}

/// Executions a record stands for: one grid point, or its completed
/// jobs on a load point.
pub fn executions(record: &SweepRecord) -> u64 {
    record.counter("jobs_completed").unwrap_or(1)
}

/// Whether a record describes a finished run: every controller halted,
/// or, on a load point, every submitted job either completed or was
/// rejected (nothing left in flight).
pub fn finished(record: &SweepRecord) -> bool {
    match record.metric("all_halted") {
        Some(Metric::Bool(halted)) => *halted,
        Some(_) => false,
        None => {
            let count = |name| record.counter(name);
            match (
                count("jobs_submitted"),
                count("jobs_completed"),
                count("jobs_rejected"),
                count("jobs_in_flight"),
            ) {
                (Some(s), Some(c), Some(r), Some(0)) => c + r == s,
                _ => false,
            }
        }
    }
}

/// Execution tally of one pass against the reference pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub executions: u64,
}

/// Checks a pass against the reference pass: every report byte-equal,
/// every record finished. A failed pass counts every reference
/// execution as failed; a mismatched record counts its own executions.
pub fn check(pass: &Result<Vec<FileRun>, String>, reference: &[FileRun]) -> Tally {
    let expected: u64 = reference
        .iter()
        .flat_map(|f| f.report.records())
        .map(executions)
        .sum();
    let runs = match pass {
        Ok(runs) if runs.len() == reference.len() => runs,
        _ => {
            return Tally {
                attempted: expected.max(1),
                failed: expected.max(1),
                executions: 0,
            }
        }
    };
    let mut tally = Tally::default();
    for (run, want) in runs.iter().zip(reference) {
        let (got, want_records) = (run.report.records(), want.report.records());
        let file_expected: u64 = want_records.iter().map(executions).sum();
        if got.len() != want_records.len() {
            tally.attempted += file_expected;
            tally.failed += file_expected;
            continue;
        }
        let mut file_failed = 0;
        for (g, w) in got.iter().zip(want_records) {
            if !finished(g) || g.to_json() != w.to_json() {
                file_failed += executions(w);
            }
        }
        if file_failed == 0 && run.json != want.json {
            // Records agree but the report bytes do not: the whole
            // file's output is wrong.
            file_failed = file_expected;
        }
        tally.attempted += file_expected;
        tally.failed += file_failed;
        tally.executions += got.iter().map(executions).sum::<u64>();
    }
    tally
}

/// FNV-1a 64 of a pass's report bytes, files joined by newlines.
pub fn fingerprint(runs: &[FileRun]) -> u64 {
    let joined: Vec<&str> = runs.iter().map(|r| r.json.as_str()).collect();
    distributed_hisq::testing::fnv1a64(joined.join("\n").as_bytes())
}
