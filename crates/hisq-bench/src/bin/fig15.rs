//! Regenerates Figure 15: normalized end-to-end runtime of
//! Distributed-HISQ vs the lock-step baseline across the benchmark
//! suite — a (workload × scheme) sweep. Pass `--quick` for the
//! scaled-down twin suite, `--threads N` to parallelize, `--json` for
//! the raw sweep report.

use distributed_hisq::runner::run_sweep;
use hisq_bench::cli::FigArgs;
use hisq_bench::figures::{fig15_rows, fig15_scenarios};
use hisq_workloads::SuiteScale;

fn main() {
    let args = FigArgs::parse();
    let scale = if args.quick {
        SuiteScale::Quick
    } else {
        SuiteScale::Paper
    };
    let scenarios = fig15_scenarios(scale, 15).expand(None);
    eprintln!(
        "[fig15] running {} scenarios on {} thread(s)...",
        scenarios.len(),
        args.threads
    );
    let report = run_sweep(&scenarios, args.threads).unwrap_or_else(|e| {
        eprintln!("fig15: {e}");
        std::process::exit(1);
    });
    if args.json {
        println!("{}", report.to_json());
        return;
    }

    println!("Figure 15: normalized runtime (Distributed-HISQ / lock-step baseline)");
    println!("{:-<86}", "");
    println!(
        "{:<16} {:>14} {:>14} {:>10}   {:>12} {:>12}",
        "benchmark", "bisp (ns)", "baseline (ns)", "normalized", "bisp insts", "base insts"
    );
    println!("{:-<86}", "");
    let rows = fig15_rows(&report);
    for row in &rows {
        println!(
            "{:<16} {:>14} {:>14} {:>10.3}   {:>12} {:>12}",
            row.name,
            row.bisp_ns,
            row.lockstep_ns,
            row.normalized,
            row.bisp_instructions,
            row.lockstep_instructions
        );
    }
    println!("{:-<86}", "");
    let avg = rows.iter().map(|r| r.normalized).sum::<f64>() / rows.len() as f64;
    println!("{:<16} {:>40.3}   (paper average: 0.772)", "average", avg);
}
