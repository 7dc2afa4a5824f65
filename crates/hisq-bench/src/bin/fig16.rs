//! Regenerates Figure 16: circuit infidelity vs qubit relaxation time
//! for the simultaneous long-range CNOT circuit, under both schemes —
//! a (T1 × scheme) sweep. `--quick` trims the T1 axis, `--threads N`
//! parallelizes, `--json` emits the raw sweep report.

use distributed_hisq::runner::run_sweep;
use hisq_bench::cli::FigArgs;
use hisq_bench::figures::{fig16_points, fig16_scenarios};

fn main() {
    let args = FigArgs::parse();
    let steps = if args.quick {
        [3, 6, 10].as_slice()
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    };
    let t_points: Vec<f64> = steps.iter().map(|&i| 30.0 * i as f64).collect();
    let scenarios = fig16_scenarios(&t_points).expand(None);
    let report = run_sweep(&scenarios, args.threads).unwrap_or_else(|e| {
        eprintln!("fig16: {e}");
        std::process::exit(1);
    });
    if args.json {
        println!("{}", report.to_json());
        return;
    }

    let points = fig16_points(&scenarios, &report);
    println!("Figure 16: infidelity vs relaxation time (T1 = T2)");
    println!("{:-<64}", "");
    println!(
        "{:>8} {:>16} {:>16} {:>12}",
        "T1 (us)", "Distributed-HISQ", "baseline", "reduction"
    );
    println!("{:-<64}", "");
    for p in &points {
        println!(
            "{:>8.0} {:>16.5} {:>16.5} {:>11.2}x",
            p.t_us, p.infidelity_bisp, p.infidelity_lockstep, p.reduction_ratio
        );
    }
    println!("{:-<64}", "");
    let avg: f64 = points.iter().map(|p| p.reduction_ratio).sum::<f64>() / points.len() as f64;
    println!("average reduction: {avg:.2}x (paper: ~5x)");
}
