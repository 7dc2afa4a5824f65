//! The `fig_load` saturation sweep (beyond the paper's evaluation):
//! the multi-tenant job engine serving Poisson traffic of compiled
//! `w_state_n12` jobs, swept over offered load × partition count to
//! expose the saturation knee.
//!
//! Every point offers the machine a target utilization ρ (offered
//! load): two tenant streams — an interactive class (priority 0, a
//! third of the traffic) and a batch class (priority 1, the rest) —
//! submit jobs at a combined rate of `ρ · partitions / service time`.
//! Each job is a real compiled run of the workload (one compile per
//! point via the sweep's `CompileCache`, per-job seeds), so the
//! service time is the simulated makespan, not a synthetic stand-in.
//! Below the knee (ρ « 1) jobs barely queue and p99 latency tracks
//! the service time; approaching capacity (ρ → 1) the admission queue
//! fills and p99 diverges; past it (ρ > 1) throughput plateaus at the
//! partition capacity and the admission bound starts rejecting.
//!
//! The report carries only simulation-deterministic metrics, so its
//! JSON is byte-identical across thread counts and is committed as
//! `BENCH_fig_load.json`, gated by `ci/check_baselines.sh` like every
//! other figure baseline.

use distributed_hisq::compiler::Scheme;
use distributed_hisq::load::{ArrivalStream, LoadSpec};
use distributed_hisq::runner::Scenario;
use distributed_hisq::scenario::{Axis, ScenarioFile};
use hisq_sim::{SweepRecord, SweepReport};
use hisq_workloads::WorkloadSpec;

/// The job type every load point schedules instances of.
pub const FIG_LOAD_WORKLOAD: &str = "w_state_n12";

/// Calibrated single-run makespan of [`FIG_LOAD_WORKLOAD`] under BISP
/// (ns) — the service-time estimate the offered-load → arrival-rate
/// conversion uses. The `service_calibration_holds` test keeps it
/// within 20% of the engine's actual makespan, so ρ stays an honest
/// utilization estimate.
pub const FIG_LOAD_SERVICE_NS: u64 = 25_200;

/// Admission-queue bound of every load point: deep enough that the
/// knee shows as latency before it shows as loss, shallow enough that
/// past-capacity points visibly reject.
pub const FIG_LOAD_QUEUE_CAPACITY: usize = 16;

/// Base seed of the sweep (per-job seeds are `seed + job index`).
pub const FIG_LOAD_SEED: u64 = 11;

/// The offered-load axis (target utilization ρ): below the knee, at
/// it, and past it. `--quick` keeps the four-point core; the full
/// sweep refines the knee region.
#[must_use]
pub fn fig_load_rhos(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.3, 0.6, 0.9, 1.2]
    } else {
        vec![0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5]
    }
}

/// The partition-count axis.
#[must_use]
pub fn fig_load_partitions(quick: bool) -> Vec<u32> {
    if quick {
        vec![2, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// Jobs per sweep point (across both tenant streams).
#[must_use]
pub fn fig_load_jobs(quick: bool) -> u64 {
    if quick {
        120
    } else {
        480
    }
}

/// The load block of one sweep point: interactive (priority 0) and
/// batch (priority 1) Poisson streams splitting a combined arrival
/// rate of `rho · partitions / service` one-third / two-thirds.
#[must_use]
pub fn fig_load_spec(rho: f64, partitions: u32, jobs: u64) -> LoadSpec {
    let total_rate = rho * f64::from(partitions) * 1e6 / FIG_LOAD_SERVICE_NS as f64;
    // Round the per-stream rates to 3 decimals so the scenario ids
    // render compactly; the rounding error is ≪ the Poisson noise.
    let round = |rate: f64| (rate * 1000.0).round() / 1000.0;
    let interactive_jobs = jobs / 3;
    let batch_jobs = jobs - interactive_jobs;
    LoadSpec::new(
        vec![
            ArrivalStream::poisson(round(total_rate / 3.0), interactive_jobs),
            ArrivalStream::poisson(round(total_rate * 2.0 / 3.0), batch_jobs).with_priority(1),
        ],
        partitions,
    )
    .with_queue_capacity(FIG_LOAD_QUEUE_CAPACITY)
}

/// The sweep grid: one `load` axis over partitions × offered load (rho
/// varies fastest — [`fig_load_points`] relies on this order).
#[must_use]
pub fn fig_load_scenarios(quick: bool) -> ScenarioFile {
    let jobs = fig_load_jobs(quick);
    let loads = fig_load_partitions(quick)
        .into_iter()
        .flat_map(|partitions| {
            fig_load_rhos(quick)
                .into_iter()
                .map(move |rho| fig_load_spec(rho, partitions, jobs))
        })
        .collect();
    let base = Scenario::new(WorkloadSpec::suite(FIG_LOAD_WORKLOAD), Scheme::Bisp)
        .with_seed(FIG_LOAD_SEED);
    ScenarioFile {
        axes: vec![Axis::Load(loads)],
        ..ScenarioFile::new("fig_load", base)
    }
}

/// One row of the human-readable figure table.
#[derive(Debug, Clone)]
pub struct FigLoadPoint {
    /// Partition count of the point.
    pub partitions: u32,
    /// Offered load (target utilization ρ).
    pub rho: f64,
    /// Completed jobs per second of simulated time.
    pub throughput_jobs_per_s: f64,
    /// Measured partition utilization.
    pub utilization: f64,
    /// Median job latency (ns).
    pub latency_p50_ns: u64,
    /// Tail job latency (ns).
    pub latency_p99_ns: u64,
    /// Jobs dropped by the admission bound.
    pub rejected: u64,
}

/// Pairs the report's records (in [`fig_load_scenarios`] grid order)
/// with their grid coordinates into figure rows.
///
/// # Panics
///
/// Panics if the report does not match the grid (missing records or
/// metrics) — a committed baseline must never hide a failed point.
#[must_use]
pub fn fig_load_points(quick: bool, report: &SweepReport) -> Vec<FigLoadPoint> {
    let grid: Vec<(u32, f64)> = fig_load_partitions(quick)
        .into_iter()
        .flat_map(|p| fig_load_rhos(quick).into_iter().map(move |rho| (p, rho)))
        .collect();
    assert_eq!(report.records().len(), grid.len(), "report matches grid");
    grid.iter()
        .zip(report.records())
        .map(|(&(partitions, rho), record)| {
            let counter = |r: &SweepRecord, key: &str| {
                r.counter(key)
                    .unwrap_or_else(|| panic!("{}: missing metric {key}", r.id))
            };
            let value = |r: &SweepRecord, key: &str| {
                r.value(key)
                    .unwrap_or_else(|| panic!("{}: missing metric {key}", r.id))
            };
            FigLoadPoint {
                partitions,
                rho,
                throughput_jobs_per_s: value(record, "throughput_jobs_per_s"),
                utilization: value(record, "utilization"),
                latency_p50_ns: counter(record, "latency_p50_ns"),
                latency_p99_ns: counter(record, "latency_p99_ns"),
                rejected: counter(record, "jobs_rejected"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use distributed_hisq::runner::run_sweep;

    /// The calibration constant tracks the engine: a single run of the
    /// fig workload lands within 20% of [`FIG_LOAD_SERVICE_NS`], so
    /// the ρ axis stays an honest utilization estimate.
    #[test]
    fn service_calibration_holds() {
        let scenario = Scenario::new(WorkloadSpec::suite(FIG_LOAD_WORKLOAD), Scheme::Bisp)
            .with_seed(FIG_LOAD_SEED);
        let makespan = run_sweep(std::slice::from_ref(&scenario), 1)
            .expect("fig workload runs")
            .records()[0]
            .counter("makespan_ns")
            .expect("standard metric");
        let ratio = makespan as f64 / FIG_LOAD_SERVICE_NS as f64;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "calibrated service {FIG_LOAD_SERVICE_NS} ns vs measured {makespan} ns \
             (ratio {ratio:.3}): recalibrate FIG_LOAD_SERVICE_NS"
        );
    }

    #[test]
    fn load_scenario_ids_are_unique() {
        for quick in [true, false] {
            let scenarios = fig_load_scenarios(quick).expand(None);
            let mut ids: Vec<String> = scenarios.iter().map(|s| s.id()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), scenarios.len(), "load axes must keep ids unique");
        }
    }

    /// The figure's headline claim on the quick grid (the committed
    /// baseline): approaching capacity, tail latency diverges while
    /// throughput plateaus — and past it, the admission bound rejects.
    #[test]
    fn quick_sweep_shows_the_saturation_knee() {
        let quick = true;
        let scenarios = fig_load_scenarios(quick).expand(None);
        let report = run_sweep(&scenarios, 2).expect("load grid runs");
        let points = fig_load_points(quick, &report);
        for partitions in fig_load_partitions(quick) {
            let at = |rho: f64| {
                points
                    .iter()
                    .find(|p| p.partitions == partitions && (p.rho - rho).abs() < 1e-9)
                    .expect("grid covers every (partitions, rho) point")
            };
            let (low, past) = (at(0.3), at(1.2));
            assert!(
                past.latency_p99_ns > 2 * low.latency_p99_ns,
                "{partitions} partitions: p99 must diverge toward saturation \
                 ({} ns at rho 0.3 vs {} ns at rho 1.2)",
                low.latency_p99_ns,
                past.latency_p99_ns
            );
            // Past capacity the machine is pinned: throughput sits at
            // the partition capacity (not the offered 1.2×), which is
            // the plateau.
            let capacity = f64::from(partitions) * 1e9 / FIG_LOAD_SERVICE_NS as f64;
            assert!(
                past.throughput_jobs_per_s < 1.05 * capacity,
                "{partitions} partitions: past-capacity throughput \
                 {:.0} jobs/s must plateau near capacity {capacity:.0}",
                past.throughput_jobs_per_s
            );
            assert!(
                past.utilization > 0.8,
                "{partitions} partitions: past capacity the machine is busy \
                 (utilization {:.3})",
                past.utilization
            );
            assert_eq!(
                low.rejected, 0,
                "{partitions} partitions: below the knee nothing is rejected"
            );
            assert!(
                past.rejected > 0,
                "{partitions} partitions: past capacity the admission bound rejects"
            );
        }
    }
}
