//! Every figure grid is a valid scenario file: serializing a grid and
//! parsing it back gives the same file, which expands to the same
//! scenario ids in the same order, in quick and full form. This is what lets a figure grid be
//! committed as a scenario file and replayed through `hisq run`.

use distributed_hisq::runner::Scenario;
use distributed_hisq::scenario::ScenarioFile;
use hisq_bench::figures::{
    fig15_scenarios, fig16_scenarios, fig_contention_scenarios, fig_hetero_grids,
    fig_noise_scenarios,
};
use hisq_bench::load::fig_load_scenarios;
use hisq_bench::sweep_throughput::throughput_scenarios;
use hisq_workloads::SuiteScale;

fn ids(scenarios: &[Scenario]) -> Vec<String> {
    scenarios.iter().map(Scenario::id).collect()
}

fn assert_round_trips(grid: &ScenarioFile) {
    let text = grid.to_json().to_string_compact();
    let parsed = ScenarioFile::parse(&text)
        .unwrap_or_else(|e| panic!("{}: serialized grid does not parse: {e}", grid.name));
    let expected = ids(&grid.expand(None));
    assert!(!expected.is_empty(), "{}: empty grid", grid.name);
    assert_eq!(
        ids(&parsed.expand(None)),
        expected,
        "{}: ids changed through JSON",
        grid.name
    );
    assert_eq!(&parsed, grid, "{}: values changed through JSON", grid.name);
}

#[test]
fn fig15_grids_round_trip() {
    for scale in [SuiteScale::Quick, SuiteScale::Paper] {
        assert_round_trips(&fig15_scenarios(scale, 15));
    }
}

#[test]
fn fig16_grids_round_trip() {
    // The `fig16` binary's quick and full coherence axes.
    for steps in [&[3, 6, 10][..], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]] {
        let t_points: Vec<f64> = steps.iter().map(|&i| 30.0 * f64::from(i)).collect();
        assert_round_trips(&fig16_scenarios(&t_points));
    }
}

#[test]
fn extension_grids_round_trip() {
    for quick in [true, false] {
        assert_round_trips(&fig_contention_scenarios(quick));
        assert_round_trips(&fig_noise_scenarios(quick));
        assert_round_trips(&fig_load_scenarios(quick));
        assert_round_trips(&throughput_scenarios(quick));
        for grid in fig_hetero_grids(quick) {
            assert_round_trips(&grid.file);
        }
    }
}
