//! CI guards for the multi-tenant saturation sweep (`fig_load`): the
//! report is byte-identical across thread counts and pinned
//! byte-for-byte, and seed++ repetitions of a load scenario produce
//! distinct-but-replayable percentile rows.

use distributed_hisq::compiler::Scheme;
use distributed_hisq::load::{ArrivalStream, LoadSpec, ServiceModel};
use distributed_hisq::runner::{run_sweep, Scenario};
use distributed_hisq::scenario::ScenarioFile;
use distributed_hisq::testing::assert_pinned;
use hisq_bench::load::fig_load_scenarios;
use hisq_workloads::WorkloadSpec;

#[test]
fn load_sweep_is_byte_identical_across_thread_counts() {
    let scenarios = fig_load_scenarios(true).expand(None);
    let single = run_sweep(&scenarios, 1).expect("load grid runs").to_json();
    let multi = run_sweep(&scenarios, 4).expect("load grid runs").to_json();
    assert_eq!(
        single, multi,
        "thread count must not leak into the load report"
    );
}

/// The quick load sweep is pinned byte-for-byte via the shared helper,
/// so engine-internal changes (scheduler tie-breaks, percentile math,
/// arrival seeding) cannot silently drift the committed
/// `BENCH_fig_load.json` baseline's bytes.
#[test]
fn load_sweep_json_is_pinned_byte_for_byte() {
    let scenarios = fig_load_scenarios(true).expand(None);
    let json = run_sweep(&scenarios, 2).expect("load grid runs").to_json();
    assert_pinned("fig_load quick JSON", &json, 4901, 0x53ae_2a3b_ef8d_ed75);
}

/// Seed++ repetitions (the scenario-file `repetitions` knob) produce
/// *distinct* percentile rows — fresh arrival and service draws per
/// seed — that replay byte-for-byte: statistically independent, still
/// deterministic.
#[test]
fn seed_increment_rows_are_distinct_but_replayable() {
    let spec = LoadSpec::new(
        vec![
            ArrivalStream::poisson(20.0, 100),
            ArrivalStream::poisson(10.0, 50).with_priority(1),
        ],
        2,
    )
    .with_queue_capacity(32)
    .with_service(ServiceModel::Exponential { mean_ns: 60_000.0 });
    let base = Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp)
        .with_seed(11)
        .with_load(spec);
    let mut file = ScenarioFile::new("seed-rows", base);
    file.repetitions = 3;
    let scenarios = file.expand(None);
    assert_eq!(scenarios.len(), 3);
    let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
    assert_eq!(seeds, [11, 12, 13], "repetitions advance the seed");

    let report = run_sweep(&scenarios, 2).expect("repetition grid runs");
    let rows: Vec<(u64, u64, u64)> = report
        .records()
        .iter()
        .map(|r| {
            let counter = |key: &str| r.counter(key).expect("latency percentiles present");
            (
                counter("latency_p50_ns"),
                counter("latency_p95_ns"),
                counter("latency_p99_ns"),
            )
        })
        .collect();
    for (i, a) in rows.iter().enumerate() {
        for b in rows.iter().skip(i + 1) {
            assert_ne!(a, b, "each seed draws its own traffic: {rows:?}");
        }
    }

    let replay = run_sweep(&scenarios, 4).expect("repetition grid replays");
    assert_eq!(
        report.to_json(),
        replay.to_json(),
        "same seeds, same bytes — on any thread count"
    );
}
