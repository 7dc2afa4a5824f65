//! CI guards for the contention sweep (`fig_contention`): the report is
//! byte-identical across thread counts, and the figure's headline claim
//! holds — as links serialize, the hub baseline's runtime degrades
//! strictly faster than BISP's at every system size.

use distributed_hisq::runner::run_sweep;
use distributed_hisq::testing::assert_pinned;
use hisq_bench::figures::{fig_contention_rows, fig_contention_scenarios};

#[test]
fn contention_sweep_is_deterministic_and_hub_degrades_faster() {
    let scenarios = fig_contention_scenarios(true).expand(None);
    let single = run_sweep(&scenarios, 1).expect("grid runs").to_json();
    let multi = run_sweep(&scenarios, 4).expect("grid runs");
    assert_eq!(
        single,
        multi.to_json(),
        "thread count must not leak into the contention report"
    );

    let rows = fig_contention_rows(&scenarios, &multi);
    let max_ser = rows.iter().map(|r| r.serialization_ns).max().unwrap();
    let sizes: std::collections::BTreeSet<usize> = rows.iter().map(|r| r.controllers).collect();
    for n in sizes {
        let slowdown = |scheme: &str| {
            rows.iter()
                .find(|r| r.controllers == n && r.serialization_ns == max_ser && r.scheme == scheme)
                .expect("grid covers every (size, scheme, ser) point")
                .slowdown
        };
        let (hub, bisp) = (slowdown("lockstep"), slowdown("bisp"));
        assert!(
            hub > bisp,
            "at {n} controllers, ser {max_ser} ns: hub slowdown {hub:.3}x \
             must exceed BISP {bisp:.3}x"
        );
    }
}

/// The quick contention sweep is pinned byte-for-byte via the shared
/// helper, so engine-internal changes (e.g. the calendar-queue event
/// core) cannot silently drift the committed `BENCH_fig_contention.json`
/// baseline's bytes.
#[test]
fn contention_sweep_json_is_pinned_byte_for_byte() {
    let scenarios = fig_contention_scenarios(true).expand(None);
    let json = run_sweep(&scenarios, 2).expect("grid runs").to_json();
    assert_pinned(
        "fig_contention quick JSON",
        &json,
        5954,
        0x26b6_8ab7_2b29_a156,
    );
}

#[test]
fn contention_scenario_ids_are_unique() {
    for quick in [true, false] {
        let scenarios = fig_contention_scenarios(quick).expand(None);
        let mut ids: Vec<String> = scenarios.iter().map(|s| s.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            scenarios.len(),
            "link-model axis must keep ids unique"
        );
    }
}
