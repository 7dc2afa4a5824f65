//! Property and table tests for the scenario-file surface.
//!
//! The contract under test is `from_json(to_json(x)) == x` for
//! generated [`Scenario`]s and scenario files (including surgery op
//! lists, contended link models, and noise models), plus a table of
//! malformed inputs that must fail with readable, dotted-path errors
//! rather than silently defaulting.

use distributed_hisq::runner::{Scenario, SurgeryOp, SystemParams};
use distributed_hisq::scenario::ScenarioFile;
use hisq_compiler::Scheme;
use hisq_json::Json;
use hisq_net::{DropPolicy, LinkModel};
use hisq_quantum::NoiseModel;
use hisq_workloads::WorkloadSpec;
use proptest::prelude::*;

/// Builds a scenario from primitive draws. Every choice point in the
/// scenario grammar (scheme, workload selector, link model, drop
/// policy, noise model, surgery ops, shots) is reachable.
#[allow(clippy::too_many_arguments)]
fn scenario_from_draws(
    scheme_bisp: bool,
    workload_kind: u8,
    seed: u64,
    t1_us: u32,
    shots: u32,
    link_kind: u8,
    noise_kind: u8,
    surgery_kind: u8,
) -> Scenario {
    let workload = match workload_kind % 3 {
        0 => WorkloadSpec::suite("w_state_n12"),
        1 => WorkloadSpec::suite("qft_n10"),
        _ => WorkloadSpec::LongRangeCnots {
            parallel: 1 + (workload_kind as usize % 4),
            span: 2 + (workload_kind as usize % 3),
        },
    };
    let scheme = if scheme_bisp {
        Scheme::Bisp
    } else {
        Scheme::Lockstep
    };
    let params = SystemParams {
        link_model: match link_kind % 3 {
            0 => LinkModel::default(),
            1 => LinkModel::serialized(u64::from(link_kind) + 1).with_capacity(2),
            _ => LinkModel::serialized(4).with_drop(DropPolicy {
                loss_ppm: u32::from(link_kind) * 1000,
                seed: u64::from(link_kind),
                max_attempts: 1 + u32::from(link_kind % 7),
            }),
        },
        noise: match noise_kind % 3 {
            0 => NoiseModel::NOISELESS,
            1 => NoiseModel::NOISELESS.with_gate_errors(0.001, 0.01),
            _ => NoiseModel::NOISELESS
                .with_meas_error(f64::from(noise_kind) / 512.0)
                .with_leak(0.002),
        },
        ..SystemParams::default()
    };
    let mut scenario = Scenario::new(workload, scheme)
        .with_seed(seed)
        .with_t1_us(f64::from(t1_us) + 0.5)
        .with_shots(1 + shots % 5)
        .with_params(params);
    match surgery_kind % 4 {
        0 => {}
        1 => scenario = scenario.with_surgery(SurgeryOp::DropRouterLevel),
        2 => {
            scenario = scenario.with_surgery(SurgeryOp::RewireSubtree {
                subtree: u16::from(surgery_kind),
                new_parent: u16::from(surgery_kind) + 1,
            })
        }
        _ => {
            scenario = scenario
                .with_surgery(SurgeryOp::SwapWorkload {
                    workload: WorkloadSpec::suite("bv_n16"),
                })
                .with_surgery(SurgeryOp::OverrideNoise {
                    noise: NoiseModel::NOISELESS.with_gate_errors(0.002, 0.02),
                })
                .with_surgery(SurgeryOp::OverrideLinkModel {
                    link_model: LinkModel::serialized(8),
                })
        }
    }
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Scenario::from_json(Scenario::to_json(x)) == x`, through both
    /// text renderings (the compact report convention and the pretty
    /// scenario-file convention).
    #[test]
    fn scenario_round_trips_through_json(
        scheme_bisp in any::<bool>(),
        workload_kind in 0u8..=255,
        seed in any::<u64>(),
        t1_us in 1u32..2000,
        kinds in (0u32..10, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let (shots, link_kind, noise_kind, surgery_kind) = kinds;
        let scenario = scenario_from_draws(
            scheme_bisp, workload_kind, seed, t1_us, shots,
            link_kind, noise_kind, surgery_kind,
        );
        for text in [
            scenario.to_json().to_string_compact(),
            scenario.to_json().to_string_pretty(),
        ] {
            let parsed = Json::parse(&text).expect("self-produced JSON parses");
            let back = Scenario::from_json(&parsed, "s").expect("round-trip decodes");
            prop_assert_eq!(&back, &scenario, "{}", text);
        }
    }

    /// A whole scenario *file* (base + axes + repetitions) survives the
    /// same round trip, and the re-read file expands to the identical
    /// scenario list — ids and all.
    #[test]
    fn scenario_file_round_trips_and_expands_identically(
        scheme_bisp in any::<bool>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
        repetitions in 1u64..4,
        surgery_kind in 0u8..=255,
    ) {
        let base = scenario_from_draws(scheme_bisp, 0, 1, 300, 0, 0, 0, surgery_kind);
        let mut file = ScenarioFile::new("prop", base);
        file.repetitions = repetitions;
        file.axes.push(distributed_hisq::scenario::Axis::Seed(seeds));
        let text = file.to_json().to_string_pretty();
        let back = ScenarioFile::parse(&text).expect("file round-trips");
        prop_assert_eq!(&back, &file, "{}", text);
        let ids: Vec<String> = file.expand(None).iter().map(Scenario::id).collect();
        let back_ids: Vec<String> = back.expand(None).iter().map(Scenario::id).collect();
        prop_assert_eq!(ids, back_ids);
    }
}

/// Malformed inputs must fail with errors a person editing a scenario
/// file by hand can act on: syntax errors carry line/column, schema
/// errors carry the dotted path of the offending field.
#[test]
fn malformed_scenario_files_fail_readably() {
    let cases: &[(&str, &str)] = &[
        // Truncated document: a parse error with position, not a panic.
        (
            r#"{"schema_version": 1, "name": "x", "base": {"workload"#,
            "line 1",
        ),
        // Duplicate keys are rejected by the parser outright.
        (
            r#"{"schema_version": 1, "schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"}}"#,
            "duplicate object key \"schema_version\"",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "seed": 1, "seed": 2}}"#,
            "duplicate object key \"seed\"",
        ),
        // A future schema version fails loudly, naming both versions.
        (
            r#"{"schema_version": 99, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"}}"#,
            "unsupported schema_version 99 (this build reads version 1)",
        ),
        // Unknown fields are typos, not extension points.
        (
            r#"{"schema_version": 1, "name": "x", "reps": 3,
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"}}"#,
            "unknown field `reps`",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "sched": "greedy"}}"#,
            "scenario.base: unknown field `sched`",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "params": {"link_model": {"serialization": 4}}}}"#,
            "scenario.base.params.link_model: unknown field `serialization`",
        ),
        // Wrong value domains carry their path too.
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp", "shots": 0}}"#,
            "scenario.base.shots: shots must be at least 1",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "turbo"}}"#,
            "unknown scheme \"turbo\"",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "surgery": [{"op": "teleport"}]}}"#,
            "scenario.base.surgery[0].op",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                "axes": [{"axis": "shots", "values": [2, 0]}]}"#,
            "scenario.axes[0].values[1]: shots must be at least 1",
        ),
    ];
    for (text, needle) in cases {
        let err = ScenarioFile::parse(text).expect_err(text);
        let message = err.to_string();
        assert!(
            message.contains(needle),
            "expected {needle:?} in error for {text}\n-> {message}"
        );
    }
}

/// The report id segments added by non-default fields (shots, link
/// model, noise, surgery) never collide with the historical
/// default-model form — the sweep engine requires unique ids.
#[test]
fn grid_point_ids_stay_unique_across_axes() {
    let file = ScenarioFile::parse(
        r#"{
            "schema_version": 1,
            "name": "uniq",
            "base": {"workload": {"suite": "w_state_n12"}, "scheme": "bisp"},
            "axes": [
                {"axis": "scheme", "values": ["bisp", "lockstep"]},
                {"axis": "shots", "values": [1, 2]},
                {"axis": "link_model", "values": [
                    {"serialization_ns": 0, "capacity": 1},
                    {"serialization_ns": 4, "capacity": 1},
                    {"serialization_ns": 4, "capacity": 2}
                ]},
                {"axis": "surgery", "values": [[], [{"op": "drop_router_level"}]]}
            ]
        }"#,
    )
    .expect("valid file");
    let ids: Vec<String> = file.expand(None).iter().map(Scenario::id).collect();
    let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
    assert_eq!(ids.len(), 24);
    assert_eq!(unique.len(), ids.len(), "{ids:#?}");
}
