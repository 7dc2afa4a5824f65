//! End-to-end integration: dynamic circuit → compiler → per-controller
//! HISQ binaries → distributed simulation → quantum backend, across the
//! whole workspace.

use std::collections::BTreeMap;

use distributed_hisq::compiler::{
    compile_bisp, compile_lockstep, map_to_physical, BispOptions, LockstepOptions, LongRangeConfig,
    Scheme,
};
use distributed_hisq::quantum::{Circuit, Condition};
use distributed_hisq::runner::system_spec;
use distributed_hisq::sim::{StabilizerBackend, StateVectorBackend};
use distributed_hisq::workloads::{fig15_suite, SuiteScale};
use hisq_net::TopologyBuilder;

fn linear(n: usize) -> hisq_net::Topology {
    TopologyBuilder::linear(n)
        .neighbor_latency(5)
        .router_latency(10)
        .build()
}

/// Teleport |1⟩ from qubit 0 to qubit 2 through the full stack: the
/// corrections are real feedback crossing controllers.
fn teleport_circuit() -> Circuit {
    let mut c = Circuit::new(3, 3);
    c.x(0); // state to teleport
    c.h(1);
    c.cx(1, 2);
    c.cx(0, 1);
    c.h(0);
    c.measure(0, 0);
    c.measure(1, 1);
    c.x_if(2, Condition::bit(1, true));
    c.z_if(2, Condition::bit(0, true));
    c.measure(2, 2); // verification readout
    c
}

#[test]
fn teleportation_through_bisp_stack() {
    let topo = linear(3);
    let compiled = compile_bisp(&teleport_circuit(), &topo, &BispOptions::default()).unwrap();
    assert_eq!(compiled.scheme, Scheme::Bisp);

    for seed in 0..10 {
        let mut system = system_spec(&compiled, Some(&topo))
            .unwrap()
            .build()
            .unwrap();
        system.set_backend(StabilizerBackend::new(3, seed));
        let report = system.run().unwrap();
        assert!(report.all_halted, "seed {seed}: {:?}", report.blocked);
        assert_eq!(report.causality_warnings, 0);
        // The verification measurement lands in controller 2's t0.
        let t0 = hisq_isa::Reg::parse("t0").unwrap();
        assert_eq!(
            system.controller(2).unwrap().reg(t0),
            1,
            "seed {seed}: teleported |1> must measure 1"
        );
    }
}

#[test]
fn teleportation_through_lockstep_stack() {
    let compiled = compile_lockstep(&teleport_circuit(), &LockstepOptions::default()).unwrap();
    assert_eq!(compiled.scheme, Scheme::Lockstep);

    for seed in 0..10 {
        let mut system = system_spec(&compiled, None).unwrap().build().unwrap();
        system.set_backend(StabilizerBackend::new(3, 100 + seed));
        let report = system.run().unwrap();
        assert!(report.all_halted, "seed {seed}: {:?}", report.blocked);
        let t0 = hisq_isa::Reg::parse("t0").unwrap();
        assert_eq!(system.controller(2).unwrap().reg(t0), 1, "seed {seed}");
    }
}

#[test]
fn long_range_cnot_gadget_full_stack() {
    // Logical CNOT over 3 intermediate data positions, rewritten to the
    // dynamic gadget, compiled, and verified on the state vector.
    let mut logical = Circuit::new(3, 3);
    logical.x(0);
    logical.cx(0, 2); // long range
    logical.measure(2, 0);
    let physical = map_to_physical(&logical, &LongRangeConfig::default()).unwrap();
    let n = physical.circuit.num_qubits();
    let topo = linear(n);
    let compiled = compile_bisp(&physical.circuit, &topo, &BispOptions::default()).unwrap();

    for seed in [1, 7, 42] {
        let mut system = system_spec(&compiled, Some(&topo))
            .unwrap()
            .build()
            .unwrap();
        system.set_backend(StateVectorBackend::new(n, seed));
        let report = system.run().unwrap();
        assert!(report.all_halted, "{:?}", report.blocked);
        assert_eq!(report.causality_warnings, 0);
        let t0 = hisq_isa::Reg::parse("t0").unwrap();
        // Target (physical site 4) must read 1: CNOT fired from |1>.
        assert_eq!(system.controller(4).unwrap().reg(t0), 1, "seed {seed}");
    }
}

#[test]
fn two_qubit_triggers_commit_simultaneously() {
    // Asymmetric prologues: controller 0 does lots of work first. BISP
    // must still commit both CZ halves at the same cycle.
    let mut circuit = Circuit::new(2, 1);
    for _ in 0..7 {
        circuit.h(0);
    }
    circuit.cz(0, 1);
    let topo = linear(2);
    let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap();
    let mut system = system_spec(&compiled, Some(&topo))
        .unwrap()
        .build()
        .unwrap();
    let report = system.run().unwrap();
    assert!(report.all_halted);
    let telf = system.telf();
    // The CZ trigger is the last commit on each controller.
    let last0 = telf.commits_of(0).last().unwrap().cycle;
    let last1 = telf.commits_of(1).last().unwrap().cycle;
    assert_eq!(last0, last1, "CZ halves must align at cycle level");
}

#[test]
fn booking_advance_never_slower() {
    // The BISP booking advance must not increase the makespan on any
    // quick-suite workload.
    for bench in fig15_suite(SuiteScale::Quick) {
        let topo = bench.topology();
        let with = compile_bisp(&bench.physical, &topo, &BispOptions::default()).unwrap();
        let without = compile_bisp(
            &bench.physical,
            &topo,
            &BispOptions {
                booking_advance: false,
                ..BispOptions::default()
            },
        )
        .unwrap();
        let run = |compiled| {
            let mut system = system_spec(&compiled, Some(&topo))
                .unwrap()
                .build()
                .unwrap();
            system.set_backend(distributed_hisq::sim::RandomBackend::new(3, 0.5));
            let report = system.run().unwrap();
            assert!(report.all_halted, "{}: {:?}", bench.name, report.blocked);
            report.makespan_cycles
        };
        let t_with = run(with);
        let t_without = run(without);
        assert!(
            t_with <= t_without,
            "{}: booking advance slower ({t_with} > {t_without})",
            bench.name
        );
    }
}

#[test]
fn quick_suite_runs_on_both_schemes() {
    let mut results: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for bench in fig15_suite(SuiteScale::Quick) {
        let topo = bench.topology();
        let bisp = compile_bisp(&bench.physical, &topo, &BispOptions::default()).unwrap();
        let lockstep = compile_lockstep(&bench.physical, &LockstepOptions::default()).unwrap();

        let mut sys_b = system_spec(&bisp, Some(&topo)).unwrap().build().unwrap();
        sys_b.set_backend(distributed_hisq::sim::RandomBackend::new(1, 0.5));
        let rep_b = sys_b.run().unwrap();
        assert!(rep_b.all_halted, "{} bisp: {:?}", bench.name, rep_b.blocked);

        let mut sys_l = system_spec(&lockstep, None).unwrap().build().unwrap();
        sys_l.set_backend(distributed_hisq::sim::RandomBackend::new(1, 0.5));
        let rep_l = sys_l.run().unwrap();
        assert!(
            rep_l.all_halted,
            "{} lockstep: {:?}",
            bench.name, rep_l.blocked
        );

        results.insert(
            bench.name.clone(),
            (rep_b.makespan_cycles, rep_l.makespan_cycles),
        );
    }
    // Feedback-heavy workloads must favour Distributed-HISQ; the
    // simultaneous-feedback QEC case must show a clear win.
    let (bisp_t, lock_t) = results["logical_t_d3x2"];
    assert!(
        bisp_t < lock_t,
        "parallel logical-T: BISP {bisp_t} vs lock-step {lock_t}"
    );
}
