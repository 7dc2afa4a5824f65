//! Smoke tests for building a compiled system through
//! `runner::system_spec` and `SystemSpec::build`: a program map that
//! collides with an infrastructure address (router for BISP, broadcast
//! hub for lock-step) must be rejected with [`SimError::DuplicateAddr`],
//! not silently mis-wired — such a collision is always a compiler bug.

use distributed_hisq::compiler::{
    compile_bisp, compile_lockstep, BispOptions, LockstepOptions, Scheme,
};
use distributed_hisq::quantum::Circuit;
use distributed_hisq::runner::system_spec;
use distributed_hisq::sim::SimError;
use hisq_net::TopologyBuilder;

/// A minimal two-qubit circuit touching both controllers.
fn circuit() -> Circuit {
    let mut c = Circuit::new(2, 2);
    c.h(0);
    c.cx(0, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    c
}

#[test]
fn bisp_rejects_program_at_router_address() {
    let topo = TopologyBuilder::linear(2)
        .neighbor_latency(5)
        .router_latency(10)
        .build();
    let mut compiled = compile_bisp(&circuit(), &topo, &BispOptions::default()).unwrap();
    assert_eq!(compiled.scheme, Scheme::Bisp);

    let router = topo.root_router().expect("linear(2) has a router tree");
    let stray = compiled.programs.values().next().unwrap().clone();
    compiled.programs.insert(router, stray);

    let err = system_spec(&compiled, Some(&topo))
        .unwrap()
        .build()
        .unwrap_err();
    assert_eq!(err, SimError::DuplicateAddr(router));
}

#[test]
fn lockstep_rejects_program_at_hub_address() {
    let mut compiled = compile_lockstep(&circuit(), &LockstepOptions::default()).unwrap();
    assert_eq!(compiled.scheme, Scheme::Lockstep);

    let hub = compiled.hub.expect("lock-step systems carry a hub spec");
    let stray = compiled.programs.values().next().unwrap().clone();
    compiled.programs.insert(hub.addr, stray);

    let err = system_spec(&compiled, None).unwrap().build().unwrap_err();
    assert_eq!(err, SimError::DuplicateAddr(hub.addr));
}

#[test]
fn collision_free_systems_still_build() {
    let topo = TopologyBuilder::linear(2)
        .neighbor_latency(5)
        .router_latency(10)
        .build();
    let bisp = compile_bisp(&circuit(), &topo, &BispOptions::default()).unwrap();
    assert!(system_spec(&bisp, Some(&topo)).unwrap().build().is_ok());

    let lockstep = compile_lockstep(&circuit(), &LockstepOptions::default()).unwrap();
    assert!(system_spec(&lockstep, None).unwrap().build().is_ok());
}
