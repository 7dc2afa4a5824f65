//! Pinned compile fingerprints: the machine code both code generators
//! emit for a fixed set of workloads, hashed with
//! [`CompiledSystem::fingerprint`] and compared against committed
//! values. Any drift in instruction selection, order, label resolution
//! or `sync` hoisting changes a fingerprint and fails here on any
//! machine.
//!
//! The same set doubles as the assembler-oracle suite: every
//! controller's listing in [`CompiledSystem::sources`] must assemble
//! back to exactly the instructions in [`CompiledSystem::programs`].

use distributed_hisq::workloads::WorkloadSpec;
use hisq_compiler::{
    compile_bisp, compile_lockstep, BispOptions, CompiledSystem, LockstepOptions, Scheme,
};
use hisq_isa::Assembler;
use hisq_net::TopologyBuilder;

/// One pinned compile: workload label, scheme, shots, fingerprint.
type Pin = (&'static str, Scheme, u32, u64);

/// Captured from the text-emitting code generator; a change to codegen
/// must leave every value as it is.
const PINS: &[Pin] = &[
    ("adder_n13", Scheme::Bisp, 1, 0xec0dece72d2ac5bb),
    ("adder_n13", Scheme::Bisp, 3, 0xad4810d6e4a7b5ba),
    ("adder_n13", Scheme::Lockstep, 1, 0x387d566c329dbb87),
    ("adder_n13", Scheme::Lockstep, 3, 0x8bc2eb4c9f90b934),
    ("bv_n16", Scheme::Bisp, 1, 0xe070d07802902444),
    ("bv_n16", Scheme::Bisp, 3, 0x2c779338cef80ddd),
    ("bv_n16", Scheme::Lockstep, 1, 0x2e1b23dc4e9a197f),
    ("bv_n16", Scheme::Lockstep, 3, 0x78824acd08f35987),
    ("logical_t_d3", Scheme::Bisp, 1, 0xc531850cbe399a72),
    ("logical_t_d3", Scheme::Bisp, 3, 0x52707b82a2b72779),
    ("logical_t_d3", Scheme::Lockstep, 1, 0x0ce39cc9e0aae176),
    ("logical_t_d3", Scheme::Lockstep, 3, 0x556a4475e3919703),
    ("logical_t_d3x2", Scheme::Bisp, 1, 0x3400a6a5e3ef70c4),
    ("logical_t_d3x2", Scheme::Bisp, 3, 0x3175e18060524620),
    ("logical_t_d3x2", Scheme::Lockstep, 1, 0xfb50b54dd7c190af),
    ("logical_t_d3x2", Scheme::Lockstep, 3, 0xc937632b26b7e5e4),
    ("qft_n10", Scheme::Bisp, 1, 0xc24d8f916c052d8e),
    ("qft_n10", Scheme::Bisp, 3, 0x9276dcfee60b8ade),
    ("qft_n10", Scheme::Lockstep, 1, 0xe1cfbc008fca02c9),
    ("qft_n10", Scheme::Lockstep, 3, 0x8effae76e2a3c4e9),
    ("w_state_n12", Scheme::Bisp, 1, 0xbb40102274d377c9),
    ("w_state_n12", Scheme::Bisp, 3, 0x3af8e9ce77e9ee4d),
    ("w_state_n12", Scheme::Lockstep, 1, 0xb2f11c416db10d7c),
    ("w_state_n12", Scheme::Lockstep, 3, 0x97950a8085b43074),
    ("lr_cnot_p2_s3", Scheme::Bisp, 1, 0x02e0176aa6ad7b2b),
    ("lr_cnot_p2_s3", Scheme::Lockstep, 1, 0xdbd393a140c50dfe),
    ("qft_n30", Scheme::Bisp, 1, 0xdb8c1d6d05501d49),
    ("logical_t_n432", Scheme::Bisp, 1, 0x54fd51e429821581),
];

/// Compiles `label` (a suite name or `lr_cnot_p<P>_s<S>`) under the
/// paper-default link latencies the suite runs with.
fn compile(label: &str, scheme: Scheme, shots: u32) -> CompiledSystem {
    let spec = match label.strip_prefix("lr_cnot_p") {
        Some(rest) => {
            let (parallel, span) = rest.split_once("_s").expect("lr_cnot_p<P>_s<S>");
            WorkloadSpec::LongRangeCnots {
                parallel: parallel.parse().expect("parallel count"),
                span: span.parse().expect("span"),
            }
        }
        None => WorkloadSpec::suite(label),
    };
    let built = spec.build().expect("known workload");
    match scheme {
        Scheme::Bisp => {
            let topology = TopologyBuilder::grid(built.grid.0, built.grid.1)
                .neighbor_latency(5)
                .router_latency(10)
                .router_arity(4)
                .build();
            let options = BispOptions {
                shots,
                ..BispOptions::default()
            };
            compile_bisp(&built.circuit, &topology, &options)
        }
        Scheme::Lockstep => {
            let options = LockstepOptions {
                shots,
                ..LockstepOptions::default()
            };
            compile_lockstep(&built.circuit, &options)
        }
    }
    .unwrap_or_else(|e| panic!("{label} {scheme:?} shots {shots}: {e}"))
}

/// The pinned set: the quick suite under both schemes at shots 1 and
/// 3, the Figure 16 long-range CNOT gadget under both schemes, and two
/// paper-scale BISP instances.
fn cases() -> Vec<(&'static str, Scheme, u32)> {
    let mut cases = Vec::new();
    for name in distributed_hisq::workloads::QUICK_SUITE {
        for scheme in [Scheme::Bisp, Scheme::Lockstep] {
            for shots in [1, 3] {
                cases.push((*name, scheme, shots));
            }
        }
    }
    for scheme in [Scheme::Bisp, Scheme::Lockstep] {
        cases.push(("lr_cnot_p2_s3", scheme, 1));
    }
    cases.push(("qft_n30", Scheme::Bisp, 1));
    cases.push(("logical_t_n432", Scheme::Bisp, 1));
    cases
}

#[test]
fn compile_fingerprints_match_the_pins() {
    let cases = cases();
    let mut drift = Vec::new();
    for &(label, scheme, shots) in &cases {
        let got = compile(label, scheme, shots).fingerprint();
        let pinned = PINS
            .iter()
            .find(|&&(l, s, n, _)| l == label && s == scheme && n == shots)
            .map(|&(.., fp)| fp);
        if pinned != Some(got) {
            drift.push(format!(
                "{label} {scheme:?} shots {shots}: pinned {pinned:x?}, got {got:#018x}"
            ));
        }
    }
    assert_eq!(PINS.len(), cases.len(), "one pin per case");
    assert!(
        drift.is_empty(),
        "compile fingerprints drifted:\n{drift:#?}"
    );
}

#[test]
fn sources_assemble_to_the_emitted_programs() {
    let assembler = Assembler::new();
    for (label, scheme, shots) in cases() {
        let compiled = compile(label, scheme, shots);
        assert_eq!(compiled.sources.len(), compiled.programs.len());
        for (addr, program) in &compiled.programs {
            let source = &compiled.sources[addr];
            let assembled = assembler.assemble(source).unwrap_or_else(|e| {
                panic!("{label} {scheme:?} shots {shots}: controller {addr}: {e}")
            });
            assert_eq!(
                assembled.insts(),
                program.insts(),
                "{label} {scheme:?} shots {shots}: controller {addr}"
            );
        }
    }
}
