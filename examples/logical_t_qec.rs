//! The QEC workload: a lattice-surgery logical T gate with its
//! conditional logical-S feedback, compiled for both schemes — the
//! *simultaneous feedback* scenario where Distributed-HISQ shines.
//!
//! Run with: `cargo run --release --example logical_t_qec`

use std::error::Error;

use distributed_hisq::compiler::{compile_bisp, compile_lockstep, BispOptions, LockstepOptions};
use distributed_hisq::net::TopologyBuilder;
use distributed_hisq::runner::system_spec;
use distributed_hisq::sim::RandomBackend;
use distributed_hisq::workloads::{logical_t, LogicalTConfig};

fn run(units: usize) -> Result<(u64, u64), Box<dyn Error>> {
    let instance = logical_t(&LogicalTConfig::distance(3).with_parallel_units(units));
    let topology = TopologyBuilder::grid(instance.width, instance.height).build();

    let bisp = compile_bisp(&instance.circuit, &topology, &BispOptions::default())?;
    let mut system = system_spec(&bisp, Some(&topology))?.build()?;
    system.set_backend(RandomBackend::new(9, 0.5));
    let bisp_report = system.run()?;
    assert!(bisp_report.all_halted);

    let lockstep = compile_lockstep(&instance.circuit, &LockstepOptions::default())?;
    let mut baseline = system_spec(&lockstep, None)?.build()?;
    baseline.set_backend(RandomBackend::new(9, 0.5));
    let base_report = baseline.run()?;
    assert!(base_report.all_halted);

    Ok((bisp_report.makespan_ns, base_report.makespan_ns))
}

fn main() -> Result<(), Box<dyn Error>> {
    println!("Lattice-surgery logical T (distance 3): syndrome rounds, merged");
    println!("ZZ measurement, modelled decoder latency, conditional logical S.\n");

    let (bisp1, base1) = run(1)?;
    println!("1 logical T:  Distributed-HISQ {bisp1:>7} ns | baseline {base1:>7} ns");

    let (bisp2, base2) = run(2)?;
    println!("2 parallel T: Distributed-HISQ {bisp2:>7} ns | baseline {base2:>7} ns");

    println!();
    println!(
        "Distributed-HISQ executes the second unit's feedback concurrently \
         (+{} ns for the extra unit);",
        bisp2.saturating_sub(bisp1)
    );
    println!(
        "the lock-step baseline serializes it through the shared program flow \
         (+{} ns).",
        base2.saturating_sub(base1)
    );
    assert!(
        bisp2.saturating_sub(bisp1) < base2.saturating_sub(base1),
        "simultaneous feedback must be cheaper under BISP"
    );
    Ok(())
}
