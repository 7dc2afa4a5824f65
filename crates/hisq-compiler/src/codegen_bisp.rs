//! The Distributed-HISQ code generator.
//!
//! Each controller receives its **own** instruction stream; controllers
//! run asynchronously and re-align only where physics demands it:
//!
//! - two-qubit gates emit a pair of nearby `sync` instructions with the
//!   **booking advance** (§4.2): the `sync` is hoisted to just after the
//!   controller's last non-deterministic point, so the calibrated
//!   countdown overlaps the deterministic work in between, and both
//!   sides pad to a common offset `δ = max(D_a, D_b, N)` so the triggers
//!   commit at the same cycle with zero overhead whenever the
//!   deterministic work covers the link latency;
//! - measurement results travel **directly** from producer to consumer
//!   (`send`/`recv`), so independent feedback operations execute
//!   simultaneously;
//! - program repetitions open with a region-level `sync` against the
//!   root router.

use std::collections::BTreeMap;

use hisq_core::NodeAddr;
use hisq_isa::disasm::disassemble;
use hisq_isa::{AluOp, BranchOp, Reg};
use hisq_net::Topology;
use hisq_quantum::{Circuit, Operation};

use crate::codewords::{CodewordTable, PORT_GATE, PORT_READOUT};
use crate::emit::{Label, StreamBuilder};
use crate::{CompileError, CompileStats, CompiledSystem, CycleDurations, Scheme};

/// Address of the local measurement FIFO (`hisq_core::MEAS_FIFO_ADDR`).
const MEAS_FIFO: NodeAddr = 0xFFF;

/// Options for the BISP backend.
#[derive(Debug, Clone)]
pub struct BispOptions {
    /// Hoist `sync` instructions ahead of deterministic work (the core
    /// BISP optimization). Disabling reproduces the QubiC-2.0-style
    /// placement immediately before the synchronization point.
    pub booking_advance: bool,
    /// Number of program repetitions; each opens with a region-level
    /// synchronization (§2.1.4).
    pub shots: u32,
    /// Operation durations in TCU cycles.
    pub durations: CycleDurations,
}

impl Default for BispOptions {
    fn default() -> BispOptions {
        BispOptions {
            booking_advance: true,
            shots: 1,
            durations: CycleDurations::PAPER,
        }
    }
}

/// Producer/consumer wiring derived from the dynamic circuit: which
/// controller produces each condition bit, and who must receive each
/// measurement result.
#[derive(Debug, Default)]
struct Wiring {
    /// measurement instruction index → consumer controllers (one entry
    /// per consuming conditional instruction, in circuit order).
    consumers: BTreeMap<usize, Vec<NodeAddr>>,
    /// conditional instruction index → producer controller per condition
    /// bit, in condition-bit order.
    producers: BTreeMap<usize, Vec<NodeAddr>>,
}

fn wire(circuit: &Circuit) -> Result<Wiring, CompileError> {
    let mut wiring = Wiring::default();
    // clbit → (producing instruction index, producing controller).
    let mut last_writer: BTreeMap<usize, (usize, NodeAddr)> = BTreeMap::new();
    for (idx, instruction) in circuit.instructions().iter().enumerate() {
        if let Some(condition) = &instruction.condition {
            let qubits = instruction.qubits();
            if qubits.len() != 1 {
                return Err(CompileError::UnsupportedConditional { index: idx });
            }
            let consumer = qubits[0] as NodeAddr;
            let mut producers = Vec::new();
            for clbit in condition.clbits() {
                let &(measure_idx, producer) = last_writer
                    .get(&clbit)
                    .ok_or(CompileError::ConditionBeforeMeasurement { index: idx, clbit })?;
                wiring
                    .consumers
                    .entry(measure_idx)
                    .or_default()
                    .push(consumer);
                producers.push(producer);
            }
            wiring.producers.insert(idx, producers);
        }
        if let Operation::Measure { qubit, clbit } = instruction.op {
            last_writer.insert(clbit, (idx, qubit as NodeAddr));
        }
    }
    Ok(wiring)
}

/// Compiles a dynamic circuit for Distributed-HISQ execution on
/// `topology` (qubit `i` is controlled by controller `i`).
///
/// # Errors
///
/// Returns [`CompileError`] when the circuit does not fit the topology,
/// a two-qubit gate spans non-adjacent controllers, a condition guards a
/// multi-qubit operation, or the topology has no root router.
pub fn compile_bisp(
    circuit: &Circuit,
    topology: &Topology,
    options: &BispOptions,
) -> Result<CompiledSystem, CompileError> {
    let n = circuit.num_qubits();
    if n > topology.num_controllers() {
        return Err(CompileError::TooManyQubits {
            qubits: n,
            controllers: topology.num_controllers(),
        });
    }
    let root = topology.root_router().ok_or(CompileError::NoRootRouter)?;
    let wiring = wire(circuit)?;
    let d = options.durations;

    let mut builders: BTreeMap<NodeAddr, StreamBuilder> = (0..topology.num_controllers() as u16)
        .map(|addr| (addr, StreamBuilder::new(addr)))
        .collect();
    let mut table = CodewordTable::new();
    let mut stats = CompileStats::default();

    let shots = options.shots.max(1);
    for _ in 0..shots {
        if shots > 1 {
            for builder in builders.values_mut() {
                builder.region_sync(root, 0);
                stats.region_syncs += 1;
            }
        }
        emit_body(
            circuit,
            topology,
            options,
            &wiring,
            &mut builders,
            &mut table,
            &mut stats,
        )?;
    }

    let mut programs = BTreeMap::new();
    let mut sources = BTreeMap::new();
    for (addr, builder) in builders {
        let program = builder.finish();
        stats.instructions += program.len() as u64;
        sources.insert(addr, disassemble(program.insts()));
        programs.insert(addr, program);
    }

    Ok(CompiledSystem {
        scheme: Scheme::Bisp,
        programs,
        sources,
        bindings: table.into_bindings(),
        num_qubits: n,
        hub: None,
        durations: d,
        stats,
    })
}

#[allow(clippy::too_many_arguments)]
fn emit_body(
    circuit: &Circuit,
    topology: &Topology,
    options: &BispOptions,
    wiring: &Wiring,
    builders: &mut BTreeMap<NodeAddr, StreamBuilder>,
    table: &mut CodewordTable,
    stats: &mut CompileStats,
) -> Result<(), CompileError> {
    let d = options.durations;
    let root = topology.root_router().expect("checked by caller");

    for (idx, instruction) in circuit.instructions().iter().enumerate() {
        match (&instruction.op, &instruction.condition) {
            (Operation::Gate { gate, qubits }, None) if qubits.len() == 1 => {
                let addr = qubits[0] as NodeAddr;
                let cw = table.gate(addr, *gate, qubits);
                let builder = builders.get_mut(&addr).expect("controller exists");
                builder.cw(PORT_GATE, cw);
                builder.wait(d.single);
            }
            (Operation::Gate { gate, qubits }, None) => {
                let a = qubits[0] as NodeAddr;
                let b = qubits[1] as NodeAddr;
                if !topology.mesh_neighbors(a).contains(&b) {
                    return Err(CompileError::NonAdjacentGate {
                        index: idx,
                        qubits: (qubits[0], qubits[1]),
                    });
                }
                let n_link = topology.neighbor_latency();
                let cw_a = table.gate(a, *gate, qubits);
                let cw_b = table.pulse(b);
                if options.booking_advance {
                    // Optimal booking: each side books exactly N cycles
                    // (the calibrated countdown) ahead of the trigger, so
                    // any pre-existing deterministic work covers the
                    // communication latency and both triggers pad to the
                    // common offset N → commit at max(B_a, B_b) + N with
                    // zero overhead whenever coverage is full (§4.4).
                    for (addr, peer, cw) in [(a, b, cw_a), (b, a, cw_b)] {
                        let builder = builders.get_mut(&addr).expect("controller exists");
                        let covered = builder.sync_covering(peer, n_link);
                        builder.wait(n_link - covered);
                        builder.cw(PORT_GATE, cw);
                        builder.mark_blocker();
                        builder.wait(d.two_qubit);
                    }
                } else {
                    for (addr, peer, cw) in [(a, b, cw_a), (b, a, cw_b)] {
                        let builder = builders.get_mut(&addr).expect("controller exists");
                        builder.sync_here(peer);
                        builder.wait(n_link);
                        builder.cw(PORT_GATE, cw);
                        builder.mark_blocker();
                        builder.wait(d.two_qubit);
                    }
                }
                stats.nearby_syncs += 2;
            }
            (Operation::Gate { gate, qubits }, Some(condition)) => {
                if qubits.len() != 1 {
                    return Err(CompileError::UnsupportedConditional { index: idx });
                }
                let addr = qubits[0] as NodeAddr;
                let producers = wiring.producers.get(&idx).expect("wired").clone();
                let value = match condition {
                    hisq_quantum::Condition::Bit { value, .. } => *value,
                    hisq_quantum::Condition::Parity { value, .. } => *value,
                };
                let cw = table.gate(addr, *gate, qubits);
                let builder = builders.get_mut(&addr).expect("controller exists");
                let skip = receive_parity(builder, &producers, value, stats);
                builder.cw(PORT_GATE, cw);
                builder.wait(d.gate_cycles(*gate));
                builder.label(skip);
                builder.mark_blocker();
                stats.feedbacks += 1;
            }
            (Operation::Measure { qubit, clbit: _ }, None) => {
                let addr = *qubit as NodeAddr;
                let cw = table.measure(addr, *qubit);
                let builder = builders.get_mut(&addr).expect("controller exists");
                builder.cw(PORT_READOUT, cw);
                builder.wait(d.measurement);
                builder.recv(Reg::T0, MEAS_FIFO);
                builder.mark_blocker();
                if let Some(consumers) = wiring.consumers.get(&idx) {
                    for &consumer in consumers {
                        builder.send(consumer, Reg::T0);
                        stats.sends += 1;
                    }
                }
            }
            (Operation::Reset { qubit }, None) => {
                let addr = *qubit as NodeAddr;
                let cw = table.reset(addr, *qubit);
                let builder = builders.get_mut(&addr).expect("controller exists");
                builder.cw(PORT_GATE, cw);
                builder.wait(d.reset);
            }
            (Operation::Delay { qubit, duration_ns }, None) => {
                let addr = *qubit as NodeAddr;
                let builder = builders.get_mut(&addr).expect("controller exists");
                builder.wait(duration_ns.div_ceil(hisq_isa::CYCLE_NS));
            }
            (Operation::Barrier { .. }, None) => {
                for builder in builders.values_mut() {
                    builder.region_sync(root, 0);
                    stats.region_syncs += 1;
                }
            }
            (Operation::Delay { qubit, duration_ns }, Some(condition)) => {
                // A conditioned idle (e.g. the multi-round logical-S
                // sub-circuit duration in the QEC benchmarks).
                let addr = *qubit as NodeAddr;
                let producers = wiring.producers.get(&idx).expect("wired").clone();
                let value = match condition {
                    hisq_quantum::Condition::Bit { value, .. } => *value,
                    hisq_quantum::Condition::Parity { value, .. } => *value,
                };
                let builder = builders.get_mut(&addr).expect("controller exists");
                let skip = receive_parity(builder, &producers, value, stats);
                builder.wait(duration_ns.div_ceil(hisq_isa::CYCLE_NS));
                builder.label(skip);
                builder.mark_blocker();
                stats.feedbacks += 1;
            }
            (_, Some(_)) => {
                return Err(CompileError::UnsupportedConditional { index: idx });
            }
        }
    }
    Ok(())
}

/// Receives every producer's bit into `t2`, folds their parity into
/// `t1`, and branches past the conditioned body unless the parity
/// equals `value`. Returns the label the caller places after the body.
fn receive_parity(
    builder: &mut StreamBuilder,
    producers: &[NodeAddr],
    value: bool,
    stats: &mut CompileStats,
) -> Label {
    for (i, &producer) in producers.iter().enumerate() {
        builder.recv(Reg::T2, producer);
        if i == 0 {
            builder.op_imm(AluOp::Add, Reg::T1, Reg::T2, 0); // mv t1, t2
        } else {
            builder.op(AluOp::Xor, Reg::T1, Reg::T1, Reg::T2);
        }
        stats.recvs += 1;
    }
    let skip = builder.fresh_label();
    // Skip the body when the parity does not match `value`.
    let op = if value { BranchOp::Eq } else { BranchOp::Ne };
    builder.branch_zero(op, Reg::T1, skip);
    skip
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisq_isa::Inst;
    use hisq_net::TopologyBuilder;
    use hisq_quantum::Condition;

    fn insts(compiled: &CompiledSystem, addr: NodeAddr) -> &[Inst] {
        compiled.programs[&addr].insts()
    }

    fn position(insts: &[Inst], wanted: Inst) -> usize {
        insts
            .iter()
            .position(|i| *i == wanted)
            .unwrap_or_else(|| panic!("{wanted} missing from {insts:?}"))
    }

    fn sync(target: NodeAddr) -> Inst {
        Inst::Sync {
            target,
            horizon: Reg::X0,
        }
    }

    /// `true` for `beqz t1, _` (`op` = Eq) or `bnez t1, _` (`op` = Ne).
    fn branches_on_t1(inst: &Inst, want: BranchOp) -> bool {
        matches!(inst, Inst::Branch { op, rs1: Reg::T1, rs2: Reg::X0, .. } if *op == want)
    }

    fn linear_topology(n: usize) -> Topology {
        TopologyBuilder::linear(n)
            .neighbor_latency(5)
            .router_arity(4)
            .build()
    }

    #[test]
    fn rejects_oversized_circuits() {
        let topo = linear_topology(2);
        let circuit = Circuit::new(5, 1);
        let err = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::TooManyQubits { .. }));
    }

    #[test]
    fn rejects_non_adjacent_two_qubit_gates() {
        let topo = linear_topology(4);
        let mut circuit = Circuit::new(4, 1);
        circuit.cx(0, 3);
        let err = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::NonAdjacentGate { .. }));
    }

    #[test]
    fn two_qubit_gate_emits_paired_syncs() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.h(0);
        circuit.cz(0, 1);
        let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap();
        assert_eq!(compiled.stats.nearby_syncs, 2);
        let insts0 = insts(&compiled, 0);
        position(insts(&compiled, 1), sync(0));
        // The H's 5-cycle duration on controller 0 is deterministic work
        // the booking overlaps: the sync is hoisted above that wait,
        // before the CZ trigger.
        let sync_pos = position(insts0, sync(1));
        let cz_pos = insts0
            .iter()
            .rposition(|i| matches!(i, Inst::Cw { .. }))
            .unwrap();
        assert!(
            sync_pos < cz_pos,
            "sync precedes the CZ trigger: {insts0:?}"
        );
        let wait_pos = position(insts0, Inst::WaitI { cycles: 5 });
        assert!(
            sync_pos < wait_pos,
            "booking advance overlaps the H duration: {insts0:?}"
        );
    }

    #[test]
    fn no_booking_advance_places_sync_late() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.h(0);
        circuit.cz(0, 1);
        let options = BispOptions {
            booking_advance: false,
            ..BispOptions::default()
        };
        let compiled = compile_bisp(&circuit, &topo, &options).unwrap();
        let insts0 = insts(&compiled, 0);
        let sync_pos = position(insts0, sync(1));
        let h_pos = insts0
            .iter()
            .position(|i| matches!(i, Inst::Cw { .. }))
            .unwrap();
        assert!(
            h_pos < sync_pos,
            "sync placed immediately before the point: {insts0:?}"
        );
    }

    #[test]
    fn measurement_wires_producer_to_consumer() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.measure(0, 0);
        circuit.x_if(1, Condition::bit(0, true));
        let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap();
        assert_eq!(compiled.stats.sends, 1);
        assert_eq!(compiled.stats.recvs, 1);
        assert_eq!(compiled.stats.feedbacks, 1);
        let insts0 = insts(&compiled, 0);
        let recv_pos = position(
            insts0,
            Inst::Recv {
                rd: Reg::T0,
                source: MEAS_FIFO,
            },
        );
        let send_pos = position(
            insts0,
            Inst::Send {
                target: 1,
                rs1: Reg::T0,
            },
        );
        assert!(recv_pos < send_pos, "{insts0:?}");
        let insts1 = insts(&compiled, 1);
        position(
            insts1,
            Inst::Recv {
                rd: Reg::T2,
                source: 0,
            },
        );
        assert!(insts1.iter().any(|i| branches_on_t1(i, BranchOp::Eq)));
    }

    #[test]
    fn parity_condition_receives_all_bits() {
        let topo = linear_topology(3);
        let mut circuit = Circuit::new(3, 2);
        circuit.measure(0, 0);
        circuit.measure(1, 1);
        circuit.x_if(2, Condition::parity(vec![0, 1], false));
        let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap();
        let insts2 = insts(&compiled, 2);
        for source in [0, 1] {
            position(
                insts2,
                Inst::Recv {
                    rd: Reg::T2,
                    source,
                },
            );
        }
        position(
            insts2,
            Inst::Op {
                op: AluOp::Xor,
                rd: Reg::T1,
                rs1: Reg::T1,
                rs2: Reg::T2,
            },
        );
        assert!(
            insts2.iter().any(|i| branches_on_t1(i, BranchOp::Ne)),
            "value=false skips on parity 1"
        );
    }

    #[test]
    fn condition_before_measurement_is_an_error() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.x_if(1, Condition::bit(0, true));
        let err = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            CompileError::ConditionBeforeMeasurement { clbit: 0, .. }
        ));
    }

    #[test]
    fn shots_prepend_region_syncs() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.h(0);
        let options = BispOptions {
            shots: 3,
            ..BispOptions::default()
        };
        let compiled = compile_bisp(&circuit, &topo, &options).unwrap();
        let root = topo.root_router().unwrap();
        let region_syncs = insts(&compiled, 0)
            .iter()
            .filter(|&&i| i == sync(root))
            .count();
        assert_eq!(region_syncs, 3);
        assert_eq!(compiled.stats.region_syncs, 6); // 2 controllers × 3
    }

    #[test]
    fn all_generated_sources_assemble() {
        let topo = linear_topology(3);
        let mut circuit = Circuit::new(3, 2);
        circuit.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        circuit.x_if(2, Condition::parity(vec![0, 1], true));
        circuit.reset(0);
        circuit.delay(2, 1000);
        let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap();
        for (addr, program) in &compiled.programs {
            assert!(!program.is_empty(), "controller {addr} has a program");
            let listing = hisq_isa::Assembler::new()
                .assemble(&compiled.sources[addr])
                .unwrap();
            assert_eq!(listing.insts(), program.insts(), "controller {addr}");
        }
        assert!(compiled.stats.instructions > 0);
    }
}
