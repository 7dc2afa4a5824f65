//! Per-controller instruction stream builders.
//!
//! Code generation emits typed [`Inst`]s straight into a per-controller
//! stream. Branch and jump targets are [`Label`]s, kept as marker
//! entries in the stream and resolved to relative byte offsets by
//! [`StreamBuilder::finish`], which returns the [`Program`] without any
//! text in between. The human-readable listing is the disassembly of
//! that program (`CompiledSystem::sources`).
//!
//! The builder also implements the **booking advance** of BISP (§4.2):
//! a `sync` is inserted at the *hoist point* — just after the last
//! instruction whose timing is non-deterministic (a `recv`, a branch, a
//! previous synchronization point) — so the calibrated countdown overlaps
//! the deterministic work emitted since.

use hisq_core::NodeAddr;
use hisq_isa::asm::expand_li;
use hisq_isa::{AluOp, BranchOp, CwOperand, Inst, LoadOp, Program, Reg, StoreOp};

/// Maximum immediate of a single `waiti` (22-bit field).
const MAX_WAITI: u64 = (1 << 22) - 1;

/// A branch or jump target within one [`StreamBuilder`], placed with
/// [`StreamBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// One stream entry: an instruction, a label marker, or a control-flow
/// instruction whose offset `finish` resolves.
#[derive(Debug, Clone)]
enum Entry {
    Inst(Inst),
    Label(Label),
    /// `branch rs1, x0, target` (`beqz`/`bnez`).
    BranchZero {
        op: BranchOp,
        rs1: Reg,
        to: Label,
    },
    /// `jal x0, target` (`j`).
    Jump(Label),
}

impl Entry {
    /// Grid cycles the entry consumes (non-zero only for `waiti`).
    fn cycles(&self) -> u64 {
        match self {
            Entry::Inst(Inst::WaitI { cycles }) => u64::from(*cycles),
            _ => 0,
        }
    }
}

/// An append-mostly instruction stream for one controller.
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    addr: NodeAddr,
    entries: Vec<Entry>,
    /// Labels handed out so far (the next label's id).
    labels: usize,
    /// Index into `entries` where a hoisted `sync` may be inserted.
    hoist_point: usize,
    /// Deterministic grid cycles accumulated since the hoist point.
    det_cycles: u64,
}

impl StreamBuilder {
    /// Creates an empty stream for controller `addr`.
    pub fn new(addr: NodeAddr) -> StreamBuilder {
        StreamBuilder {
            addr,
            entries: Vec::new(),
            labels: 0,
            hoist_point: 0,
            det_cycles: 0,
        }
    }

    /// The owning controller's address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// Deterministic cycles accumulated since the last blocker.
    pub fn det_cycles(&self) -> u64 {
        self.det_cycles
    }

    fn push(&mut self, inst: Inst) {
        self.entries.push(Entry::Inst(inst));
    }

    /// Emits a register-register ALU instruction (`add rd, rs1, rs2`, …).
    pub fn op(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Inst::Op { op, rd, rs1, rs2 });
    }

    /// Emits a register-immediate ALU instruction (`addi rd, rs1, imm`,
    /// …; `mv rd, rs` is `addi rd, rs, 0`).
    pub fn op_imm(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Inst::OpImm { op, rd, rs1, imm });
    }

    /// Emits `lw rd, offset(base)`.
    pub fn lw(&mut self, rd: Reg, base: Reg, offset: i32) {
        self.push(Inst::Load {
            op: LoadOp::Word,
            rd,
            rs1: base,
            offset,
        });
    }

    /// Emits `sw src, offset(base)`.
    pub fn sw(&mut self, src: Reg, base: Reg, offset: i32) {
        self.push(Inst::Store {
            op: StoreOp::Word,
            rs1: base,
            rs2: src,
            offset,
        });
    }

    /// Emits `li rd, imm` with the assembler's expansion (one `addi`, or
    /// `lui` + `addi` past 12 bits).
    pub fn li(&mut self, rd: Reg, imm: i32) {
        self.entries.extend(expand_li(rd, imm).map(Entry::Inst));
    }

    /// Emits a branch to `to` comparing `rs1` against zero (`op` =
    /// [`BranchOp::Eq`] is `beqz`, [`BranchOp::Ne`] is `bnez`).
    pub fn branch_zero(&mut self, op: BranchOp, rs1: Reg, to: Label) {
        self.entries.push(Entry::BranchZero { op, rs1, to });
    }

    /// Emits an unconditional jump to `to`.
    pub fn jump(&mut self, to: Label) {
        self.entries.push(Entry::Jump(to));
    }

    /// Returns a fresh label, unique within this stream.
    pub fn fresh_label(&mut self) -> Label {
        self.labels += 1;
        Label(self.labels - 1)
    }

    /// Places a label at the current stream position.
    pub fn label(&mut self, label: Label) {
        self.entries.push(Entry::Label(label));
    }

    /// Advances the timing grid by `cycles` (splitting waits that exceed
    /// the 22-bit `waiti` field). Zero-cycle waits emit nothing.
    pub fn wait(&mut self, mut cycles: u64) {
        self.det_cycles += cycles;
        while cycles > 0 {
            let chunk = cycles.min(MAX_WAITI);
            self.push(waiti(chunk));
            cycles -= chunk;
        }
    }

    /// Emits a codeword trigger (does not advance the grid).
    pub fn cw(&mut self, port: u32, codeword: u32) {
        self.push(Inst::Cw {
            port: CwOperand::Imm(port),
            codeword: CwOperand::Imm(codeword),
        });
    }

    /// Emits a blocking receive into `rd`.
    ///
    /// Receives cap the hoist point: a later `sync` must not be hoisted
    /// above a message dependency, or the controller would block on the
    /// sync before satisfying it.
    pub fn recv(&mut self, rd: Reg, source: NodeAddr) {
        self.push(Inst::Recv { rd, source });
        self.hoist_point = self.entries.len();
    }

    /// Emits a send of `rs1` to `target`.
    ///
    /// Sends also cap the hoist point: hoisting a blocking `sync` above
    /// a send would delay the message a remote consumer may need before
    /// *its* half of that very synchronization (deadlock). Sends take no
    /// grid time, so the accumulated deterministic cycles are kept.
    pub fn send(&mut self, target: NodeAddr, rs1: Reg) {
        self.push(Inst::Send { target, rs1 });
        self.hoist_point = self.entries.len();
    }

    /// Inserts `sync target` exactly `cover` deterministic grid cycles
    /// before the current stream position (the optimal booking advance:
    /// booking further ahead than the countdown buys nothing and can
    /// replay overlappable work after a late partner). The hoist stops
    /// at the last blocker. Oversized `waiti`s are split so the
    /// insertion point is exact. Returns the deterministic cycles that
    /// actually cover the countdown (`min(cover, available work)`).
    pub fn sync_covering(&mut self, target: NodeAddr, cover: u64) -> u64 {
        let mut acc = 0u64;
        let mut pos = self.entries.len();
        while pos > self.hoist_point && acc < cover {
            let cycles = self.entries[pos - 1].cycles();
            if acc + cycles > cover {
                // Split the wait so exactly `cover` cycles follow the sync.
                let needed = cover - acc;
                self.entries[pos - 1] = Entry::Inst(waiti(cycles - needed));
                self.entries.insert(pos, Entry::Inst(waiti(needed)));
                acc = cover;
                break;
            }
            acc += cycles;
            pos -= 1;
        }
        self.entries.insert(pos, Entry::Inst(sync(target, Reg::X0)));
        acc
    }

    /// Appends `sync target` at the current position (the QubiC-style
    /// placement immediately before the synchronization point; used by
    /// the no-booking-advance ablation).
    pub fn sync_here(&mut self, target: NodeAddr) {
        self.push(sync(target, Reg::X0));
        // Everything accumulated so far is before the sync; the countdown
        // overlaps nothing.
        self.det_cycles = 0;
        self.hoist_point = self.entries.len();
    }

    /// Appends a region sync against `router` booking `horizon` cycles
    /// ahead (loads the horizon into `t6` first).
    pub fn region_sync(&mut self, router: NodeAddr, horizon: u32) {
        if horizon == 0 {
            self.push(sync(router, Reg::X0));
        } else {
            self.li(Reg::T6, horizon as i32);
            self.push(sync(router, Reg::T6));
        }
        self.mark_blocker();
    }

    /// Declares that the timing of everything after this point restarts
    /// from a non-deterministic event (recv, branch, synchronization
    /// point): future hoisted syncs will not cross it.
    pub fn mark_blocker(&mut self) {
        self.hoist_point = self.entries.len();
        self.det_cycles = 0;
    }

    /// Emits the program epilogue (`stop`) and resolves every branch and
    /// jump to the relative byte offset of its label.
    pub fn finish(mut self) -> Program {
        self.push(Inst::Stop);
        // Pass 1: the instruction index each label marks.
        let mut targets = vec![0usize; self.labels];
        let mut index = 0usize;
        for entry in &self.entries {
            match entry {
                Entry::Label(Label(id)) => targets[*id] = index,
                _ => index += 1,
            }
        }
        // Pass 2: the instructions, with offsets relative to each branch.
        let offset = |to: Label, at: usize| ((targets[to.0] as i64 - at as i64) * 4) as i32;
        let mut insts = Vec::with_capacity(index);
        for entry in self.entries {
            let at = insts.len();
            insts.push(match entry {
                Entry::Inst(inst) => inst,
                Entry::Label(_) => continue,
                Entry::BranchZero { op, rs1, to } => Inst::Branch {
                    op,
                    rs1,
                    rs2: Reg::X0,
                    offset: offset(to, at),
                },
                Entry::Jump(to) => Inst::Jal {
                    rd: Reg::X0,
                    offset: offset(to, at),
                },
            });
        }
        Program::new(insts)
    }
}

fn waiti(cycles: u64) -> Inst {
    Inst::WaitI {
        cycles: cycles as u32,
    }
}

fn sync(target: NodeAddr, horizon: Reg) -> Inst {
    Inst::Sync { target, horizon }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait(cycles: u32) -> Inst {
        Inst::WaitI { cycles }
    }

    fn sync_to(target: NodeAddr) -> Inst {
        sync(target, Reg::X0)
    }

    #[test]
    fn waits_are_split_and_merged_into_det_cycles() {
        let mut b = StreamBuilder::new(0);
        b.wait(MAX_WAITI + 10);
        assert_eq!(b.det_cycles(), MAX_WAITI + 10);
        b.wait(0); // no instruction
        let program = b.finish();
        assert_eq!(
            program.insts(),
            [wait(MAX_WAITI as u32), wait(10), Inst::Stop]
        );
    }

    #[test]
    fn sync_covering_inserts_at_exact_coverage() {
        let mut b = StreamBuilder::new(1);
        b.recv(Reg::T0, 7);
        b.mark_blocker();
        b.wait(5);
        b.cw(0, 1);
        let covered = b.sync_covering(2, 5);
        assert_eq!(covered, 5);
        let program = b.finish();
        // sync sits right after the recv: exactly 5 deterministic cycles
        // of coverage follow it.
        assert_eq!(
            program.insts()[..3],
            [
                Inst::Recv {
                    rd: Reg::T0,
                    source: 7
                },
                sync_to(2),
                wait(5)
            ]
        );
    }

    #[test]
    fn sync_covering_stops_at_blocker_when_short() {
        let mut b = StreamBuilder::new(1);
        b.recv(Reg::T0, 7);
        b.mark_blocker();
        b.wait(3);
        let covered = b.sync_covering(2, 10);
        assert_eq!(covered, 3, "only 3 cycles available to cover");
        assert_eq!(b.finish().insts()[1], sync_to(2));
    }

    #[test]
    fn sync_covering_splits_oversized_waits() {
        let mut b = StreamBuilder::new(1);
        b.wait(75); // one long measurement wait
        let covered = b.sync_covering(2, 5);
        assert_eq!(covered, 5);
        assert_eq!(
            b.finish().insts(),
            [wait(70), sync_to(2), wait(5), Inst::Stop]
        );
    }

    #[test]
    fn sync_covering_does_not_book_too_early() {
        // 30 cycles of work available, countdown only 5: the sync must
        // be placed 5 cycles before the end, not at the stream start.
        let mut b = StreamBuilder::new(1);
        b.wait(10);
        b.wait(10);
        b.wait(10);
        let covered = b.sync_covering(2, 5);
        assert_eq!(covered, 5);
        assert_eq!(
            b.finish().insts(),
            [wait(10), wait(10), wait(5), sync_to(2), wait(5), Inst::Stop]
        );
    }

    #[test]
    fn sync_here_overlaps_nothing() {
        let mut b = StreamBuilder::new(1);
        b.wait(50);
        b.sync_here(2);
        assert_eq!(b.det_cycles(), 0);
        assert_eq!(b.finish().insts(), [wait(50), sync_to(2), Inst::Stop]);
    }

    #[test]
    fn hoisted_sync_lands_after_a_label_at_the_hoist_point() {
        let mut b = StreamBuilder::new(1);
        let skip = b.fresh_label();
        b.branch_zero(BranchOp::Eq, Reg::T1, skip);
        b.wait(4);
        b.label(skip);
        b.mark_blocker();
        b.wait(5);
        b.sync_covering(2, 5);
        // The branch skips the wait and lands on the sync, not past it.
        assert_eq!(
            b.finish().insts(),
            [
                Inst::Branch {
                    op: BranchOp::Eq,
                    rs1: Reg::T1,
                    rs2: Reg::X0,
                    offset: 8
                },
                wait(4),
                sync_to(2),
                wait(5),
                Inst::Stop
            ]
        );
    }

    #[test]
    fn labels_are_unique_and_assemble() {
        let mut b = StreamBuilder::new(3);
        let skip = b.fresh_label();
        let top = b.fresh_label();
        assert_ne!(skip, top);
        b.label(top);
        b.branch_zero(BranchOp::Ne, Reg::T0, skip);
        b.cw(0, 1);
        b.jump(top);
        b.label(skip);
        let program = b.finish();
        assert_eq!(program.len(), 4);
        assert_eq!(
            program.insts()[0],
            Inst::Branch {
                op: BranchOp::Ne,
                rs1: Reg::T0,
                rs2: Reg::X0,
                offset: 12
            }
        );
        assert_eq!(
            program.insts()[2],
            Inst::Jal {
                rd: Reg::X0,
                offset: -8
            }
        );
    }

    #[test]
    fn region_sync_with_horizon_loads_register() {
        let mut b = StreamBuilder::new(0);
        b.region_sync(100, 30);
        assert_eq!(
            b.finish().insts()[..2],
            [
                Inst::OpImm {
                    op: AluOp::Add,
                    rd: Reg::T6,
                    rs1: Reg::X0,
                    imm: 30
                },
                sync(100, Reg::T6)
            ]
        );
    }

    #[test]
    fn li_matches_the_assembler_expansion() {
        for imm in [0, 30, 2047, -2048, 2048, 1_000_000, -1_000_000, i32::MIN] {
            let mut b = StreamBuilder::new(0);
            b.li(Reg::T5, imm);
            let program = b.finish();
            let text = hisq_isa::Assembler::new()
                .assemble(&format!("li t5, {imm}\nstop"))
                .unwrap();
            assert_eq!(program.insts(), text.insts(), "li t5, {imm}");
        }
    }
}
