//! One-time pre-decode of guest programs into a flat, register-form
//! image the block-dispatch loop runs.
//!
//! The reference interpreter re-examines each [`Inst`] on every
//! execution: a wide `match` over eighteen variants, an `Imm`/`Reg`
//! branch per operand, and a budget check before every instruction. The
//! decode pass does that work once, before the run:
//!
//! * **Register operands.** Every operand of a [`DecodedOp`] is a frame
//!   register index. Each routine's distinct immediates become
//!   *constant registers* placed after its own registers; a frame of a
//!   decoded run starts from the routine's register template (zeros,
//!   then [`DecodedProgram::constants`]), so the dispatch loop never
//!   inspects an [`Operand`]. The reference stepper never reads past the
//!   routine's own registers, so the extra slots are invisible to it. A
//!   routine whose registers plus constants would not fit a [`Reg`]
//!   decodes to [`DecodedOp::Slow`] ops throughout.
//! * **Terminators in the op stream.** A block's terminator is its last
//!   op, so the loop runs a whole block — and chains into the next —
//!   without leaving the op stream.
//! * **Slow ops.** Everything that can block, spawn, sync, trap to the
//!   kernel or pop a frame (`Ret`) is a [`DecodedOp::Slow`] the
//!   reference stepper executes from the source instruction.
//! * **Two fused idioms**, the ones the builder emits for every loop and
//!   every `assign` (DESIGN.md has the dynamic pair table behind the
//!   choice): *compare+branch* ([`DecodedOp::BinBranch`]), a `Bin` whose
//!   result is the block's `Branch` condition, and *op+move*
//!   ([`DecodedOp::BinMov`]), `t = a op b; v = t`. `Div` and `Rem` never
//!   fuse, so a fused op cannot fail. A fused op still counts as two
//!   instructions and two scheduler steps.
//!
//! The image is a few flat arrays: one op *slot* per source instruction
//! (terminators included), the first slot of every block, and the
//! per-routine constants. A fused op sits in its first instruction's
//! slot and the next slot keeps the unfused second instruction, so the
//! block loop skips it while a frame resuming between the two halves
//! runs it on its own. A slot's index is therefore its source position:
//! the number of instructions between two ops is a subtraction, and a
//! frame's `ip` means the same under both steppers (slot = the block's
//! first slot + `ip`). Decoding never changes observable behavior — see
//! the differential suite in `tests/dispatch_equivalence.rs`.

use crate::ir::{BinOp, Block, Inst, Operand, Program, Reg, Routine, Terminator};
use crate::stats::DecodeMode;
use drms_trace::RoutineId;
use std::sync::Arc;

/// A pre-decoded op. Operands are frame registers; block targets are
/// block indices within the routine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DecodedOp {
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = a op b`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = memory[base + offset]`; emits a `read` event.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Offset register.
        offset: Reg,
    },
    /// `memory[base + offset] = src`; emits a `write` event.
    Store {
        /// Base address register.
        base: Reg,
        /// Offset register.
        offset: Reg,
        /// Value register.
        src: Reg,
    },
    /// Bump-allocates `cells` memory cells into `dst`.
    Alloc {
        /// Destination register.
        dst: Reg,
        /// Cell-count register.
        cells: Reg,
    },
    /// `dst = uniform [0, bound)` from the thread RNG.
    Rand {
        /// Destination register.
        dst: Reg,
        /// Bound register.
        bound: Reg,
    },
    /// Fused op+move: `t = a op b; v = t`. Writes both registers.
    BinMov {
        /// The operation (never `Div` or `Rem`).
        op: BinOp,
        /// The `Bin`'s destination.
        t: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// The `Mov`'s destination.
        v: Reg,
    },
    /// Fused compare+branch: `dst = a op b`, then the block's `Branch`
    /// on `dst != 0`. The block's terminator op.
    BinBranch {
        /// The operation (never `Div` or `Rem`).
        op: BinOp,
        /// Destination register, the branch condition.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Block taken when `dst != 0`.
        then_block: u32,
        /// Block taken otherwise.
        else_block: u32,
    },
    /// Unconditional jump terminator.
    Jump {
        /// Target block.
        target: u32,
    },
    /// Two-way branch terminator on `cond != 0`.
    Branch {
        /// Condition register.
        cond: Reg,
        /// Block taken when `cond != 0`.
        then_block: u32,
        /// Block taken otherwise.
        else_block: u32,
    },
    /// Executed by the reference stepper from the source instruction (or
    /// terminator) at this op's position: anything that can block, spawn,
    /// sync, trap or return.
    Slow,
}

/// Decode-time statistics, for observability and the `--decode` A/B
/// tooling.
///
/// Deliberately *not* folded into the run's [`Metrics`] registry: sweep
/// artifacts must stay byte-identical across dispatch modes, and decode
/// counters would differ between `off` and `fused`.
///
/// [`Metrics`]: drms_trace::Metrics
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Routines decoded.
    pub routines: u64,
    /// Basic blocks decoded.
    pub blocks: u64,
    /// Op slots emitted: one per source instruction, terminators
    /// included.
    pub instructions: u64,
    /// [`DecodedOp::Slow`] slots, `Ret` terminators included.
    pub slow_ops: u64,
    /// Compare+branch pairs fused ([`DecodedOp::BinBranch`]).
    pub fused_bin_branch: u64,
    /// Op+move pairs fused ([`DecodedOp::BinMov`]).
    pub fused_bin_mov: u64,
}

impl DecodeStats {
    /// Total superinstructions formed.
    pub fn fused(&self) -> u64 {
        self.fused_bin_branch + self.fused_bin_mov
    }
}

/// A guest program flattened for the block-dispatch loop.
///
/// Built once by [`DecodedProgram::decode`] and shared across runs (the
/// sweep shares one per `(family, size)` cell via [`Arc`]); the VM holds
/// it next to the source [`Program`], whose slow instructions and
/// routine metadata it still references.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    /// One slot per source instruction, every routine's blocks in
    /// order; a block's terminator is its last slot.
    ops: Vec<DecodedOp>,
    /// First slot of every block, routine after routine; one sentinel.
    starts: Vec<u32>,
    /// Index into `starts` of each routine's first block; one sentinel.
    routine_blocks: Vec<u32>,
    /// Every routine's constant registers, routine after routine.
    consts: Vec<i64>,
    /// Index into `consts` of each routine's first constant; one
    /// sentinel.
    routine_consts: Vec<u32>,
    stats: DecodeStats,
}

impl DecodedProgram {
    /// Flattens `program` for the block-dispatch loop, fusing the two
    /// idioms. Every decode is a [`DecodeMode::Fused`] decode: callers
    /// gate on [`DecodeMode::Off`] *before* deciding to decode at all,
    /// so `mode` does not change the image.
    pub fn decode(program: &Program, _mode: DecodeMode) -> Arc<DecodedProgram> {
        let routines = program.routines();
        let blocks: usize = routines.iter().map(|r| r.blocks.len()).sum();
        let slots: usize = routines
            .iter()
            .flat_map(|r| &r.blocks)
            .map(|b| b.insts.len() + 1)
            .sum();
        let mut d = Decoder {
            ops: Vec::with_capacity(slots),
            starts: Vec::with_capacity(blocks + 1),
            stats: DecodeStats::default(),
        };
        let mut consts = Vec::new();
        let mut routine_blocks = Vec::with_capacity(routines.len() + 1);
        let mut routine_consts = Vec::with_capacity(routines.len() + 1);
        for r in routines {
            routine_blocks.push(d.starts.len() as u32);
            routine_consts.push(consts.len() as u32);
            d.routine(r, &mut consts);
        }
        routine_blocks.push(d.starts.len() as u32);
        routine_consts.push(consts.len() as u32);
        d.starts.push(d.ops.len() as u32);
        Arc::new(DecodedProgram {
            ops: d.ops,
            starts: d.starts,
            routine_blocks,
            consts,
            routine_consts,
            stats: d.stats,
        })
    }

    /// Decode-time statistics.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// The constant registers of routine `id`, which follow its own
    /// registers in every frame of a decoded run.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn constants(&self, id: RoutineId) -> &[i64] {
        let r = id.index() as usize;
        &self.consts[self.routine_consts[r] as usize..self.routine_consts[r + 1] as usize]
    }

    /// The program's op slots, and routine `id`'s block starts:
    /// `starts[b]` is block `b`'s first slot and `starts[b + 1]` one past
    /// its terminator.
    #[inline]
    pub(crate) fn code(&self, id: RoutineId) -> (&[DecodedOp], &[u32]) {
        let r = id.index() as usize;
        let (lo, hi) = (
            self.routine_blocks[r] as usize,
            self.routine_blocks[r + 1] as usize,
        );
        // The next routine's first entry (or the sentinel) closes this
        // routine's last block.
        (&self.ops, &self.starts[lo..=hi])
    }

    /// Whether this decoded image structurally matches `program`: same
    /// routine count and per-routine block count. A cheap sanity check
    /// for callers injecting a shared pre-decoded program.
    pub fn matches(&self, program: &Program) -> bool {
        self.routine_blocks.len() == program.routines().len() + 1
            && self
                .routine_blocks
                .windows(2)
                .zip(program.routines())
                .all(|(w, r)| (w[1] - w[0]) as usize == r.blocks.len())
    }
}

/// The slot and block arrays under construction.
struct Decoder {
    ops: Vec<DecodedOp>,
    starts: Vec<u32>,
    stats: DecodeStats,
}

/// The register file of the routine being decoded: its own registers,
/// then one constant register per distinct immediate.
struct Regs<'a> {
    own: u16,
    consts: &'a mut Vec<i64>,
    first: usize,
}

impl Regs<'_> {
    /// The register holding `op`, or `None` when a constant register
    /// would not fit a [`Reg`].
    fn of(&mut self, op: Operand) -> Option<Reg> {
        match op {
            Operand::Reg(r) => Some(r),
            Operand::Imm(v) => {
                let routine = &self.consts[self.first..];
                let i = match routine.iter().position(|&c| c == v) {
                    Some(i) => i,
                    None => {
                        let i = routine.len();
                        self.consts.push(v);
                        i
                    }
                };
                Reg::try_from(usize::from(self.own) + i).ok()
            }
        }
    }
}

/// `Div` and `Rem` can fail, so they never fuse.
fn fusable(op: BinOp) -> bool {
    !matches!(op, BinOp::Div | BinOp::Rem)
}

impl Decoder {
    fn push(&mut self, op: DecodedOp) {
        self.ops.push(op);
        self.stats.instructions += 1;
        if op == DecodedOp::Slow {
            self.stats.slow_ops += 1;
        }
    }

    /// Decodes one routine into register form, appending its constants
    /// to `consts`; if they overflow the register space, re-emits it as
    /// slow ops with no constants.
    fn routine(&mut self, r: &Routine, consts: &mut Vec<i64>) {
        self.stats.routines += 1;
        self.stats.blocks += r.blocks.len() as u64;
        let (ops, starts, first, stats) =
            (self.ops.len(), self.starts.len(), consts.len(), self.stats);
        let mut regs = Regs {
            own: r.regs,
            consts,
            first,
        };
        if r.blocks
            .iter()
            .try_for_each(|b| self.block(b, &mut regs))
            .is_some()
        {
            return;
        }
        self.ops.truncate(ops);
        self.starts.truncate(starts);
        consts.truncate(first);
        self.stats = stats;
        for b in &r.blocks {
            self.starts.push(self.ops.len() as u32);
            for _ in 0..=b.insts.len() {
                self.push(DecodedOp::Slow);
            }
        }
    }

    /// Emits one slot per instruction of `block`, then its terminator's;
    /// a fused op replaces its first instruction's slot.
    fn block(&mut self, block: &Block, regs: &mut Regs<'_>) -> Option<()> {
        self.starts.push(self.ops.len() as u32);
        let insts = &block.insts;
        let term = terminator(&block.term, regs)?;
        for (i, inst) in insts.iter().enumerate() {
            let mut op = plain(inst, regs)?;
            if let DecodedOp::Bin { op: bin, dst, a, b } = op {
                if fusable(bin) {
                    match (insts.get(i + 1), term) {
                        // op+move: `t = a op b; v = t`.
                        (Some(Inst::Mov { dst: v, src }), _) if *src == Operand::Reg(dst) => {
                            op = DecodedOp::BinMov {
                                op: bin,
                                t: dst,
                                a,
                                b,
                                v: *v,
                            };
                            self.stats.fused_bin_mov += 1;
                        }
                        // compare+branch: the block's last `Bin`
                        // computes its `Branch` condition.
                        (
                            None,
                            DecodedOp::Branch {
                                cond,
                                then_block,
                                else_block,
                            },
                        ) if cond == dst => {
                            op = DecodedOp::BinBranch {
                                op: bin,
                                dst,
                                a,
                                b,
                                then_block,
                                else_block,
                            };
                            self.stats.fused_bin_branch += 1;
                        }
                        _ => {}
                    }
                }
            }
            self.push(op);
        }
        self.push(term);
        Some(())
    }
}

/// The op of a terminator: `Jump` and `Branch` in register form, `Ret`
/// on the reference stepper.
fn terminator(term: &Terminator, regs: &mut Regs<'_>) -> Option<DecodedOp> {
    Some(match *term {
        Terminator::Jump(target) => DecodedOp::Jump {
            target: target.index(),
        },
        Terminator::Branch {
            cond,
            then_block,
            else_block,
        } => DecodedOp::Branch {
            cond: regs.of(cond)?,
            then_block: then_block.index(),
            else_block: else_block.index(),
        },
        Terminator::Ret(_) => DecodedOp::Slow,
    })
}

/// Converts one instruction: a plain op in register form, or
/// [`DecodedOp::Slow`]. `None` if a constant register does not fit.
fn plain(inst: &Inst, regs: &mut Regs<'_>) -> Option<DecodedOp> {
    Some(match *inst {
        Inst::Mov { dst, src } => DecodedOp::Mov {
            dst,
            src: regs.of(src)?,
        },
        Inst::Bin { op, dst, lhs, rhs } => DecodedOp::Bin {
            op,
            dst,
            a: regs.of(lhs)?,
            b: regs.of(rhs)?,
        },
        Inst::Load { dst, base, offset } => DecodedOp::Load {
            dst,
            base: regs.of(base)?,
            offset: regs.of(offset)?,
        },
        Inst::Store { base, offset, src } => DecodedOp::Store {
            base: regs.of(base)?,
            offset: regs.of(offset)?,
            src: regs.of(src)?,
        },
        Inst::Alloc { dst, cells } => DecodedOp::Alloc {
            dst,
            cells: regs.of(cells)?,
        },
        Inst::Rand { dst, bound } => DecodedOp::Rand {
            dst,
            bound: regs.of(bound)?,
        },
        _ => DecodedOp::Slow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    /// A loop summing a global array: the canonical hot block shape.
    fn sum_loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.global_with(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let main = pb.declare("main", 0);
        pb.define(main, |f| {
            let acc = f.copy(0);
            f.for_range(0, 8, |f, i| {
                let v = f.load(g.raw() as i64, i);
                let s = f.add(acc, v);
                f.assign(acc, s);
            });
            f.ret(None);
        });
        pb.finish(main).unwrap()
    }

    impl DecodedProgram {
        /// The op slots of one block: slot `i` stands for source
        /// instruction `i`, and the last slot for the terminator.
        fn block_ops(&self, routine: RoutineId, block: usize) -> &[DecodedOp] {
            let (ops, starts) = self.code(routine);
            &ops[starts[block] as usize..starts[block + 1] as usize]
        }
    }

    fn entry_ops<'d>(d: &'d DecodedProgram, p: &Program) -> &'d [DecodedOp] {
        d.block_ops(p.main(), p.routine(p.main()).entry.index() as usize)
    }

    #[test]
    fn decoding_covers_every_block_and_instruction() {
        let p = sum_loop_program();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        assert!(d.matches(&p));
        let s = d.stats();
        assert_eq!(s.routines, p.routines().len() as u64);
        let src_blocks: usize = p.routines().iter().map(|r| r.blocks.len()).sum();
        assert_eq!(s.blocks, src_blocks as u64);
        let src_insts: usize = p
            .routines()
            .iter()
            .flat_map(|r| &r.blocks)
            .map(|b| b.insts.len() + 1)
            .sum();
        assert_eq!(s.instructions, src_insts as u64, "a slot per instruction");
        for (i, b) in p.routine(p.main()).blocks.iter().enumerate() {
            let ops = d.block_ops(p.main(), i);
            assert_eq!(ops.len(), b.insts.len() + 1, "block {i}");
            let term = ops[b.insts.len()];
            match b.term {
                Terminator::Jump(_) => assert!(matches!(term, DecodedOp::Jump { .. })),
                Terminator::Branch { .. } => assert!(matches!(term, DecodedOp::Branch { .. })),
                Terminator::Ret(_) => assert_eq!(term, DecodedOp::Slow),
            }
        }
    }

    #[test]
    fn fused_mode_forms_superinstructions_in_the_hot_loop() {
        let p = sum_loop_program();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        let s = d.stats();
        // The loop head tests `i < 8` and branches; the body ends with
        // `s = acc + v; acc = s` and the increment `n = i + 1; i = n`.
        assert_eq!(s.fused_bin_branch, 1, "{s:?}");
        assert_eq!(s.fused_bin_mov, 2, "{s:?}");
        assert_eq!(s.fused(), 3);
    }

    #[test]
    fn a_fused_op_leaves_its_second_half_in_the_next_slot() {
        let p = sum_loop_program();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        let mut seen = 0;
        for (i, b) in p.routine(p.main()).blocks.iter().enumerate() {
            let ops = d.block_ops(p.main(), i);
            for (k, op) in ops.iter().enumerate() {
                match *op {
                    DecodedOp::BinMov { t, v, .. } => {
                        assert_eq!(ops[k + 1], DecodedOp::Mov { dst: v, src: t });
                        seen += 1;
                    }
                    DecodedOp::BinBranch {
                        dst,
                        then_block,
                        else_block,
                        ..
                    } => {
                        assert_eq!(k + 1, b.insts.len(), "the terminator follows");
                        let branch = DecodedOp::Branch {
                            cond: dst,
                            then_block,
                            else_block,
                        };
                        assert_eq!(ops[k + 1], branch);
                        seen += 1;
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(seen, d.stats().fused());
    }

    #[test]
    fn slow_ops_point_back_at_their_source_index() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("callee", 0);
        pb.define(callee, |f| f.ret(None));
        let main = pb.declare("main", 0);
        pb.define(main, |f| {
            let a = f.copy(1); // Mov           — plain, slot 0
            f.call(callee, &[]); // Call        — slow, slot 1
            let b = f.add(a, a); // Bin         — fused with the Mov
            f.assign(a, b); // Mov
            f.ret(None); // Ret                 — slow, slot 4
        });
        let p = pb.finish(main).unwrap();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        let slow: Vec<usize> = entry_ops(&d, &p)
            .iter()
            .enumerate()
            .filter(|(_, op)| **op == DecodedOp::Slow)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(slow, [1, 4]);
        let src = &p.routine(p.main()).blocks[p.routine(p.main()).entry.index() as usize];
        assert!(
            matches!(src.insts[slow[0]], Inst::Call { .. }),
            "the Slow slot is the original Call's"
        );
        assert_eq!(slow[1], src.insts.len(), "and the Ret's");
        assert_eq!(d.stats().slow_ops, 3, "two Rets and the Call");
    }

    #[test]
    fn fusion_never_crosses_a_slow_op() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("callee", 0);
        pb.define(callee, |f| f.ret(None));
        let main = pb.declare("main", 0);
        pb.define(main, |f| {
            let a = f.copy(1);
            let b = f.add(a, a); // Bin
            f.call(callee, &[]); // Call (slow) separates the Bin and the Mov
            f.assign(a, b);
            f.ret(None);
        });
        let p = pb.finish(main).unwrap();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        let ops = entry_ops(&d, &p);
        assert!(
            !ops.iter().any(|op| matches!(op, DecodedOp::BinMov { .. })),
            "Bin;Call;Mov must not fuse across the call: {ops:?}"
        );
        assert_eq!(d.stats().fused(), 0);
    }

    #[test]
    fn immediates_read_constant_registers_after_the_routines_own() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare("main", 0);
        pb.define(main, |f| {
            let a = f.copy(7); // Mov of an immediate
            let b = f.copy(0);
            f.assign(b, a); // Mov of a register
            let _ = f.add(a, 7); // 7 again: the same constant register
            f.ret(None);
        });
        let p = pb.finish(main).unwrap();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        let own = p.routine(p.main()).regs;
        assert_eq!(d.constants(p.main()), [7, 0]);
        let ops = entry_ops(&d, &p);
        assert_eq!(ops[0], DecodedOp::Mov { dst: 0, src: own });
        assert_eq!(
            ops[1],
            DecodedOp::Mov {
                dst: 1,
                src: own + 1
            }
        );
        assert_eq!(ops[2], DecodedOp::Mov { dst: 1, src: 0 });
        assert!(matches!(ops[3], DecodedOp::Bin { a: 0, b, .. } if b == own));
    }

    #[test]
    fn div_and_rem_never_fuse() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare("main", 0);
        pb.define(main, |f| {
            let a = f.copy(9);
            let q = f.div(a, 3);
            f.assign(a, q);
            let r = f.rem(a, 2);
            f.if_then(r, |f| f.assign(a, 0));
            f.ret(None);
        });
        let p = pb.finish(main).unwrap();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        assert_eq!(d.stats().fused(), 0, "{:?}", entry_ops(&d, &p));
    }

    #[test]
    fn a_routine_out_of_register_space_decodes_slow() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare("main", 0);
        pb.define(main, |f| {
            let a = f.copy(0);
            // Own registers up to 65534 (the adds take the last two);
            // constant 0 then lands on 65535, constant 1 past it.
            while f.fresh() < u16::MAX - 3 {}
            let _ = f.add(a, 1);
            let _ = f.add(a, 2);
            f.ret(None);
        });
        let p = pb.finish(main).unwrap();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        assert!(d.constants(p.main()).is_empty());
        assert!(entry_ops(&d, &p).iter().all(|op| *op == DecodedOp::Slow));
        assert_eq!(d.stats().instructions, d.stats().slow_ops);
    }
}
