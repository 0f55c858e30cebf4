//! One-time pre-decode of guest programs into flat, dispatch-friendly
//! basic blocks.
//!
//! The reference interpreter re-examines each [`Inst`] on every
//! execution: a wide `match` over eighteen variants, most of which never
//! occur in a hot loop. The decode pass flattens every block into a
//! [`DecodedOp`] array once, before the run:
//!
//! * the plain, loop-dominating operations (`Mov`/`Bin`/`Load`/`Store`/
//!   `Alloc`/`Rand`) become dedicated variants the dispatch loop handles
//!   inline, with `Mov` split by operand kind so the loop never
//!   re-inspects an [`Operand`] it could have resolved at decode time;
//! * everything that can block, spawn, trap to the kernel or otherwise
//!   end a scheduling quantum becomes [`DecodedOp::Slow`], a back-pointer
//!   into the original block so the reference `exec_inst` path handles it
//!   unchanged — slow ops are rare by construction, so they pay the old
//!   price while the hot path pays the new one;
//! * the hottest adjacent pairs in the sweep families' inner loops
//!   (`Bin;Bin` for index arithmetic + compare, `Bin;Load` for address
//!   computation + load, `Load;Bin` for load + accumulate) are fused
//!   into superinstructions, halving dispatch overhead where the
//!   interpreter spends most of its time.
//!
//! Decoded blocks keep the original block indices (a fused pair never
//! crosses a block boundary), so jump targets, `Frame::block` values and
//! every block-cost counter are identical across dispatch modes. Only the
//! intra-block instruction index changes meaning: it counts decoded
//! slots, and [`DecodedOp::Slow`] carries the original index it stands
//! for. Decoding never changes observable behavior — see the
//! differential suite in `tests/dispatch_equivalence.rs`.

use crate::ir::{BinOp, Inst, Operand, Program, Reg, Terminator};
use crate::stats::DecodeMode;
use drms_trace::RoutineId;
use std::sync::Arc;

/// One half of a fused superinstruction: a complete `Bin` operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BinHalf {
    /// The operation.
    pub op: BinOp,
    /// Destination register.
    pub dst: Reg,
    /// Left operand.
    pub lhs: Operand,
    /// Right operand.
    pub rhs: Operand,
}

/// A pre-decoded instruction slot.
///
/// Plain variants mirror the corresponding [`Inst`] arms; fused variants
/// pack two adjacent plain instructions into one dispatch; [`Slow`] defers
/// to the reference interpreter for everything else.
///
/// [`Slow`]: DecodedOp::Slow
#[derive(Clone, Debug, PartialEq)]
pub enum DecodedOp {
    /// `dst = imm` — a `Mov` whose source resolved at decode time.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// The constant.
        imm: i64,
    },
    /// `dst = regs[src]`.
    MovReg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = lhs op rhs`.
    Bin(BinHalf),
    /// `dst = memory[base + offset]`; emits a `read` event.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address operand.
        base: Operand,
        /// Offset operand.
        offset: Operand,
    },
    /// `memory[base + offset] = src`; emits a `write` event.
    Store {
        /// Base address operand.
        base: Operand,
        /// Offset operand.
        offset: Operand,
        /// Value operand.
        src: Operand,
    },
    /// Bump-allocates `cells` memory cells into `dst`.
    Alloc {
        /// Destination register.
        dst: Reg,
        /// Cell-count operand.
        cells: Operand,
    },
    /// `dst = uniform [0, bound)` from the thread RNG.
    Rand {
        /// Destination register.
        dst: Reg,
        /// Bound operand.
        bound: Operand,
    },
    /// Fused `Bin; Bin` (index arithmetic + compare/accumulate).
    BinBin(BinHalf, BinHalf),
    /// Fused `Bin; Load` (address computation + load).
    BinLoad {
        /// First half.
        a: BinHalf,
        /// Load destination.
        dst: Reg,
        /// Load base operand.
        base: Operand,
        /// Load offset operand.
        offset: Operand,
    },
    /// Fused `Load; Bin` (load + accumulate).
    LoadBin {
        /// Load destination.
        dst: Reg,
        /// Load base operand.
        base: Operand,
        /// Load offset operand.
        offset: Operand,
        /// Second half.
        b: BinHalf,
    },
    /// Anything that can block, spawn, sync or trap: executed by the
    /// reference `exec_inst` path. Carries the index of the original
    /// instruction within its (undecoded) block.
    Slow {
        /// Index into the original block's `insts`.
        ip: u32,
    },
}

/// A pre-decoded basic block: decoded slots plus the (unchanged)
/// terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodedBlock {
    /// Decoded instruction slots.
    pub ops: Vec<DecodedOp>,
    /// Control transfer ending the block; identical to the source block's.
    pub term: Terminator,
}

/// All decoded blocks of one routine, at the original block indices.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodedRoutine {
    /// Blocks, indexed exactly like the source routine's.
    pub blocks: Vec<DecodedBlock>,
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
    /// Decoded slots emitted (fused pairs count once).
    pub ops: u64,
    /// Source instructions covered (fused pairs count twice).
    pub instructions: u64,
    /// Slots deferring to the reference interpreter.
    pub slow_ops: u64,
    /// `Bin;Bin` superinstructions formed.
    pub fused_bin_bin: u64,
    /// `Bin;Load` superinstructions formed.
    pub fused_bin_load: u64,
    /// `Load;Bin` superinstructions formed.
    pub fused_load_bin: u64,
}

impl DecodeStats {
    /// Total superinstructions formed.
    pub fn fused(&self) -> u64 {
        self.fused_bin_bin + self.fused_bin_load + self.fused_load_bin
    }
}

/// A guest program flattened for the fast dispatch loop.
///
/// Built once by [`DecodedProgram::decode`] and shared across runs (the
/// sweep shares one per `(family, size)` cell via [`Arc`]); the VM holds
/// it next to the source [`Program`], whose `Slow` instructions and
/// routine metadata it still references.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    routines: Vec<DecodedRoutine>,
    stats: DecodeStats,
}

impl DecodedProgram {
    /// Flattens `program` for fast dispatch, fusing superinstructions.
    /// Every decode is a [`DecodeMode::Fused`] decode: callers gate on
    /// [`DecodeMode::Off`] *before* deciding to decode at all, so `mode`
    /// does not change the image.
    pub fn decode(program: &Program, _mode: DecodeMode) -> Arc<DecodedProgram> {
        let mut stats = DecodeStats::default();
        let routines = program
            .routines()
            .iter()
            .map(|r| {
                stats.routines += 1;
                let blocks = r
                    .blocks
                    .iter()
                    .map(|b| {
                        stats.blocks += 1;
                        decode_block(&b.insts, b.term.clone(), &mut stats)
                    })
                    .collect();
                DecodedRoutine { blocks }
            })
            .collect();
        Arc::new(DecodedProgram { routines, stats })
    }

    /// Decode-time statistics.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// The decoded routines, indexed by [`RoutineId`].
    pub fn routines(&self) -> &[DecodedRoutine] {
        &self.routines
    }

    /// Returns a decoded routine by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn routine(&self, id: RoutineId) -> &DecodedRoutine {
        &self.routines[id.index() as usize]
    }

    /// Whether this decoded image structurally matches `program`: same
    /// routine count and per-routine block count. A cheap sanity check
    /// for callers injecting a shared pre-decoded program.
    pub fn matches(&self, program: &Program) -> bool {
        self.routines.len() == program.routines().len()
            && self
                .routines
                .iter()
                .zip(program.routines())
                .all(|(d, s)| d.blocks.len() == s.blocks.len())
    }
}

/// Converts one plain instruction, or `None` if it must stay slow.
fn decode_plain(inst: &Inst) -> Option<DecodedOp> {
    Some(match *inst {
        Inst::Mov { dst, src } => match src {
            Operand::Imm(imm) => DecodedOp::MovImm { dst, imm },
            Operand::Reg(src) => DecodedOp::MovReg { dst, src },
        },
        Inst::Bin { op, dst, lhs, rhs } => DecodedOp::Bin(BinHalf { op, dst, lhs, rhs }),
        Inst::Load { dst, base, offset } => DecodedOp::Load { dst, base, offset },
        Inst::Store { base, offset, src } => DecodedOp::Store { base, offset, src },
        Inst::Alloc { dst, cells } => DecodedOp::Alloc { dst, cells },
        Inst::Rand { dst, bound } => DecodedOp::Rand { dst, bound },
        _ => return None,
    })
}

/// Fuses two adjacent decoded plain ops, when they form one of the
/// profitable pairs.
fn fuse_pair(a: &DecodedOp, b: &DecodedOp) -> Option<DecodedOp> {
    match (a, b) {
        (DecodedOp::Bin(x), DecodedOp::Bin(y)) => Some(DecodedOp::BinBin(*x, *y)),
        (DecodedOp::Bin(x), DecodedOp::Load { dst, base, offset }) => Some(DecodedOp::BinLoad {
            a: *x,
            dst: *dst,
            base: *base,
            offset: *offset,
        }),
        (DecodedOp::Load { dst, base, offset }, DecodedOp::Bin(y)) => Some(DecodedOp::LoadBin {
            dst: *dst,
            base: *base,
            offset: *offset,
            b: *y,
        }),
        _ => None,
    }
}

fn decode_block(insts: &[Inst], term: Terminator, stats: &mut DecodeStats) -> DecodedBlock {
    let mut ops = Vec::with_capacity(insts.len());
    let mut i = 0usize;
    while i < insts.len() {
        let Some(a) = decode_plain(&insts[i]) else {
            stats.ops += 1;
            stats.instructions += 1;
            stats.slow_ops += 1;
            ops.push(DecodedOp::Slow { ip: i as u32 });
            i += 1;
            continue;
        };
        if let Some(fused) = insts
            .get(i + 1)
            .and_then(decode_plain)
            .and_then(|b| fuse_pair(&a, &b))
        {
            match fused {
                DecodedOp::BinBin(..) => stats.fused_bin_bin += 1,
                DecodedOp::BinLoad { .. } => stats.fused_bin_load += 1,
                DecodedOp::LoadBin { .. } => stats.fused_load_bin += 1,
                _ => unreachable!(),
            }
            stats.ops += 1;
            stats.instructions += 2;
            ops.push(fused);
            i += 2;
            continue;
        }
        stats.ops += 1;
        stats.instructions += 1;
        ops.push(a);
        i += 1;
    }
    ops.shrink_to_fit();
    DecodedBlock { ops, term }
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
            .map(|b| b.insts.len())
            .sum();
        assert_eq!(s.instructions, src_insts as u64, "every inst is covered");
        assert_eq!(s.ops + s.fused(), s.instructions, "a fused slot covers two");
    }

    #[test]
    fn fused_mode_forms_superinstructions_in_the_hot_loop() {
        let p = sum_loop_program();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        let s = d.stats();
        assert!(s.fused() > 0, "the sum loop has fusable pairs: {s:?}");
        assert_eq!(s.ops + s.fused(), s.instructions);
        // The loop body loads then accumulates: expect at least a
        // Load;Bin or Bin;Load pairing.
        assert!(s.fused_load_bin + s.fused_bin_load > 0, "{s:?}");
    }

    #[test]
    fn slow_ops_point_back_at_their_source_index() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("callee", 0);
        pb.define(callee, |f| f.ret(None));
        let main = pb.declare("main", 0);
        pb.define(main, |f| {
            let a = f.copy(1); // Mov           — plain, slot 0
            f.call(callee, &[]); // Call        — slow, source ip 1
            let b = f.add(a, a); // Bin         — plain
            f.assign(a, b); // Mov              — plain
            f.ret(None);
        });
        let p = pb.finish(main).unwrap();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        let entry = &d.routine(p.main()).blocks[p.routine(p.main()).entry.index() as usize];
        let slow: Vec<_> = entry
            .ops
            .iter()
            .filter_map(|op| match op {
                DecodedOp::Slow { ip } => Some(*ip),
                _ => None,
            })
            .collect();
        assert_eq!(slow.len(), 1);
        let src = &p.routine(p.main()).blocks[p.routine(p.main()).entry.index() as usize];
        assert!(
            matches!(src.insts[slow[0] as usize], Inst::Call { .. }),
            "the Slow slot indexes the original Call"
        );
        assert!(d.stats().slow_ops >= 1);
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
            f.call(callee, &[]); // Call (slow) separates the two Bins
            let c = f.add(b, b); // Bin
            f.assign(a, c);
            f.ret(None);
        });
        let p = pb.finish(main).unwrap();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        let entry = &d.routine(p.main()).blocks[p.routine(p.main()).entry.index() as usize];
        assert!(
            !entry
                .ops
                .iter()
                .any(|op| matches!(op, DecodedOp::BinBin(..))),
            "Bin;Call;Bin must not fuse across the call: {:?}",
            entry.ops
        );
    }

    #[test]
    fn mov_splits_by_operand_kind() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare("main", 0);
        pb.define(main, |f| {
            let a = f.copy(7); // Mov imm
            let b = f.copy(0);
            f.assign(b, a); // Mov reg
            f.ret(None);
        });
        let p = pb.finish(main).unwrap();
        let d = DecodedProgram::decode(&p, DecodeMode::Fused);
        let entry = &d.routine(p.main()).blocks[p.routine(p.main()).entry.index() as usize];
        assert!(entry
            .ops
            .iter()
            .any(|o| matches!(o, DecodedOp::MovImm { .. })));
        assert!(entry
            .ops
            .iter()
            .any(|o| matches!(o, DecodedOp::MovReg { .. })));
    }
}
