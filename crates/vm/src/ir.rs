//! The guest intermediate representation.
//!
//! Guest programs are collections of [`Routine`]s made of [`Block`]s
//! (basic blocks) holding straight-line [`Inst`]ructions and ending in a
//! [`Terminator`]. Values are `i64` cells; locals live in per-frame virtual
//! registers; memory is a flat cell-addressed space shared by all threads.
//!
//! Basic blocks are the unit of the cost measure, exactly as in the paper:
//! each block *entered* at run time adds one to the executing thread's
//! cumulative cost.

use crate::kernel::Syscall;
use drms_trace::{Addr, BlockId, RoutineId};
use std::fmt;

/// Index of a virtual register within a routine frame.
pub type Reg = u16;

/// An instruction operand: either a register or an immediate value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Read the value of a frame register.
    Reg(Reg),
    /// A constant.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v as i64)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v as i64)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Binary operations over `i64` values.
///
/// Comparison operators produce `1` or `0`. Division and remainder by zero
/// are run-time errors; shifts mask their right operand to six bits.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Min,
    Max,
}

impl BinOp {
    /// Applies the operation. Returns `None` on division/remainder by zero.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Eq => (a == b) as i64,
            BinOp::Ne => (a != b) as i64,
            BinOp::Lt => (a < b) as i64,
            BinOp::Le => (a <= b) as i64,
            BinOp::Gt => (a > b) as i64,
            BinOp::Ge => (a >= b) as i64,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        })
    }
}

/// A straight-line guest instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    /// `dst = src`.
    Mov { dst: Reg, src: Operand },
    /// `dst = lhs op rhs`.
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = memory[base + offset]`; emits a `read` event.
    Load {
        dst: Reg,
        base: Operand,
        offset: Operand,
    },
    /// `memory[base + offset] = src`; emits a `write` event.
    Store {
        base: Operand,
        offset: Operand,
        src: Operand,
    },
    /// Bump-allocates `cells` fresh memory cells; `dst` receives the base.
    Alloc { dst: Reg, cells: Operand },
    /// Calls `routine` with `args`; an optional register receives the
    /// return value.
    Call {
        routine: RoutineId,
        args: Vec<Operand>,
        dst: Option<Reg>,
    },
    /// Spawns a new thread rooted at `routine`; `dst` receives its id.
    Spawn {
        routine: RoutineId,
        args: Vec<Operand>,
        dst: Reg,
    },
    /// Blocks until the thread whose id is `thread` exits.
    Join { thread: Operand },
    /// Semaphore P operation; blocks while the value is zero.
    SemWait { sem: u32 },
    /// Semaphore V operation.
    SemSignal { sem: u32 },
    /// Acquires a mutex; blocks while held by another thread.
    MutexLock { mutex: u32 },
    /// Releases a mutex held by the current thread.
    MutexUnlock { mutex: u32 },
    /// Atomically releases `mutex` and waits on `cond`; re-acquires the
    /// mutex before resuming.
    CondWait { cond: u32, mutex: u32 },
    /// Wakes one waiter of `cond`.
    CondSignal { cond: u32 },
    /// Wakes all waiters of `cond`.
    CondBroadcast { cond: u32 },
    /// Invokes a kernel system call; `dst` receives the transfer length.
    Syscall { call: Syscall, dst: Option<Reg> },
    /// `dst = uniform integer in [0, bound)` from the thread's seeded RNG.
    Rand { dst: Reg, bound: Operand },
    /// Voluntarily ends the scheduling quantum.
    Yield,
}

/// The control-transfer instruction ending a basic block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on `cond != 0`.
    Branch {
        cond: Operand,
        then_block: BlockId,
        else_block: BlockId,
    },
    /// Return from the routine with an optional value.
    Ret(Option<Operand>),
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Straight-line body.
    pub insts: Vec<Inst>,
    /// Control transfer ending the block.
    pub term: Terminator,
}

/// A guest routine.
#[derive(Clone, Debug, PartialEq)]
pub struct Routine {
    /// Human-readable name, reported in profiles.
    pub name: String,
    /// Number of parameters; parameters occupy registers `0..params`.
    pub params: u16,
    /// Total number of frame registers (including parameters).
    pub regs: u16,
    /// The routine's basic blocks.
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
}

/// Error detected by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// A block terminator targets a block index out of range.
    BadBlockTarget { routine: RoutineId, block: BlockId },
    /// An instruction references a register `>= regs`.
    BadRegister { routine: RoutineId, reg: Reg },
    /// A call or spawn names a routine id out of range.
    BadRoutineRef { routine: RoutineId },
    /// The routine's entry block is out of range.
    BadEntry { routine: RoutineId },
    /// `params` exceeds `regs`.
    BadParamCount { routine: RoutineId },
    /// A call/spawn passes a number of arguments different from the
    /// callee's parameter count.
    BadArity {
        routine: RoutineId,
        callee: RoutineId,
    },
    /// A synchronization instruction names an object out of range.
    BadSyncObject { routine: RoutineId },
    /// The main routine id is out of range.
    BadMain,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadBlockTarget { routine, block } => {
                write!(f, "routine {routine}: branch to missing {block}")
            }
            ValidateError::BadRegister { routine, reg } => {
                write!(f, "routine {routine}: register r{reg} out of range")
            }
            ValidateError::BadRoutineRef { routine } => {
                write!(f, "routine {routine}: reference to missing routine")
            }
            ValidateError::BadEntry { routine } => {
                write!(f, "routine {routine}: entry block out of range")
            }
            ValidateError::BadParamCount { routine } => {
                write!(f, "routine {routine}: params exceed register count")
            }
            ValidateError::BadArity { routine, callee } => {
                write!(f, "routine {routine}: wrong arity calling {callee}")
            }
            ValidateError::BadSyncObject { routine } => {
                write!(f, "routine {routine}: sync object out of range")
            }
            ValidateError::BadMain => write!(f, "main routine id out of range"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// A complete guest program.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    pub(crate) routines: Vec<Routine>,
    pub(crate) main: RoutineId,
    pub(crate) semaphores: Vec<i64>,
    pub(crate) mutexes: u32,
    pub(crate) conds: u32,
    /// `(base, initial contents)` of each global array.
    pub(crate) globals: Vec<(Addr, Vec<i64>)>,
    /// First address available to the heap allocator.
    pub(crate) heap_base: u64,
}

impl Program {
    /// The routine executed by the main thread.
    pub fn main(&self) -> RoutineId {
        self.main
    }

    /// All routines, indexed by [`RoutineId`].
    pub fn routines(&self) -> &[Routine] {
        &self.routines
    }

    /// Returns a routine by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn routine(&self, id: RoutineId) -> &Routine {
        &self.routines[id.index() as usize]
    }

    /// Returns the name of a routine.
    pub fn routine_name(&self, id: RoutineId) -> &str {
        &self.routine(id).name
    }

    /// Looks up a routine id by name.
    pub fn routine_by_name(&self, name: &str) -> Option<RoutineId> {
        self.routines
            .iter()
            .position(|r| r.name == name)
            .map(|i| RoutineId::new(i as u32))
    }

    /// A [`drms_trace::NameTable`] mapping routine ids to names.
    pub fn name_table(&self) -> drms_trace::NameTable {
        self.routines.iter().map(|r| r.name.clone()).collect()
    }

    /// Initial values of the program's semaphores.
    pub fn semaphores(&self) -> &[i64] {
        &self.semaphores
    }

    /// Number of mutexes.
    pub fn mutex_count(&self) -> u32 {
        self.mutexes
    }

    /// Number of condition variables.
    pub fn cond_count(&self) -> u32 {
        self.conds
    }

    /// Global arrays as `(base address, initial contents)` pairs.
    pub fn globals(&self) -> &[(Addr, Vec<i64>)] {
        &self.globals
    }

    /// First heap address.
    pub fn heap_base(&self) -> u64 {
        self.heap_base
    }

    /// Structural validation: every register, block target, routine
    /// reference, arity and synchronization object must be in range.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.main.index() as usize >= self.routines.len() {
            return Err(ValidateError::BadMain);
        }
        for (idx, routine) in self.routines.iter().enumerate() {
            let rid = RoutineId::new(idx as u32);
            if routine.params > routine.regs {
                return Err(ValidateError::BadParamCount { routine: rid });
            }
            if routine.entry.index() as usize >= routine.blocks.len() {
                return Err(ValidateError::BadEntry { routine: rid });
            }
            for block in &routine.blocks {
                for inst in &block.insts {
                    self.validate_inst(rid, routine, inst)?;
                }
                let check = |b: BlockId| {
                    if b.index() as usize >= routine.blocks.len() {
                        Err(ValidateError::BadBlockTarget {
                            routine: rid,
                            block: b,
                        })
                    } else {
                        Ok(())
                    }
                };
                match block.term {
                    Terminator::Jump(b) => check(b)?,
                    Terminator::Branch {
                        cond,
                        then_block,
                        else_block,
                    } => {
                        self.validate_operand(rid, routine, cond)?;
                        check(then_block)?;
                        check(else_block)?;
                    }
                    Terminator::Ret(Some(v)) => self.validate_operand(rid, routine, v)?,
                    Terminator::Ret(None) => {}
                }
            }
        }
        Ok(())
    }

    fn validate_operand(
        &self,
        rid: RoutineId,
        routine: &Routine,
        op: Operand,
    ) -> Result<(), ValidateError> {
        if let Operand::Reg(r) = op {
            if r >= routine.regs {
                return Err(ValidateError::BadRegister {
                    routine: rid,
                    reg: r,
                });
            }
        }
        Ok(())
    }

    fn validate_reg(&self, rid: RoutineId, routine: &Routine, r: Reg) -> Result<(), ValidateError> {
        if r >= routine.regs {
            return Err(ValidateError::BadRegister {
                routine: rid,
                reg: r,
            });
        }
        Ok(())
    }

    fn validate_callee(
        &self,
        rid: RoutineId,
        callee: RoutineId,
        args: &[Operand],
    ) -> Result<(), ValidateError> {
        let Some(target) = self.routines.get(callee.index() as usize) else {
            return Err(ValidateError::BadRoutineRef { routine: rid });
        };
        if args.len() != target.params as usize {
            return Err(ValidateError::BadArity {
                routine: rid,
                callee,
            });
        }
        Ok(())
    }

    fn validate_inst(
        &self,
        rid: RoutineId,
        routine: &Routine,
        inst: &Inst,
    ) -> Result<(), ValidateError> {
        let op = |o: Operand| self.validate_operand(rid, routine, o);
        let reg = |r: Reg| self.validate_reg(rid, routine, r);
        match inst {
            Inst::Mov { dst, src } => {
                reg(*dst)?;
                op(*src)?;
            }
            Inst::Bin { dst, lhs, rhs, .. } => {
                reg(*dst)?;
                op(*lhs)?;
                op(*rhs)?;
            }
            Inst::Load { dst, base, offset } => {
                reg(*dst)?;
                op(*base)?;
                op(*offset)?;
            }
            Inst::Store { base, offset, src } => {
                op(*base)?;
                op(*offset)?;
                op(*src)?;
            }
            Inst::Alloc { dst, cells } => {
                reg(*dst)?;
                op(*cells)?;
            }
            Inst::Call {
                routine: callee,
                args,
                dst,
            } => {
                for a in args {
                    op(*a)?;
                }
                if let Some(d) = dst {
                    reg(*d)?;
                }
                self.validate_callee(rid, *callee, args)?;
            }
            Inst::Spawn {
                routine: callee,
                args,
                dst,
            } => {
                for a in args {
                    op(*a)?;
                }
                reg(*dst)?;
                self.validate_callee(rid, *callee, args)?;
            }
            Inst::Join { thread } => op(*thread)?,
            Inst::SemWait { sem } | Inst::SemSignal { sem } => {
                if *sem as usize >= self.semaphores.len() {
                    return Err(ValidateError::BadSyncObject { routine: rid });
                }
            }
            Inst::MutexLock { mutex } | Inst::MutexUnlock { mutex } => {
                if *mutex >= self.mutexes {
                    return Err(ValidateError::BadSyncObject { routine: rid });
                }
            }
            Inst::CondWait { cond, mutex } => {
                if *cond >= self.conds || *mutex >= self.mutexes {
                    return Err(ValidateError::BadSyncObject { routine: rid });
                }
            }
            Inst::CondSignal { cond } | Inst::CondBroadcast { cond } => {
                if *cond >= self.conds {
                    return Err(ValidateError::BadSyncObject { routine: rid });
                }
            }
            Inst::Syscall { call, dst } => {
                op(call.fd)?;
                op(call.buf)?;
                op(call.len)?;
                op(call.offset)?;
                if let Some(d) = dst {
                    reg(*d)?;
                }
            }
            Inst::Rand { dst, bound } => {
                reg(*dst)?;
                op(*bound)?;
            }
            Inst::Yield => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Syscall, SyscallNo};

    fn leaf_routine(name: &str) -> Routine {
        Routine {
            name: name.to_owned(),
            params: 0,
            regs: 1,
            blocks: vec![Block {
                insts: vec![Inst::Mov {
                    dst: 0,
                    src: Operand::Imm(1),
                }],
                term: Terminator::Ret(None),
            }],
            entry: BlockId::new(0),
        }
    }

    fn program_of(routines: Vec<Routine>) -> Program {
        Program {
            routines,
            main: RoutineId::new(0),
            semaphores: vec![],
            mutexes: 0,
            conds: 0,
            globals: vec![],
            heap_base: 0x10000,
        }
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(2, 3), Some(5));
        assert_eq!(BinOp::Div.apply(7, 2), Some(3));
        assert_eq!(BinOp::Div.apply(7, 0), None);
        assert_eq!(BinOp::Rem.apply(7, 0), None);
        assert_eq!(BinOp::Lt.apply(1, 2), Some(1));
        assert_eq!(BinOp::Ge.apply(1, 2), Some(0));
        assert_eq!(BinOp::Min.apply(4, -2), Some(-2));
        assert_eq!(BinOp::Max.apply(4, -2), Some(4));
        assert_eq!(BinOp::Shl.apply(1, 65), Some(2)); // masked shift
        assert_eq!(BinOp::Mul.apply(i64::MAX, 2), Some(-2)); // wrapping
    }

    #[test]
    fn validate_accepts_minimal_program() {
        let p = program_of(vec![leaf_routine("main")]);
        assert!(p.validate().is_ok());
        assert_eq!(p.routine_name(RoutineId::new(0)), "main");
        assert_eq!(p.routine_by_name("main"), Some(RoutineId::new(0)));
        assert_eq!(p.routine_by_name("nope"), None);
    }

    #[test]
    fn validate_rejects_bad_register() {
        let mut p = program_of(vec![leaf_routine("main")]);
        p.routines[0].blocks[0].insts[0] = Inst::Mov {
            dst: 9,
            src: Operand::Imm(0),
        };
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadRegister {
                routine: RoutineId::new(0),
                reg: 9
            })
        );
    }

    #[test]
    fn validate_rejects_bad_branch_target() {
        let mut p = program_of(vec![leaf_routine("main")]);
        p.routines[0].blocks[0].term = Terminator::Jump(BlockId::new(7));
        assert!(matches!(
            p.validate(),
            Err(ValidateError::BadBlockTarget { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_callee_and_arity() {
        let mut p = program_of(vec![leaf_routine("main"), leaf_routine("f")]);
        p.routines[0].blocks[0].insts.push(Inst::Call {
            routine: RoutineId::new(9),
            args: vec![],
            dst: None,
        });
        assert!(matches!(
            p.validate(),
            Err(ValidateError::BadRoutineRef { .. })
        ));
        p.routines[0].blocks[0].insts.pop();
        p.routines[0].blocks[0].insts.push(Inst::Call {
            routine: RoutineId::new(1),
            args: vec![Operand::Imm(1)],
            dst: None,
        });
        assert!(matches!(p.validate(), Err(ValidateError::BadArity { .. })));
    }

    #[test]
    fn validate_rejects_bad_sync_objects() {
        let mut p = program_of(vec![leaf_routine("main")]);
        p.routines[0].blocks[0].insts.push(Inst::SemWait { sem: 0 });
        assert!(matches!(
            p.validate(),
            Err(ValidateError::BadSyncObject { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_main_and_entry() {
        let mut p = program_of(vec![leaf_routine("main")]);
        p.main = RoutineId::new(3);
        assert_eq!(p.validate(), Err(ValidateError::BadMain));
        p.main = RoutineId::new(0);
        p.routines[0].entry = BlockId::new(4);
        assert!(matches!(p.validate(), Err(ValidateError::BadEntry { .. })));
    }

    #[test]
    fn validate_checks_syscall_operands() {
        let mut p = program_of(vec![leaf_routine("main")]);
        p.routines[0].blocks[0].insts.push(Inst::Syscall {
            call: Syscall {
                no: SyscallNo::Read,
                fd: Operand::Imm(0),
                buf: Operand::Reg(5),
                len: Operand::Imm(1),
                offset: Operand::Imm(0),
            },
            dst: None,
        });
        assert!(matches!(
            p.validate(),
            Err(ValidateError::BadRegister { .. })
        ));
    }

    #[test]
    fn name_table_matches_routines() {
        let p = program_of(vec![leaf_routine("a"), leaf_routine("b")]);
        let t = p.name_table();
        assert_eq!(t.name(RoutineId::new(1)), "b");
    }
}
