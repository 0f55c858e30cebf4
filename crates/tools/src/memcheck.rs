//! `memcheck`-like definedness checker.
//!
//! Tracks one shadow byte per guest cell recording whether the cell holds
//! a defined value (written by guest code or filled by the kernel).
//! Reads of undefined cells are reported as use-of-uninitialized-value
//! errors. This reproduces the *cost profile* of a memory checker — one
//! shadow operation per memory access, no call/return tracing — which is
//! what the paper's Table 1 compares against.

use drms_trace::{Addr, ThreadId};
use drms_vm::{BatchKind, EventBatch, ShadowMemory, Tool};

const UNDEFINED: u8 = 0;
const DEFINED: u8 = 1;
const REPORTED: u8 = 2;

/// A lightweight memcheck analogue: definedness bits plus error counting.
///
/// # Example
/// ```
/// use drms_tools::MemcheckTool;
/// use drms_vm::{ProgramBuilder, run_program, RunConfig, Tool};
///
/// let mut pb = ProgramBuilder::new();
/// let main = pb.function("main", 0, |f| {
///     let buf = f.alloc(4);
///     let _ = f.load(buf, 0); // uninitialized read
///     f.store(buf, 0, 7);
///     let _ = f.load(buf, 0); // now defined
///     f.ret(None);
/// });
/// let program = pb.finish(main).unwrap();
/// let mut mc = MemcheckTool::new();
/// run_program(&program, RunConfig::default(), &mut mc).unwrap();
/// assert_eq!(mc.error_count(), 1);
/// ```
#[derive(Default)]
pub struct MemcheckTool {
    defined: ShadowMemory<u8>,
    errors: u64,
    accesses: u64,
}

impl MemcheckTool {
    /// Creates a memcheck tool with all memory undefined.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memcheck tool that treats the program's data segment —
    /// its global arrays — as defined, as real memcheck does for
    /// initialized data sections.
    pub fn for_program(program: &drms_vm::Program) -> Self {
        let mut tool = Self::new();
        for (base, data) in program.globals() {
            for cell in base.range(data.len().max(1) as u32) {
                tool.defined.set(cell, DEFINED);
            }
        }
        tool
    }

    /// Number of distinct uninitialized-read errors found.
    pub fn error_count(&self) -> u64 {
        self.errors
    }

    /// Total memory accesses checked.
    pub fn access_count(&self) -> u64 {
        self.accesses
    }
}

impl Tool for MemcheckTool {
    fn on_read(&mut self, _thread: ThreadId, addr: Addr, len: u32) {
        for cell in addr.range(len) {
            self.accesses += 1;
            if self.defined.get(cell) == UNDEFINED {
                // Report each undefined location once, as memcheck
                // suppresses duplicate origins.
                self.errors += 1;
                self.defined.set(cell, REPORTED);
            }
        }
    }

    fn on_write(&mut self, _thread: ThreadId, addr: Addr, len: u32) {
        for cell in addr.range(len) {
            self.accesses += 1;
            self.defined.set(cell, DEFINED);
        }
    }

    fn on_kernel_to_user(&mut self, _thread: ThreadId, addr: Addr, len: u32) {
        for cell in addr.range(len) {
            self.defined.set(cell, DEFINED);
        }
    }

    fn on_user_to_kernel(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        // Writing an undefined buffer to the kernel is an error too.
        self.on_read(thread, addr, len);
    }

    fn name(&self) -> &str {
        "memcheck"
    }

    fn shadow_bytes(&self) -> u64 {
        self.defined.bytes()
    }

    /// Native batch path: identical per-cell semantics to
    /// `on_read`/`on_write`, minus the per-event callback hop, with the
    /// write path using one shadow walk per cell instead of a
    /// `get`+`set` pair.
    fn observe_batch(&mut self, batch: &EventBatch) {
        let (kinds, addrs, lens) = batch.arrays();
        for i in 0..kinds.len() {
            match kinds[i] {
                BatchKind::Read => {
                    for cell in addrs[i].range(lens[i]) {
                        self.accesses += 1;
                        let slot = self.defined.slot_mut(cell);
                        if *slot == UNDEFINED {
                            // Report each undefined location once, as
                            // memcheck suppresses duplicate origins.
                            self.errors += 1;
                            *slot = REPORTED;
                        }
                    }
                }
                BatchKind::Write => {
                    for cell in addrs[i].range(lens[i]) {
                        self.accesses += 1;
                        *self.defined.slot_mut(cell) = DEFINED;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: ThreadId = ThreadId::MAIN;

    #[test]
    fn undefined_reads_reported_once_per_cell() {
        let mut mc = MemcheckTool::new();
        mc.on_read(T, Addr::new(100), 2);
        mc.on_read(T, Addr::new(100), 2);
        assert_eq!(mc.error_count(), 2, "two cells, each reported once");
        assert_eq!(mc.access_count(), 4);
    }

    #[test]
    fn writes_and_kernel_fills_define() {
        let mut mc = MemcheckTool::new();
        mc.on_write(T, Addr::new(5), 1);
        mc.on_kernel_to_user(T, Addr::new(6), 1);
        mc.on_read(T, Addr::new(5), 2);
        assert_eq!(mc.error_count(), 0);
    }

    #[test]
    fn native_batch_path_matches_per_event_replay() {
        let mut batch = EventBatch::with_capacity(16);
        batch.push(BatchKind::Read, Addr::new(100), 2); // undefined
        batch.push(BatchKind::Write, Addr::new(100), 1);
        batch.push(BatchKind::Read, Addr::new(100), 2); // one still undefined... reported already
        batch.push(BatchKind::Write, Addr::new(200), 4);
        batch.push(BatchKind::Read, Addr::new(200), 4);

        let mut native = MemcheckTool::new();
        native.observe_batch(&batch);

        let mut replayed = MemcheckTool::new();
        for (kind, addr, len) in batch.entries() {
            match kind {
                BatchKind::Read => replayed.on_read(T, addr, len),
                BatchKind::Write => replayed.on_write(T, addr, len),
            }
        }
        assert_eq!(native.error_count(), replayed.error_count());
        assert_eq!(native.access_count(), replayed.access_count());
        assert_eq!(native.shadow_bytes(), replayed.shadow_bytes());
        assert_eq!(native.error_count(), 2, "cells 100 and 101, once each");
    }

    #[test]
    fn user_to_kernel_checks_definedness() {
        let mut mc = MemcheckTool::new();
        mc.on_write(T, Addr::new(10), 1);
        mc.on_user_to_kernel(T, Addr::new(10), 2); // second cell undefined
        assert_eq!(mc.error_count(), 1);
        assert!(mc.shadow_bytes() > 0);
        assert_eq!(mc.name(), "memcheck");
    }
}
