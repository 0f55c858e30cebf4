//! Host-side storage fault injection.
//!
//! PR 1 gave *guest* syscalls a seeded [`FaultPlan`](../../drms_vm), but
//! every *host* write the crash-safety story depends on — journal
//! appends, atomic artifact renames, spec persistence — still assumed a
//! perfect OS. [`HostIo`] is the small abstraction those writers thread
//! their file operations through: in production it is a zero-cost
//! pass-through to `std::fs`, and under test (or behind
//! `--host-faults SPEC` in `repro`/`aprofd`) a seeded [`HostFaultPlan`]
//! injects the classic storage failures at deterministic points:
//!
//! * **ENOSPC** — a write (or temp-file creation) fails with
//!   storage-full, optionally only after N bytes have landed (the
//!   slowly-filling-disk shape);
//! * **fsync EIO** — the data was "written" but cannot be made durable;
//! * **torn writes** — a prefix of the buffer lands, then the write
//!   fails, exactly what a crash mid-append leaves on disk;
//! * **rename failure** — the atomic-publish step itself fails;
//! * **directory-sync failure** — the rename may be lost on power cut.
//!
//! # Spec grammar
//!
//! A plan is written in the fault-spec grammar it shares with the kernel
//! `FaultPlan` ([`crate::faultspec`]): comma- or semicolon-separated
//! elements, an optional `seed=N`, and rules of the form
//!
//! ```text
//! rule    := op ":" kind [ ":" trigger ]
//! op      := "create" | "write" | "fsync" | "rename" | "syncdir" | "any"
//! kind    := "enospc" | "eio" | "torn"
//! trigger := "once=" INT | "every=" INT [ "+" INT ] | "after=" INT | "p=" INT "/" INT
//! ```
//!
//! Examples: `write:enospc:after=4096` (disk fills after 4 KiB),
//! `fsync:eio:once=2` (the second fsync fails), `write:torn:once=3`
//! (the third write lands only a prefix), `rename:eio` (every rename
//! fails: a rule with no trigger means `every=1`). `after=` counts the
//! bytes written through the [`HostIo`], so only this plan takes it.
//! Operations are numbered from 1 per kind; `p=` draws consume a
//! seeded xorshift generator, so a plan plus a seed reproduces the
//! exact same fault sequence on every run.

use crate::faultspec::{parse_spec, write_spec, FaultSpecError, FaultTrigger};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Which host file operation a rule matches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HostOp {
    /// Creating (truncating) a file — temp artifacts, fresh journals.
    Create,
    /// Writing bytes to an open file.
    Write,
    /// `fsync` / `fdatasync` of an open file.
    Fsync,
    /// Renaming a file over its destination (the atomic publish).
    Rename,
    /// Syncing a directory so a rename survives power loss.
    SyncDir,
}

impl HostOp {
    /// The spec-grammar token for this operation.
    pub fn name(self) -> &'static str {
        match self {
            HostOp::Create => "create",
            HostOp::Write => "write",
            HostOp::Fsync => "fsync",
            HostOp::Rename => "rename",
            HostOp::SyncDir => "syncdir",
        }
    }

    fn index(self) -> usize {
        match self {
            HostOp::Create => 0,
            HostOp::Write => 1,
            HostOp::Fsync => 2,
            HostOp::Rename => 3,
            HostOp::SyncDir => 4,
        }
    }
}

impl fmt::Display for HostOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of storage fault to inject on a matching operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HostFaultKind {
    /// The device is full (`ENOSPC`): the operation fails, nothing (or
    /// for writes, only the bytes that fit) lands.
    Enospc,
    /// A hard I/O error (`EIO`): the operation fails outright.
    Eio,
    /// A torn write: a prefix of the buffer lands, then the write
    /// fails — the on-disk shape of a crash mid-append. Only
    /// meaningful for [`HostOp::Write`]; on other ops it behaves like
    /// [`HostFaultKind::Eio`].
    Torn,
}

impl HostFaultKind {
    /// The spec-grammar token for this kind.
    pub fn name(self) -> &'static str {
        match self {
            HostFaultKind::Enospc => "enospc",
            HostFaultKind::Eio => "eio",
            HostFaultKind::Torn => "torn",
        }
    }
}

impl fmt::Display for HostFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A tiny xorshift64* step: the only randomness `p=` triggers need, so
/// the trace crate stays free of the VM's RNG.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One host-fault rule: which operations it matches and what it injects
/// when its trigger fires.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HostFaultRule {
    /// Restrict to one operation (`None` = `any`).
    pub op: Option<HostOp>,
    /// The fault to inject.
    pub kind: HostFaultKind,
    /// When to inject it.
    pub trigger: FaultTrigger,
}

impl fmt::Display for HostFaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = self.op.map_or("any", HostOp::name);
        write!(f, "{op}:{}:{}", self.kind, self.trigger)
    }
}

/// A seeded, reproducible schedule of host storage faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostFaultPlan {
    /// Seed of the generator `p=` triggers draw from.
    pub seed: u64,
    /// The rules, evaluated in order; the first firing rule wins.
    pub rules: Vec<HostFaultRule>,
}

impl Default for HostFaultPlan {
    fn default() -> Self {
        HostFaultPlan {
            seed: 1,
            rules: Vec::new(),
        }
    }
}

impl HostFaultPlan {
    /// Parses the spec grammar (see the module docs).
    ///
    /// # Errors
    /// [`FaultSpecError`] names the malformed element.
    pub fn parse(spec: &str) -> Result<HostFaultPlan, FaultSpecError> {
        let (seed, rules) = parse_spec(spec, |element, _| parse_rule(element))?;
        Ok(HostFaultPlan {
            seed: seed.unwrap_or(HostFaultPlan::default().seed),
            rules,
        })
    }
}

fn parse_rule(element: &str) -> Result<HostFaultRule, String> {
    let mut parts = element.split(':');
    let op = match parts.next().unwrap_or_default() {
        "create" => Some(HostOp::Create),
        "write" => Some(HostOp::Write),
        "fsync" => Some(HostOp::Fsync),
        "rename" => Some(HostOp::Rename),
        "syncdir" => Some(HostOp::SyncDir),
        "any" => None,
        other => return Err(format!("unknown op `{other}`")),
    };
    let kind = match parts.next() {
        Some("enospc") => HostFaultKind::Enospc,
        Some("eio") => HostFaultKind::Eio,
        Some("torn") => HostFaultKind::Torn,
        Some(other) => return Err(format!("unknown kind `{other}`")),
        None => return Err("missing fault kind".to_owned()),
    };
    let trigger = match parts.next() {
        None => FaultTrigger::ALWAYS,
        Some(t) => FaultTrigger::parse(t)?,
    };
    if parts.next().is_some() {
        return Err("trailing tokens after the trigger".to_owned());
    }
    Ok(HostFaultRule { op, kind, trigger })
}

impl fmt::Display for HostFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_spec(f, self.seed, &self.rules)
    }
}

/// The typed payload of an injected fault's [`io::Error`]: carries which
/// operation was hit and why, so chaos tests (and shed classification in
/// `aprofd`) can tell an injected fault from a real one.
#[derive(Clone, Debug)]
pub struct InjectedHostFault {
    /// The operation that was failed.
    pub op: HostOp,
    /// The fault kind injected.
    pub kind: HostFaultKind,
    /// 1-based index of the operation among ops of its kind.
    pub at_op: u64,
}

impl fmt::Display for InjectedHostFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected host fault: {} on {} op {}",
            self.kind, self.op, self.at_op
        )
    }
}

impl std::error::Error for InjectedHostFault {}

/// Whether `err` (at any depth of its custom-error chain) is an
/// injected host fault rather than a real OS failure.
pub fn is_injected(err: &io::Error) -> bool {
    err.get_ref()
        .is_some_and(|e| e.downcast_ref::<InjectedHostFault>().is_some())
}

#[derive(Debug, Default)]
struct FaultState {
    plan: Option<HostFaultPlan>,
    rng: u64,
    /// Per-[`HostOp`] 1-based operation counters.
    ops: [u64; 5],
    bytes_written: u64,
    injected: u64,
}

impl FaultState {
    /// Advances the op counter for `op` and returns the firing rule, if
    /// any.
    fn check(&mut self, op: HostOp) -> Option<(HostFaultKind, u64)> {
        let at = {
            let c = &mut self.ops[op.index()];
            *c += 1;
            *c
        };
        let bytes = self.bytes_written;
        let plan = self.plan.as_ref()?;
        let rng = &mut self.rng;
        for rule in &plan.rules {
            if rule.op.is_some_and(|o| o != op) {
                continue;
            }
            let draw = |num: u32, den: u32| xorshift(rng) % u64::from(den) < u64::from(num);
            if rule.trigger.fires(at, bytes, draw) {
                self.injected += 1;
                return Some((rule.kind, at));
            }
        }
        None
    }
}

/// A handle to host file I/O, real or fault-injected. Cheap to clone;
/// clones share one fault schedule (op counters, byte budget, seeded
/// generator), so every writer in a process observes one consistent
/// simulated disk.
#[derive(Clone, Debug)]
pub struct HostIo {
    state: Arc<Mutex<FaultState>>,
}

impl Default for HostIo {
    fn default() -> Self {
        HostIo::real()
    }
}

impl HostIo {
    /// Production I/O: every operation passes straight through to
    /// `std::fs` (op counters are still maintained — they are cheap and
    /// let chaos suites size their fault grids from a clean run).
    pub fn real() -> HostIo {
        HostIo {
            state: Arc::new(Mutex::new(FaultState::default())),
        }
    }

    /// Fault-injected I/O driven by `plan`.
    pub fn with_faults(plan: HostFaultPlan) -> HostIo {
        let rng = plan.seed.max(1);
        HostIo {
            state: Arc::new(Mutex::new(FaultState {
                plan: Some(plan),
                rng,
                ..FaultState::default()
            })),
        }
    }

    /// Parses `spec` (see the module grammar) into a fault-injected
    /// handle.
    ///
    /// # Errors
    /// [`FaultSpecError`] on a malformed spec.
    pub fn from_spec(spec: &str) -> Result<HostIo, FaultSpecError> {
        Ok(HostIo::with_faults(HostFaultPlan::parse(spec)?))
    }

    /// Whether this handle injects faults at all.
    pub fn is_faulty(&self) -> bool {
        self.state.lock().unwrap().plan.is_some()
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().unwrap().injected
    }

    /// Operations of `op` kind performed so far (attempted, whether or
    /// not they were failed) — chaos suites enumerate fault points from
    /// these counts.
    pub fn ops(&self, op: HostOp) -> u64 {
        self.state.lock().unwrap().ops[op.index()]
    }

    fn fault(&self, op: HostOp) -> Option<io::Error> {
        let (kind, at_op) = self.state.lock().unwrap().check(op)?;
        Some(injected_error(op, kind, at_op))
    }

    /// Creates (truncates) the file at `path`.
    ///
    /// # Errors
    /// Real I/O failures, or an injected `create` fault.
    pub fn create(&self, path: &Path) -> io::Result<File> {
        if let Some(e) = self.fault(HostOp::Create) {
            return Err(e);
        }
        File::create(path)
    }

    /// Writes all of `bytes` to `file`. A `torn` fault lands a prefix
    /// (half the buffer) before failing — the shape a crash mid-append
    /// leaves on disk; an `enospc`/`eio` fault fails without writing.
    ///
    /// # Errors
    /// Real I/O failures, or an injected `write` fault.
    pub fn write_all(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        let fault = {
            let mut s = self.state.lock().unwrap();
            let fault = s.check(HostOp::Write);
            // Count the bytes that actually land, including a torn
            // prefix: `after=` models the disk filling up.
            let landed = match fault {
                None => bytes.len(),
                Some((HostFaultKind::Torn, _)) => bytes.len() / 2,
                Some(_) => 0,
            };
            s.bytes_written += landed as u64;
            fault
        };
        match fault {
            None => file.write_all(bytes),
            Some((HostFaultKind::Torn, at)) => {
                file.write_all(&bytes[..bytes.len() / 2])?;
                Err(injected_error(HostOp::Write, HostFaultKind::Torn, at))
            }
            Some((kind, at)) => Err(injected_error(HostOp::Write, kind, at)),
        }
    }

    /// Syncs `file`'s data and metadata to disk.
    ///
    /// # Errors
    /// Real I/O failures, or an injected `fsync` fault.
    pub fn fsync(&self, file: &File) -> io::Result<()> {
        if let Some(e) = self.fault(HostOp::Fsync) {
            return Err(e);
        }
        file.sync_all()
    }

    /// Syncs only `file`'s data (`fdatasync`) — the journal's per-append
    /// flush.
    ///
    /// # Errors
    /// Real I/O failures, or an injected `fsync` fault.
    pub fn fdatasync(&self, file: &File) -> io::Result<()> {
        if let Some(e) = self.fault(HostOp::Fsync) {
            return Err(e);
        }
        file.sync_data()
    }

    /// Renames `from` over `to` (the atomic publish step).
    ///
    /// # Errors
    /// Real I/O failures, or an injected `rename` fault.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(e) = self.fault(HostOp::Rename) {
            return Err(e);
        }
        fs::rename(from, to)
    }

    /// Syncs the parent directory of `path`, making a rename (or file
    /// creation) in it durable across power loss. On platforms where
    /// directories cannot be opened, this is a successful no-op.
    ///
    /// # Errors
    /// Real I/O failures, or an injected `syncdir` fault.
    pub fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        if let Some(e) = self.fault(HostOp::SyncDir) {
            return Err(e);
        }
        let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
            return Ok(());
        };
        if cfg!(unix) {
            File::open(dir)?.sync_all()
        } else {
            // Directories cannot be opened for syncing everywhere;
            // best-effort off unix.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
            Ok(())
        }
    }
}

fn injected_error(op: HostOp, kind: HostFaultKind, at_op: u64) -> io::Error {
    let error_kind = match kind {
        HostFaultKind::Enospc => io::ErrorKind::StorageFull,
        HostFaultKind::Eio | HostFaultKind::Torn => io::ErrorKind::Other,
    };
    io::Error::new(error_kind, InjectedHostFault { op, kind, at_op })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("drms-hostio-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        dir.join(name)
    }

    #[test]
    fn spec_round_trips_through_display() {
        let specs = [
            "seed=7,write:enospc:after=4096",
            "seed=1,fsync:eio:once=2,rename:eio",
            "seed=3,any:torn:every=3+1,write:eio:p=1/8",
        ];
        for spec in specs {
            let plan = HostFaultPlan::parse(spec).unwrap();
            let reparsed = HostFaultPlan::parse(&plan.to_string()).unwrap();
            assert_eq!(plan, reparsed, "{spec}");
        }
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "",
            "write",
            "write:nope",
            "bogus:eio",
            "write:eio:whenever",
            "write:eio:once=0",
            "write:eio:every=0",
            "write:eio:p=3/2",
            "seed=x,write:eio",
            "seed=1,seed=2,write:eio",
            "write:eio:once=1:extra",
        ] {
            let err = HostFaultPlan::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad}");
        }
    }

    #[test]
    fn a_rule_without_a_trigger_means_every_op() {
        let plan = HostFaultPlan::parse("rename:eio").unwrap();
        assert_eq!(plan.rules[0].trigger, FaultTrigger::ALWAYS);
        assert_eq!(plan.to_string(), "seed=1,rename:eio:every=1");
    }

    #[test]
    fn real_io_passes_through_and_counts_ops() {
        let io = HostIo::real();
        let path = tmp("real.txt");
        let mut f = io.create(&path).unwrap();
        io.write_all(&mut f, b"hello").unwrap();
        io.fsync(&f).unwrap();
        let to = tmp("real2.txt");
        io.rename(&path, &to).unwrap();
        io.sync_parent_dir(&to).unwrap();
        assert_eq!(fs::read_to_string(&to).unwrap(), "hello");
        assert_eq!(io.ops(HostOp::Create), 1);
        assert_eq!(io.ops(HostOp::Write), 1);
        assert_eq!(io.ops(HostOp::Fsync), 1);
        assert_eq!(io.ops(HostOp::Rename), 1);
        assert_eq!(io.ops(HostOp::SyncDir), 1);
        assert_eq!(io.injected(), 0);
        let _ = fs::remove_file(&to);
    }

    #[test]
    fn once_trigger_fails_exactly_that_op() {
        let io = HostIo::from_spec("fsync:eio:once=2").unwrap();
        let path = tmp("once.txt");
        let mut f = io.create(&path).unwrap();
        io.write_all(&mut f, b"x").unwrap();
        io.fsync(&f).unwrap();
        let err = io.fsync(&f).unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert!(err.to_string().contains("fsync op 2"), "{err}");
        io.fsync(&f).unwrap();
        assert_eq!(io.injected(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_write_lands_a_prefix_then_fails() {
        let io = HostIo::from_spec("write:torn:once=2").unwrap();
        let path = tmp("torn.txt");
        let mut f = io.create(&path).unwrap();
        io.write_all(&mut f, b"first|").unwrap();
        let err = io.write_all(&mut f, b"second").unwrap_err();
        assert!(is_injected(&err));
        drop(f);
        assert_eq!(fs::read_to_string(&path).unwrap(), "first|sec");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn enospc_after_bytes_models_a_filling_disk() {
        let io = HostIo::from_spec("write:enospc:after=8").unwrap();
        let path = tmp("enospc.txt");
        let mut f = io.create(&path).unwrap();
        io.write_all(&mut f, b"1234").unwrap();
        io.write_all(&mut f, b"5678").unwrap();
        let err = io.write_all(&mut f, b"9abc").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(is_injected(&err));
        // The disk stays full: later writes keep failing.
        assert!(io.write_all(&mut f, b"x").is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn clones_share_one_simulated_disk() {
        let io = HostIo::from_spec("fsync:eio:once=2").unwrap();
        let other = io.clone();
        let path = tmp("shared.txt");
        let f = io.create(&path).unwrap();
        io.fsync(&f).unwrap();
        assert!(other.fsync(&f).is_err(), "clone sees the shared counter");
        assert_eq!(io.injected(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn probability_triggers_are_seeded_and_reproducible() {
        let fire = |seed: u64| -> Vec<bool> {
            let io = HostIo::with_faults(
                HostFaultPlan::parse(&format!("seed={seed},fsync:eio:p=1/2")).unwrap(),
            );
            let path = tmp(&format!("prob-{seed}.txt"));
            let f = io.create(&path).unwrap();
            let fired: Vec<bool> = (0..32).map(|_| io.fsync(&f).is_err()).collect();
            let _ = fs::remove_file(&path);
            fired
        };
        assert_eq!(fire(7), fire(7), "same seed, same schedule");
        assert_ne!(fire(7), fire(8), "different seed, different schedule");
    }
}
