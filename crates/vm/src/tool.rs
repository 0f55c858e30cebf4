//! The tools the VM itself provides: [`NullTool`], which observes
//! nothing, and [`MultiTool`], which fans one event stream out to several
//! [`Tool`]s.

use drms_trace::{EventBatch, Metrics, Tool};

/// The `nulgrind` analogue: subscribes to the event stream and does
/// nothing, measuring the bare instrumentation-dispatch overhead.
///
/// # Example
/// ```
/// use drms_vm::{NullTool, Tool};
/// let t = NullTool::default();
/// assert_eq!(t.name(), "nulgrind");
/// assert_eq!(t.shadow_bytes(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct NullTool;

impl Tool for NullTool {
    fn name(&self) -> &str {
        "nulgrind"
    }
}

/// Fans one event stream out to several tools, in order.
///
/// Useful for recording a trace while profiling, or for comparing two
/// analyses over one identical execution.
#[derive(Default)]
pub struct MultiTool<'a> {
    tools: Vec<&'a mut dyn Tool>,
}

impl<'a> MultiTool<'a> {
    /// Creates an empty fan-out.
    pub fn new() -> Self {
        MultiTool { tools: Vec::new() }
    }

    /// Adds a tool; events are delivered in insertion order.
    pub fn push(&mut self, tool: &'a mut dyn Tool) -> &mut Self {
        self.tools.push(tool);
        self
    }

    /// Number of attached tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// Whether no tools are attached.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }
}

impl std::fmt::Debug for MultiTool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiTool")
            .field(
                "tools",
                &self
                    .tools
                    .iter()
                    .map(|t| t.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Emits one fan-out body per callback inside `MultiTool`'s `impl`.
macro_rules! fan_out {
    ($($method:ident ( $($arg:ident : $ty:ty),* );)*) => {
        $(fn $method(&mut self, $($arg: $ty),*) {
            for t in self.tools.iter_mut() {
                t.$method($($arg),*);
            }
        })*
    };
}

impl Tool for MultiTool<'_> {
    fan_out! {
        on_thread_start(thread: drms_trace::ThreadId, parent: Option<drms_trace::ThreadId>);
        on_thread_exit(thread: drms_trace::ThreadId, cost: u64);
        on_thread_switch(from: Option<drms_trace::ThreadId>, to: drms_trace::ThreadId);
        on_call(thread: drms_trace::ThreadId, routine: drms_trace::RoutineId, cost: u64);
        on_return(thread: drms_trace::ThreadId, routine: drms_trace::RoutineId, cost: u64);
        on_read(thread: drms_trace::ThreadId, addr: drms_trace::Addr, len: u32);
        on_write(thread: drms_trace::ThreadId, addr: drms_trace::Addr, len: u32);
        on_user_to_kernel(thread: drms_trace::ThreadId, addr: drms_trace::Addr, len: u32);
        on_kernel_to_user(thread: drms_trace::ThreadId, addr: drms_trace::Addr, len: u32);
        on_sync(thread: drms_trace::ThreadId, op: drms_trace::SyncOp);
        on_block(thread: drms_trace::ThreadId, routine: drms_trace::RoutineId, block: drms_trace::BlockId);
        on_finish();
    }

    fn name(&self) -> &str {
        "multi"
    }

    fn shadow_bytes(&self) -> u64 {
        self.tools.iter().map(|t| t.shadow_bytes()).sum()
    }

    /// Fans out: each attached tool reports under its own name; the
    /// fan itself contributes nothing.
    fn observe_metrics(&self, metrics: &mut Metrics) {
        for t in &self.tools {
            t.observe_metrics(metrics);
        }
    }

    /// Fans the batch out so each tool takes its own (native or
    /// replayed) batch path.
    fn observe_batch(&mut self, batch: &EventBatch) {
        for t in self.tools.iter_mut() {
            t.observe_batch(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_trace::{RoutineId, ThreadId};

    #[derive(Default)]
    struct Counter {
        calls: u64,
        finished: bool,
    }
    impl Tool for Counter {
        fn on_call(&mut self, _: ThreadId, _: RoutineId, _: u64) {
            self.calls += 1;
        }
        fn on_finish(&mut self) {
            self.finished = true;
        }
        fn name(&self) -> &str {
            "counter"
        }
        fn shadow_bytes(&self) -> u64 {
            16
        }
    }

    #[test]
    fn multi_tool_fans_out_in_order() {
        let mut a = Counter::default();
        let mut b = Counter::default();
        {
            let mut m = MultiTool::new();
            m.push(&mut a).push(&mut b);
            assert_eq!(m.len(), 2);
            assert!(!m.is_empty());
            m.on_call(ThreadId::MAIN, RoutineId::new(0), 0);
            m.on_finish();
            assert_eq!(m.shadow_bytes(), 32);
            assert!(format!("{m:?}").contains("counter"));
            let mut metrics = Metrics::new();
            m.observe_metrics(&mut metrics);
            assert_eq!(metrics.gauge("tool.counter.shadow_bytes"), 16);
        }
        assert_eq!(a.calls, 1);
        assert_eq!(b.calls, 1);
        assert!(a.finished && b.finished);
    }

    #[test]
    fn default_observe_batch_replays_per_event() {
        use drms_trace::{Addr, BatchKind};

        #[derive(Default)]
        struct Log(Vec<(bool, u64, u32)>);
        impl Tool for Log {
            fn on_read(&mut self, _: ThreadId, addr: Addr, len: u32) {
                self.0.push((false, addr.raw(), len));
            }
            fn on_write(&mut self, _: ThreadId, addr: Addr, len: u32) {
                self.0.push((true, addr.raw(), len));
            }
            fn name(&self) -> &str {
                "log"
            }
        }

        let mut batch = EventBatch::with_capacity(4);
        batch.set_thread(ThreadId::MAIN);
        batch.push(BatchKind::Read, Addr::new(8), 1);
        batch.push(BatchKind::Write, Addr::new(16), 2);
        batch.push(BatchKind::Read, Addr::new(8), 1);

        let mut direct = Log::default();
        direct.observe_batch(&batch);
        assert_eq!(direct.0, vec![(false, 8, 1), (true, 16, 2), (false, 8, 1)]);

        // MultiTool forwards the batch to each member.
        let mut a = Log::default();
        let mut b = Log::default();
        let mut m = MultiTool::new();
        m.push(&mut a).push(&mut b);
        m.observe_batch(&batch);
        drop(m);
        assert_eq!(a.0.len(), 3);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn null_tool_ignores_everything() {
        let mut t = NullTool;
        t.on_call(ThreadId::MAIN, RoutineId::new(0), 0);
        t.on_finish();
        assert_eq!(t.shadow_bytes(), 0);
    }
}
