//! Wall-clock spans around each call the benchmark makes into a layer,
//! plus the timing [`Engine`] wrapper that spans every engine pass.
//!
//! Spans nest on one stack, so a span's self time is its duration minus
//! the durations of the spans opened inside it. Spans are kept in
//! memory and written as a Chrome/Perfetto trace when the run ends.
//! An off [`Tracer`] costs one branch per call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use snap_repro::core::engine::{Engine, RunReport};
use snap_repro::sim::{Nanos, Sim};
use snap_repro::testbed::Testbed;

use crate::alloc::{self, AllocCounts};
use crate::SPAN_CAP;

/// The layer boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The whole timed phase of one workload episode.
    Workload,
    /// `Testbed::run_us` / `Sim::run_until`: the event loop, engine
    /// workers, fabric and NIC.
    SimRun,
    /// One `Engine::run` pass (child of [`Kind::SimRun`]).
    EngineRun,
    /// `PonyClient::submit`.
    Submit,
    /// `PonyClient::take_completions`.
    TakeCompletions,
    /// `DagRuntime::tick`.
    Tick,
    /// `SocketHost::poll`.
    SocketPoll,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 7;

impl Kind {
    /// Span name in the written trace.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Workload => "workload",
            Kind::SimRun => "sim.run_us",
            Kind::EngineRun => "pony.engine_run",
            Kind::Submit => "shm.submit",
            Kind::TakeCompletions => "shm.take_completions",
            Kind::Tick => "apps.tick",
            Kind::SocketPoll => "apps.socket_poll",
        }
    }
}

/// Per-kind totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
}

#[derive(Clone, Copy)]
struct Record {
    kind: Kind,
    start_ns: u64,
    dur_ns: u64,
}

/// Everything a traced episode recorded.
#[derive(Clone, Default)]
pub struct SpanLog {
    /// Totals per [`Kind`], indexed by `Kind as usize`.
    pub agg: [Agg; KINDS],
    /// Engine passes run through a timing wrapper.
    pub passes: u64,
    /// Passes whose report said `work_done == false`.
    pub idle_passes: u64,
    /// Largest `Sim::pending()` seen at an engine pass or a drive step.
    pub pending_max: usize,
    records: Vec<Record>,
    records_dropped: u64,
}

impl SpanLog {
    /// Totals for one kind.
    pub fn get(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                r.kind.label(),
                r.start_ns as f64 / 1e3,
                r.dur_ns as f64 / 1e3
            );
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"records_dropped\":{}}}}}",
            self.records_dropped
        );
        out
    }
}

struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
}

struct Spans {
    origin: Instant,
    stack: Vec<Open>,
    log: SpanLog,
    cap: usize,
}

/// Handle the workloads call around each layer boundary. Clones share
/// one span stack. A tracer that is off records nothing.
#[derive(Clone)]
pub struct Tracer(Option<Rc<RefCell<Spans>>>);

impl Tracer {
    /// A recording tracer when `on`, keeping at most [`SPAN_CAP`]
    /// individual spans (totals are always complete). Record storage is
    /// reserved up front so recording does not allocate inside the
    /// counted window.
    pub fn new(on: bool) -> Self {
        Tracer(on.then(|| {
            Rc::new(RefCell::new(Spans {
                origin: Instant::now(),
                stack: Vec::with_capacity(16),
                log: SpanLog {
                    records: Vec::with_capacity(SPAN_CAP),
                    ..SpanLog::default()
                },
                cap: SPAN_CAP,
            }))
        }))
    }

    /// Starts the timed phase: forgets what the warm-up recorded and,
    /// when on, starts counting allocations.
    pub fn begin_timed(&self) {
        if let Some(spans) = &self.0 {
            let log = &mut spans.borrow_mut().log;
            let mut records = std::mem::take(&mut log.records);
            records.clear();
            *log = SpanLog {
                records,
                ..SpanLog::default()
            };
            alloc::start();
        }
    }

    /// Ends the timed phase: what was recorded since
    /// [`Tracer::begin_timed`], and the allocations counted (empty when
    /// off).
    pub fn end_timed(&self) -> (SpanLog, AllocCounts) {
        match &self.0 {
            Some(spans) => {
                let counts = alloc::stop();
                (spans.borrow().log.clone(), counts)
            }
            None => Default::default(),
        }
    }

    /// Runs `f` inside a span of `kind`.
    #[inline]
    pub fn span<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let Some(spans) = &self.0 else {
            return f();
        };
        spans.borrow_mut().open(kind);
        let r = f();
        spans.borrow_mut().close();
        r
    }

    /// Notes the simulator's pending-event count at a drive step.
    #[inline]
    pub fn observe_pending(&self, pending: usize) {
        if let Some(spans) = &self.0 {
            let log = &mut spans.borrow_mut().log;
            log.pending_max = log.pending_max.max(pending);
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, kind: Kind) {
        let start_ns = self.now_ns();
        self.stack.push(Open {
            kind,
            start_ns,
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        let end = self.now_ns();
        let open = self.stack.pop().expect("span closed without open");
        let dur_ns = end.saturating_sub(open.start_ns);
        let agg = &mut self.log.agg[open.kind as usize];
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.self_ns += dur_ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        if self.log.records.len() < self.cap {
            self.log.records.push(Record {
                kind: open.kind,
                start_ns: open.start_ns,
                dur_ns,
            });
        } else {
            self.log.records_dropped += 1;
        }
    }
}

/// An [`Engine`] that times each pass of the engine it wraps and counts
/// passes; every other call is forwarded, `as_any` included, so
/// downcasts to the wrapped engine's type still work.
pub struct TimedEngine {
    inner: Box<dyn Engine>,
    tracer: Tracer,
}

impl Engine for TimedEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&mut self, sim: &mut Sim) -> RunReport {
        let pending = sim.pending();
        let report = self.tracer.span(Kind::EngineRun, || self.inner.run(sim));
        if let Some(spans) = &self.tracer.0 {
            let log = &mut spans.borrow_mut().log;
            log.passes += 1;
            log.idle_passes += u64::from(!report.work_done);
            log.pending_max = log.pending_max.max(pending);
        }
        report
    }

    fn pending_work(&self) -> usize {
        self.inner.pending_work()
    }

    fn oldest_pending_age(&self, now: Nanos) -> Nanos {
        self.inner.oldest_pending_age(now)
    }

    fn serialize_state(&mut self) -> Vec<u8> {
        self.inner.serialize_state()
    }

    fn state_bytes(&mut self) -> u64 {
        self.inner.state_bytes()
    }

    fn detach(&mut self, sim: &mut Sim) {
        self.inner.detach(sim)
    }

    fn attach(&mut self, sim: &mut Sim) {
        self.inner.attach(sim)
    }

    fn container(&self) -> &str {
        self.inner.container()
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any()
    }
}

/// When `tracer` is on, wraps every engine on every host in a
/// [`TimedEngine`] through the public upgrade path (suspend, take,
/// resume). Returns how many engines were wrapped. Each resume wakes
/// its engine once; that happens in set-up, before the timed phase.
pub fn install_timed_engines(tb: &mut Testbed, tracer: &Tracer) -> usize {
    if tracer.0.is_none() {
        return 0;
    }
    let mut wrapped = 0;
    for h in 0..tb.hosts.len() {
        let group = tb.hosts[h].group.clone();
        for id in group.engine_ids() {
            group.suspend_engine(&mut tb.sim, id);
            let inner = group
                .take_engine(id)
                .expect("engine id listed by the group");
            let timed = TimedEngine {
                inner,
                tracer: tracer.clone(),
            };
            group.resume_engine(&mut tb.sim, id, Box::new(timed));
            wrapped += 1;
        }
    }
    wrapped
}
