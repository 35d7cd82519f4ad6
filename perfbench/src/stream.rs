//! `stream`: Pony on two hosts in one rack. One connection, one
//! dedicated spinning engine core per host, two-sided 4 KB sends (on
//! Pony's small-message credit path) under a closed-loop window of 32.
//! Latency is the time the driver sees `OpDone` minus the op's
//! `issued_at`. The seed reaches the testbed (`TestbedConfig::seed`);
//! the traffic is the same on every seed.
//!
//! Only the per-packet datapath works here: the event heap, the
//! engine-group worker pass, `PonyEngine` tx/rx and the fabric burst
//! path. Connections, congestion control, topology, apps and TCP do
//! almost nothing.

use std::time::Instant;

use snap_repro::pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};

use crate::layers::{install_timed_engines, Kind, Tracer};
use crate::model::{LatSummary, Model, OpLedger, Snap};
use crate::{scaled, Episode, Mode, Opts, SetupClock, Slicer};

/// Closed-loop window (outstanding sends).
const WINDOW: usize = 32;
/// Message size: Pony's small-message limit, so every send rides
/// receiver credits and needs no posted buffer.
const MSG_BYTES: u64 = 4096;
/// Discarded warm-up, virtual µs (the window fills, rates settle).
const WARMUP_US: u64 = 2_000;
/// Timed phase at scale 1.0, virtual µs.
const TIMED_US: u64 = 40_000;
/// Drive step: completions are reaped and the window refilled this
/// often (virtual µs).
const STEP_US: u64 = 2;
/// Virtual time after the timed phase within which its ops must
/// complete; later completions count as failed.
const DRAIN_BUDGET_US: u64 = 20_000;
/// Further virtual time, in coarse steps, in which ops still open must
/// at least complete for the exactly-once check to pass.
const AUDIT_BUDGET_US: u64 = 120_000_000;
const AUDIT_STEP_US: u64 = 1_000;
/// Extra virtual time after the drain so trailing acks land before
/// packet conservation is checked.
const SETTLE_US: u64 = 500;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Timed,
    Drain,
    Audit,
}

struct Driver {
    tb: Testbed,
    src: PonyClient,
    sink: PonyClient,
    conn: u64,
    tracer: Tracer,
    ledger: OpLedger,
    /// Per op id: whether it was issued in the timed phase.
    op_timed: Vec<bool>,
    /// Messages sent; the sink must see each once, in order.
    sent: u64,
    outstanding: usize,
    /// Completions after this instant count as late (failed).
    deadline: Nanos,
    late: u64,
    /// Next message index the sink expects.
    next_msg: u64,
    bad_msgs: u64,
    /// Timed ops completed Ok: count, payload bytes, latencies (ns).
    ok: u64,
    payload: u64,
    lat: Vec<u64>,
}

impl Driver {
    fn submit(&mut self, timed: bool) {
        let (conn, src, sim) = (self.conn, &mut self.src, &mut self.tb.sim);
        let op = self.tracer.span(Kind::Submit, || {
            src.submit(
                sim,
                PonyCommand::Send {
                    conn,
                    stream: 0,
                    len: MSG_BYTES,
                },
            )
        });
        self.ledger.submitted(op);
        let i = op as usize;
        if self.op_timed.len() <= i {
            self.op_timed.resize(i + 1, false);
        }
        self.op_timed[i] = timed;
        self.sent += 1;
        self.outstanding += 1;
    }

    /// One drive step: advance the simulation, reap completions, refill
    /// the window (except while draining), verify deliveries.
    fn step(&mut self, phase: Phase) {
        self.tracer.observe_pending(self.tb.sim.pending());
        let tb = &mut self.tb;
        let us = if phase == Phase::Audit {
            AUDIT_STEP_US
        } else {
            STEP_US
        };
        self.tracer.span(Kind::SimRun, || tb.run_us(us));
        let now = self.tb.sim.now();
        let src = &mut self.src;
        let done = self
            .tracer
            .span(Kind::TakeCompletions, || src.take_completions());
        for c in done {
            let PonyCompletion::OpDone {
                op,
                status,
                issued_at,
                ..
            } = c
            else {
                continue;
            };
            let good = self.ledger.completed(op, status == OpStatus::Ok) && status == OpStatus::Ok;
            self.outstanding = self.outstanding.saturating_sub(1);
            if good && self.op_timed.get(op as usize) == Some(&true) {
                if now > self.deadline {
                    self.late += 1;
                } else {
                    self.ok += 1;
                    self.payload += MSG_BYTES;
                    self.lat.push(now.saturating_sub(issued_at).as_nanos());
                }
            }
            if matches!(phase, Phase::Warmup | Phase::Timed) {
                self.submit(phase == Phase::Timed);
            }
        }
        self.reap_sink();
    }

    /// Checks in-order, exactly-once delivery with the sent size.
    fn reap_sink(&mut self) {
        let sink = &mut self.sink;
        let got = self
            .tracer
            .span(Kind::TakeCompletions, || sink.take_completions());
        for c in got {
            if let PonyCompletion::RecvMsg { msg, len, .. } = c {
                if msg != self.next_msg || msg >= self.sent || len != MSG_BYTES {
                    self.bad_msgs += 1;
                }
                self.next_msg = msg + 1;
            }
        }
    }
}

/// Runs one `stream` episode.
pub fn run(opts: &Opts) -> Episode {
    let clock = SetupClock::start(opts);
    let tracer = Tracer::new(opts.traced());
    let mut tb = Testbed::new(TestbedConfig {
        seed: opts.seed,
        trace_sample_ppm: opts.trace_sample_ppm(),
        ..TestbedConfig::default()
    });
    let src = tb.pony_app(0, "src", |_| {});
    let sink = tb.pony_app(1, "sink", |_| {});
    let conn = tb.connect(0, "src", 1, "sink");
    let wrapped = install_timed_engines(&mut tb, &tracer);
    let mut d = Driver {
        tb,
        src,
        sink,
        conn,
        tracer: tracer.clone(),
        ledger: OpLedger::default(),
        op_timed: Vec::new(),
        sent: 0,
        outstanding: 0,
        deadline: Nanos::MAX,
        late: 0,
        next_msg: 0,
        bad_msgs: 0,
        ok: 0,
        payload: 0,
        lat: Vec::new(),
    };

    for _ in 0..WINDOW {
        d.submit(false);
    }
    let warm_end = d.tb.sim.now() + Nanos::from_micros(WARMUP_US);
    while d.tb.sim.now() < warm_end {
        d.step(Phase::Warmup);
    }
    let setup = clock.stop();
    if opts.mode == Mode::SetupOnly {
        return Episode::setup_only(setup);
    }

    let start = Snap::take(&mut d.tb, &[]);
    let issue_end = start.now + Nanos::from_micros(scaled(TIMED_US, opts.scale));
    d.deadline = issue_end + Nanos::from_micros(DRAIN_BUDGET_US);
    tracer.begin_timed();
    let mut slicer = Slicer::start(&d.tb, issue_end, d.ok, opts);
    let wall = Instant::now();
    tracer.span(Kind::Workload, || {
        while d.tb.sim.now() < issue_end {
            d.step(Phase::Timed);
            slicer.step(&d.tb, d.ok);
        }
    });
    let wall_s = wall.elapsed().as_secs_f64() - slicer.reference_s;
    let (spans, alloc_counts) = tracer.end_timed();
    let end = Snap::take(&mut d.tb, &[]);
    let mut model = Model::from_window(&start, &end, true);

    // Drain, audit stragglers, settle; then check exactly-once delivery
    // and packet conservation.
    while d.outstanding > 0 && d.tb.sim.now() < d.deadline {
        d.step(Phase::Drain);
    }
    model.read_stages(&d.tb);
    let audit_end = d.tb.sim.now() + Nanos::from_micros(AUDIT_BUDGET_US);
    while d.outstanding > 0 && d.tb.sim.now() < audit_end {
        d.step(Phase::Audit);
    }
    d.tb.run_us(SETTLE_US);
    d.reap_sink();
    let mut errors = Vec::new();
    if let Err(e) = Snap::take(&mut d.tb, &[]).check_conservation(true) {
        errors.push(e);
    }
    let (missing, dup) = d.ledger.audit();
    let sent = d.sent;
    if missing + dup + d.bad_msgs + d.ledger.not_ok > 0 || d.next_msg != sent {
        errors.push(format!(
            "exactly-once: {missing} ops missing, {dup} duplicated, {} not Ok, \
             {} bad deliveries, {} of {sent} messages delivered",
            d.ledger.not_ok, d.bad_msgs, d.next_msg
        ));
    }
    let attempted = d.op_timed.iter().filter(|&&t| t).count() as u64;
    model.attempted = attempted;
    model.ok = d.ok;
    model.failed = attempted - d.ok;
    model.late = d.late;
    model.payload_bytes = d.payload;
    model.lat = LatSummary::of(d.lat);
    Episode {
        setup,
        wall_s,
        slices: slicer.rates,
        model,
        spans,
        alloc: alloc_counts,
        wrapped_engines: wrapped,
        errors,
    }
}
