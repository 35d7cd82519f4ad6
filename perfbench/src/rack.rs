//! `rack_pony`: the §5.2 rack over Pony. Six hosts run four RPC jobs
//! each plus one latency prober, in compacting mode with C-states on.
//! Jobs issue open-loop Poisson requests for 1 MB responses at a fixed
//! offered load below the latency knee; probers issue open-loop small
//! RPCs dense enough for a p99. Latency is the prober round trip,
//! timed from each probe's due time.
//!
//! Many flows share each engine, engines sleep and wake, bulk trains
//! form and small probes queue behind them: scheduling, Pony flow
//! state and the CPU ledgers do most of the work.
//!
//! This is the benchmark's own copy of the rack driver loop. It issues
//! every op that fell due within a drive step (timing it from its due
//! time and recording the lateness), keeps its books in dense vectors
//! indexed by host, job and connection id, and takes the seed from the
//! command line.

use std::collections::VecDeque;
use std::time::Instant;

use snap_repro::core::group::SchedulingMode;
use snap_repro::pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_repro::sim::costs::PONY_LARGE_MTU;
use snap_repro::sim::dist::poisson_gap;
use snap_repro::sim::{Nanos, Rng};
use snap_repro::testbed::{Testbed, TestbedConfig};

use crate::layers::{install_timed_engines, Kind, Tracer};
use crate::model::{lateness, LatSummary, Model, OpLedger, Snap};
use crate::{scaled, Episode, Mode, Opts, SetupClock, Slicer, WARMUP_SEED};

const HOSTS: usize = 6;
const JOBS: usize = 4;
/// Request, response and probe sizes (bytes).
const REQ_BYTES: u64 = 256;
const RPC_BYTES: u64 = 1_000_000;
const PROBE_BYTES: u64 = 128;
/// Offered load per host: 1 MB RPCs and probes per second. At 3000
/// RPCs/s, some connections stall for hundreds of milliseconds on about
/// one seed in four (see the README's findings) and ops fail.
const RPC_RATE: f64 = 2_000.0;
const PROBE_RATE: f64 = 8_000.0;
/// Response buffers each requester posts per connection.
const POSTED_BUFFERS: u32 = 4096;
/// Discarded warm-up, virtual µs.
const WARMUP_US: u64 = 2_000;
/// Timed phase at scale 1.0, virtual µs.
const TIMED_US: u64 = 200_000;
/// Drive step, virtual µs.
const STEP_US: u64 = 5;
/// Virtual time after the timed phase within which its ops must
/// complete; later completions count as failed.
const DRAIN_BUDGET_US: u64 = 50_000;
/// Further virtual time, in coarse steps, in which ops still open must
/// at least complete for the exactly-once check to pass.
const AUDIT_BUDGET_US: u64 = 120_000_000;
const AUDIT_STEP_US: u64 = 1_000;
const SETTLE_US: u64 = 500;
/// Request stream and response stream of every connection.
const REQ_STREAM: u32 = 1;
const RESP_STREAM: u32 = 0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Timed,
    Drain,
    Audit,
}

/// Books for one connection, from the requester's side.
#[derive(Default)]
struct ConnBook {
    /// Requester client index.
    requester: usize,
    /// Server client index.
    server: usize,
    probe: bool,
    /// Outstanding requests in order: (due time, issued in the timed
    /// phase).
    pending: VecDeque<(Nanos, bool)>,
    requests: u64,
    served: u64,
}

struct Rack {
    tb: Testbed,
    tracer: Tracer,
    /// Jobs `h * JOBS + j`, then probers `HOSTS * JOBS + h`.
    clients: Vec<PonyClient>,
    ledgers: Vec<OpLedger>,
    /// Indexed by connection id.
    books: Vec<ConnBook>,
    /// `job_conn[(h * JOBS + j) * HOSTS + h2]`: job (h, j) to (h2, j).
    job_conn: Vec<u64>,
    /// `probe_conn[h * HOSTS + h2]`.
    probe_conn: Vec<u64>,
    /// Per host: next RPC and probe due times and their generators.
    next_rpc: Vec<Nanos>,
    next_probe: Vec<Nanos>,
    gens: Vec<Rng>,
    outstanding: usize,
    /// Completions after this instant count as late (failed).
    deadline: Nanos,
    late: u64,
    errors: Vec<String>,
    // Timed-phase results.
    attempted: u64,
    ok: u64,
    payload: u64,
    probe_rtt: Vec<u64>,
    rpc_lat: Vec<u64>,
    issue_lag: Vec<u64>,
}

fn prober(h: usize) -> usize {
    HOSTS * JOBS + h
}

impl Rack {
    /// Restarts the arrival processes from now with generators drawn
    /// from `seed`.
    fn seed_generators(&mut self, seed: u64) {
        let root = Rng::new(seed);
        self.gens = (0..2 * HOSTS as u64)
            .map(|i| root.stream(0x5241_434b_0000 + i))
            .collect();
        let now = self.tb.sim.now();
        self.next_rpc.clear();
        self.next_probe.clear();
        for h in 0..HOSTS {
            let gap = poisson_gap(&mut self.gens[2 * h], RPC_RATE);
            self.next_rpc.push(now + gap);
            let gap = poisson_gap(&mut self.gens[2 * h + 1], PROBE_RATE);
            self.next_probe.push(now + gap);
        }
    }

    fn submit(&mut self, client: usize, cmd: PonyCommand) {
        let (c, sim) = (&mut self.clients[client], &mut self.tb.sim);
        let op = self.tracer.span(Kind::Submit, || c.submit(sim, cmd));
        self.ledgers[client].submitted(op);
    }

    fn send(&mut self, client: usize, conn: u64, stream: u32, len: u64) {
        self.submit(client, PonyCommand::Send { conn, stream, len });
    }

    /// Issues every request that fell due by now.
    fn issue_due(&mut self, phase: Phase) {
        let now = self.tb.sim.now();
        let timed = phase == Phase::Timed;
        for h in 0..HOSTS {
            while self.next_rpc[h] <= now {
                let due = self.next_rpc[h];
                let g = &mut self.gens[2 * h];
                self.next_rpc[h] = due + poisson_gap(g, RPC_RATE);
                let j = g.below(JOBS as u64) as usize;
                let h2 = (h + 1 + g.below(HOSTS as u64 - 1) as usize) % HOSTS;
                let conn = self.job_conn[(h * JOBS + j) * HOSTS + h2];
                self.request(conn, due, timed, REQ_BYTES);
            }
            while self.next_probe[h] <= now {
                let due = self.next_probe[h];
                let g = &mut self.gens[2 * h + 1];
                self.next_probe[h] = due + poisson_gap(g, PROBE_RATE);
                let h2 = (h + 1 + g.below(HOSTS as u64 - 1) as usize) % HOSTS;
                let conn = self.probe_conn[h * HOSTS + h2];
                self.request(conn, due, timed, PROBE_BYTES);
            }
        }
    }

    fn request(&mut self, conn: u64, due: Nanos, timed: bool, len: u64) {
        let book = &mut self.books[conn as usize];
        book.pending.push_back((due, timed));
        book.requests += 1;
        let requester = book.requester;
        self.outstanding += 1;
        if timed {
            self.attempted += 1;
            self.issue_lag.push((self.tb.sim.now() - due).as_nanos());
        }
        self.send(requester, conn, REQ_STREAM, len);
    }

    /// One drive step: issue due requests, advance the simulation, reap
    /// every client's completions in index order.
    fn step(&mut self, phase: Phase) {
        if matches!(phase, Phase::Warmup | Phase::Timed) {
            self.issue_due(phase);
        }
        self.tracer.observe_pending(self.tb.sim.pending());
        let tb = &mut self.tb;
        let us = if phase == Phase::Audit {
            AUDIT_STEP_US
        } else {
            STEP_US
        };
        self.tracer.span(Kind::SimRun, || tb.run_us(us));
        let now = self.tb.sim.now();
        for client in 0..self.clients.len() {
            let c = &mut self.clients[client];
            let done = self
                .tracer
                .span(Kind::TakeCompletions, || c.take_completions());
            for comp in done {
                self.complete(client, comp, now);
            }
        }
    }

    fn complete(&mut self, client: usize, comp: PonyCompletion, now: Nanos) {
        match comp {
            PonyCompletion::OpDone { op, status, .. } => {
                let ok = status == OpStatus::Ok;
                if !self.ledgers[client].completed(op, ok) || !ok {
                    self.errors
                        .push(format!("client {client}: op {op} duplicated or {status:?}"));
                }
            }
            PonyCompletion::RecvMsg {
                conn, stream, len, ..
            } => {
                let Some(book) = self.books.get_mut(conn as usize) else {
                    self.errors.push(format!("message on unknown conn {conn}"));
                    return;
                };
                let want = if book.probe { PROBE_BYTES } else { REQ_BYTES };
                if stream == REQ_STREAM && client == book.server && len == want {
                    // A request reached its server: answer it.
                    book.served += 1;
                    let resp = if book.probe { PROBE_BYTES } else { RPC_BYTES };
                    self.send(client, conn, RESP_STREAM, resp);
                    return;
                }
                let want = if book.probe { PROBE_BYTES } else { RPC_BYTES };
                let popped = if stream == RESP_STREAM && client == book.requester && len == want {
                    book.pending.pop_front()
                } else {
                    None
                };
                let Some((due, timed)) = popped else {
                    self.errors.push(format!(
                        "conn {conn}: unexpected or duplicate message (stream {stream}, {len} B)"
                    ));
                    return;
                };
                self.outstanding -= 1;
                if timed && now > self.deadline {
                    self.late += 1;
                } else if timed {
                    let lat = (now - due).as_nanos();
                    self.ok += 1;
                    if book.probe {
                        self.payload += 2 * PROBE_BYTES;
                        self.probe_rtt.push(lat);
                    } else {
                        self.payload += REQ_BYTES + RPC_BYTES;
                        self.rpc_lat.push(lat);
                    }
                }
            }
        }
    }
}

/// Builds the rack: apps, connections, posted response buffers.
fn build(opts: &Opts, tracer: &Tracer) -> (Rack, usize) {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: HOSTS,
        mode: SchedulingMode::compacting_default(),
        seed: opts.seed,
        trace_sample_ppm: opts.trace_sample_ppm(),
        ..TestbedConfig::default()
    });
    for h in 0..HOSTS {
        tb.hosts[h].machine.borrow_mut().set_cstates_enabled(true);
    }
    // §5.2: "The MTU size for Snap/Pony is 5000B."
    let large_mtu = |c: &mut snap_repro::pony::PonyEngineConfig| c.mtu = PONY_LARGE_MTU;
    let job = |h: usize, j: usize| format!("job{h}_{j}");
    let mut clients = Vec::new();
    for h in 0..HOSTS {
        for j in 0..JOBS {
            clients.push(tb.pony_app(h, &job(h, j), large_mtu));
        }
    }
    for h in 0..HOSTS {
        clients.push(tb.pony_app(h, &format!("prober{h}"), large_mtu));
    }
    let mut books: Vec<ConnBook> = Vec::new();
    let mut book = |conn: u64, requester: usize, server: usize, probe: bool| {
        let i = conn as usize;
        if books.len() <= i {
            books.resize_with(i + 1, ConnBook::default);
        }
        books[i] = ConnBook {
            requester,
            server,
            probe,
            ..ConnBook::default()
        };
    };
    // Each job talks to the same-numbered job on every other host.
    let mut job_conn = vec![0; HOSTS * JOBS * HOSTS];
    for h in 0..HOSTS {
        for j in 0..JOBS {
            for h2 in (0..HOSTS).filter(|&h2| h2 != h) {
                let conn = tb.connect(h, &job(h, j), h2, &job(h2, j));
                job_conn[(h * JOBS + j) * HOSTS + h2] = conn;
                book(conn, h * JOBS + j, h2 * JOBS + j, false);
            }
        }
    }
    let mut probe_conn = vec![0; HOSTS * HOSTS];
    for h in 0..HOSTS {
        for h2 in (0..HOSTS).filter(|&h2| h2 != h) {
            let conn = tb.connect(h, &format!("prober{h}"), h2, &format!("prober{h2}"));
            probe_conn[h * HOSTS + h2] = conn;
            book(conn, prober(h), prober(h2), true);
        }
    }
    let wrapped = install_timed_engines(&mut tb, tracer);
    let mut rack = Rack {
        tb,
        tracer: tracer.clone(),
        ledgers: (0..clients.len()).map(|_| OpLedger::default()).collect(),
        clients,
        books,
        job_conn,
        probe_conn,
        next_rpc: Vec::new(),
        next_probe: Vec::new(),
        gens: Vec::new(),
        outstanding: 0,
        deadline: Nanos::MAX,
        late: 0,
        errors: Vec::new(),
        attempted: 0,
        ok: 0,
        payload: 0,
        probe_rtt: Vec::new(),
        rpc_lat: Vec::new(),
        issue_lag: Vec::new(),
    };
    // Requesters post buffers for their 1 MB responses.
    for conn in rack.job_conn.clone().into_iter().filter(|&c| c != 0) {
        let requester = rack.books[conn as usize].requester;
        rack.submit(
            requester,
            PonyCommand::PostRecvBuffers {
                conn,
                count: POSTED_BUFFERS,
            },
        );
    }
    rack.seed_generators(WARMUP_SEED);
    (rack, wrapped)
}

/// Runs one `rack_pony` episode.
pub fn run(opts: &Opts) -> Episode {
    let clock = SetupClock::start(opts);
    let tracer = Tracer::new(opts.traced());
    let (mut r, wrapped) = build(opts, &tracer);
    let warm_end = r.tb.sim.now() + Nanos::from_micros(WARMUP_US);
    while r.tb.sim.now() < warm_end {
        r.step(Phase::Warmup);
    }
    let setup = clock.stop();
    if opts.mode == Mode::SetupOnly {
        return Episode::setup_only(setup);
    }
    r.seed_generators(opts.seed);

    let start = Snap::take(&mut r.tb, &[]);
    let issue_end = start.now + Nanos::from_micros(scaled(TIMED_US, opts.scale));
    r.deadline = issue_end + Nanos::from_micros(DRAIN_BUDGET_US);
    tracer.begin_timed();
    let mut slicer = Slicer::start(&r.tb, issue_end, r.ok, opts);
    let wall = Instant::now();
    tracer.span(Kind::Workload, || {
        while r.tb.sim.now() < issue_end {
            r.step(Phase::Timed);
            slicer.step(&r.tb, r.ok);
        }
    });
    let wall_s = wall.elapsed().as_secs_f64() - slicer.reference_s;
    let (spans, alloc_counts) = tracer.end_timed();
    let end = Snap::take(&mut r.tb, &[]);
    let mut model = Model::from_window(&start, &end, true);

    // Drain, audit stragglers, settle; then check exactly-once RPCs and
    // packet conservation.
    while r.outstanding > 0 && r.tb.sim.now() < r.deadline {
        r.step(Phase::Drain);
    }
    model.read_stages(&r.tb);
    let audit_end = r.tb.sim.now() + Nanos::from_micros(AUDIT_BUDGET_US);
    while r.outstanding > 0 && r.tb.sim.now() < audit_end {
        r.step(Phase::Audit);
    }
    r.tb.run_us(SETTLE_US);
    let now = r.tb.sim.now();
    for client in 0..r.clients.len() {
        for comp in r.clients[client].take_completions() {
            r.complete(client, comp, now);
        }
    }
    let mut errors = std::mem::take(&mut r.errors);
    errors.truncate(8);
    if let Err(e) = Snap::take(&mut r.tb, &[]).check_conservation(true) {
        errors.push(e);
    }
    let unanswered: usize = r.books.iter().map(|b| b.pending.len()).sum();
    let unserved: u64 = r.books.iter().map(|b| b.requests - b.served).sum();
    let (missing, dup) = r
        .ledgers
        .iter()
        .map(OpLedger::audit)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    if unanswered + unserved as usize + (missing + dup) as usize > 0 {
        errors.push(format!(
            "exactly-once: {unanswered} RPCs unanswered, {unserved} requests unserved, \
             {missing} ops missing, {dup} duplicated"
        ));
    }
    model.attempted = r.attempted;
    model.ok = r.ok;
    model.failed = r.attempted - r.ok;
    model.late = r.late;
    model.payload_bytes = r.payload;
    model.lat = LatSummary::of(r.probe_rtt);
    (model.lateness_max_ns, model.lateness_mean_ns) = lateness(&r.issue_lag);
    model.layer.rpc_p99_ns = LatSummary::of(r.rpc_lat).p99_ns;
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
