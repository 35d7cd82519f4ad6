//! `dag_tcp`: a diamond service DAG over the kernel-TCP sockets facade
//! on a two-rack, two-spine Clos. The frontend and the leaf service sit
//! in rack 0, the two mid tiers in rack 1, so every edge crosses a
//! spine. Requests arrive open-loop (Poisson) and are timed from their
//! due time.
//!
//! The apps runtime, the TCP stack, the fabric's single-packet path
//! and spine hops do the work; Pony engines sit idle.
//!
//! This is the benchmark's own copy of the DAG driver loop
//! (`DagRuntime::tick`, then pump 5 µs, then poll every socket host),
//! with the apps and TCP stacks wired by hand so their counters are in
//! reach.

use std::time::Instant;

use snap_repro::apps::dag::{DagEdge, DagRuntime, DagSpec, OpenLoop, ServiceSpec, ServiceTime};
use snap_repro::apps::socket::{wire, SocketHost};
use snap_repro::apps::transport::{TcpRouter, TcpTransport};
use snap_repro::apps::SimPump;
use snap_repro::sim::{Nanos, Sim};
use snap_repro::tcp::stack::{TcpConfig, TcpHost};
use snap_repro::testbed::{Testbed, TestbedConfig};
use snap_repro::topo::ClosSpec;

use crate::layers::{Kind, Tracer};
use crate::model::{lateness, LatSummary, Model, Snap};
use crate::{scaled, Episode, Mode, Opts, SetupClock, Slicer};

/// Root arrival rate, requests per second.
const RATE: f64 = 20_000.0;
/// Timed requests at scale 1.0.
const REQUESTS: u64 = 8_000;
/// Discarded warm-up requests, run to completion before timing.
const WARMUP_REQUESTS: u64 = 400;
/// Drive step, virtual µs.
const STEP_US: u64 = 5;
/// Virtual time after the timed phase within which its requests must
/// complete; later completions count as failed.
const DRAIN_BUDGET_US: u64 = 50_000;
/// Further virtual time, in coarse steps, in which requests still open
/// must at least complete for the exactly-once check to pass.
const AUDIT_BUDGET_US: u64 = 120_000_000;
const AUDIT_STEP_US: u64 = 1_000;
const SETTLE_US: u64 = 500;

/// The `bench_apps` diamond: the frontend fans out to two mid tiers, both feed
/// one leaf. Hosts 0–3 are rack 0, 4–7 rack 1.
fn spec() -> DagSpec {
    let svc = |name: &str, host, time, concurrency, children| ServiceSpec {
        name: name.into(),
        host,
        time,
        concurrency,
        children,
    };
    DagSpec {
        services: vec![
            svc(
                "frontend",
                0,
                ServiceTime::Constant(Nanos::from_micros(4)),
                16,
                vec![1, 2],
            ),
            svc(
                "mid-a",
                4,
                ServiceTime::Exponential { mean_us: 12.0 },
                8,
                vec![3],
            ),
            svc(
                "mid-b",
                5,
                ServiceTime::LogNormal {
                    median_us: 10.0,
                    sigma: 0.7,
                },
                8,
                vec![3],
            ),
            svc(
                "leaf",
                1,
                ServiceTime::Exponential { mean_us: 6.0 },
                16,
                vec![],
            ),
        ],
        request_bytes: 512,
        reply_bytes: 256,
    }
}

struct Rig {
    tb: Testbed,
    /// One socket host per service, in service order.
    apps: Vec<SocketHost>,
    /// One kernel stack per service host.
    tcp: Vec<TcpHost>,
    tracer: Tracer,
}

impl SimPump for Rig {
    fn sim_mut(&mut self) -> &mut Sim {
        &mut self.tb.sim
    }

    fn pump_us(&mut self, us: u64) {
        let tb = &mut self.tb;
        self.tracer.span(Kind::SimRun, || tb.run_us(us));
        for app in &self.apps {
            let sim = &mut self.tb.sim;
            self.tracer.span(Kind::SocketPoll, || app.poll(sim));
        }
    }
}

fn build(opts: &Opts, spec: &DagSpec, tracer: &Tracer) -> Result<(Rig, DagRuntime), String> {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: 8,
        topology: Some(ClosSpec::clos(2, 4, 2)),
        seed: opts.seed,
        trace_sample_ppm: opts.trace_sample_ppm(),
        ..TestbedConfig::default()
    });
    let mut routers: Vec<Option<TcpRouter>> = vec![None; tb.hosts.len()];
    let mut tcp = Vec::new();
    let mut apps = Vec::new();
    for s in &spec.services {
        let router = match &routers[s.host] {
            Some(r) => r.clone(),
            None => {
                let stack = tb.tcp_host(s.host, TcpConfig::default());
                tcp.push(stack.clone());
                let r = TcpRouter::new(stack);
                routers[s.host] = Some(r.clone());
                r
            }
        };
        apps.push(SocketHost::new(Box::new(TcpTransport::new(router))));
    }
    let mut edges = Vec::new();
    for (p, c) in spec.edge_list() {
        let (hp, hc) = (spec.services[p].host, spec.services[c].host);
        let (rp, rc) = match (&routers[hp], &routers[hc]) {
            (Some(rp), Some(rc)) => (rp, rc),
            _ => return Err("service host without a TCP stack".into()),
        };
        let conn = rp.tcp().connect(tb.hosts[hc].id);
        rc.tcp().accept(conn, tb.hosts[hp].id);
        let parent_sock = wire(&apps[p], &apps[c], conn).map_err(|e| format!("wire: {e:?}"))?;
        let child_sock = apps[c]
            .listener()
            .accept()
            .ok_or("wired edge has no pending accept")?;
        edges.push(DagEdge {
            parent: p,
            child: c,
            parent_sock,
            child_sock,
        });
    }
    let dag = DagRuntime::new(spec.clone(), edges, opts.seed, tb.recorder.clone())
        .map_err(|e| format!("dag: {e:?}"))?;
    Ok((
        Rig {
            tb,
            apps,
            tcp,
            tracer: tracer.clone(),
        },
        dag,
    ))
}

/// Runs one `dag_tcp` episode.
pub fn run(opts: &Opts) -> Episode {
    match try_run(opts) {
        Ok(ep) => ep,
        Err(e) => Episode {
            errors: vec![e],
            ..Episode::default()
        },
    }
}

fn try_run(opts: &Opts) -> Result<Episode, String> {
    let clock = SetupClock::start(opts);
    let tracer = Tracer::new(opts.traced());
    let spec = spec();
    let (mut rig, mut dag) = build(opts, &spec, &tracer)?;
    dag.run(
        &mut rig,
        OpenLoop::constant(RATE, WARMUP_REQUESTS),
        Nanos::from_micros(DRAIN_BUDGET_US + WARMUP_REQUESTS * 1_000_000 / RATE as u64),
    )
    .map_err(|e| format!("warm-up: {e:?}"))?;
    let setup = clock.stop();
    if opts.mode == Mode::SetupOnly {
        return Ok(Episode::setup_only(setup));
    }

    // The timed phase spans the requests' nominal arrival time; the
    // drain and the audit follow untimed.
    let requests = scaled(REQUESTS, opts.scale);
    let start = Snap::take(&mut rig.tb, &rig.tcp);
    let issue_end = start.now + Nanos::from_micros(requests * 1_000_000 / RATE as u64);
    let drain_end = issue_end + Nanos::from_micros(DRAIN_BUDGET_US);
    let audit_end = drain_end + Nanos::from_micros(AUDIT_BUDGET_US);
    let mut ticks: Vec<Nanos> = Vec::new();
    let mut errors = Vec::new();
    // One drive step; false once every request completed, the deadline
    // passed or the runtime failed.
    let mut step = |rig: &mut Rig, dag: &mut DagRuntime, until: Nanos, us: u64| {
        let sim = &mut rig.tb.sim;
        ticks.push(sim.now());
        if let Err(e) = rig.tracer.span(Kind::Tick, || dag.tick(sim)) {
            errors.push(format!("tick: {e:?}"));
            return false;
        }
        if dag.done() || rig.tb.sim.now() >= until {
            return false;
        }
        rig.tracer.observe_pending(rig.tb.sim.pending());
        rig.pump_us(us);
        true
    };
    tracer.begin_timed();
    let mut slicer = Slicer::start(&rig.tb, issue_end, 0, opts);
    let wall = Instant::now();
    dag.begin(start.now, OpenLoop::constant(RATE, requests));
    tracer.span(Kind::Workload, || {
        while step(&mut rig, &mut dag, issue_end, STEP_US) {
            slicer.step(&rig.tb, dag.results().len() as u64);
        }
    });
    let wall_s = wall.elapsed().as_secs_f64() - slicer.reference_s;
    let (spans, alloc_counts) = tracer.end_timed();
    let end = Snap::take(&mut rig.tb, &rig.tcp);
    let mut model = Model::from_window(&start, &end, false);
    while step(&mut rig, &mut dag, drain_end, STEP_US) {}
    model.read_stages(&rig.tb);
    while step(&mut rig, &mut dag, audit_end, AUDIT_STEP_US) {}

    // Exactly-once: every request id completes once, and each result's
    // critical-path breakdown telescopes to its latency.
    let results = dag.results();
    let mut seen = vec![0u8; requests as usize];
    let mut bad = 0u64;
    let (mut queue, mut service, mut transport) = (0u64, 0u64, 0u64);
    let mut lat = Vec::with_capacity(results.len());
    let mut issue_lag = Vec::with_capacity(results.len());
    for r in results {
        match seen.get_mut(r.rid as usize) {
            Some(n) => *n = n.saturating_add(1),
            None => bad += 1,
        }
        if r.queue + r.service + r.transport != r.total() {
            bad += 1;
        }
        queue += r.queue.as_nanos();
        service += r.service.as_nanos();
        transport += r.transport.as_nanos();
        lat.push(r.total().as_nanos());
        // Issued at the first tick at or after the due time.
        let issued = ticks[ticks
            .partition_point(|&t| t < r.injected)
            .min(ticks.len() - 1)];
        issue_lag.push(issued.saturating_sub(r.injected).as_nanos());
    }
    let once = seen.iter().filter(|&&n| n == 1).count() as u64;
    let late = results.iter().filter(|r| r.completed > drain_end).count() as u64;
    let missing = seen.iter().filter(|&&n| n == 0).count();
    let dup = seen.iter().filter(|&&n| n > 1).count();

    rig.pump_us(SETTLE_US);
    let settled = Snap::take(&mut rig.tb, &rig.tcp);
    if let Err(e) = settled.check_conservation(false) {
        errors.push(e);
    }
    let unacked: usize = rig.apps.iter().map(SocketHost::outstanding).sum();
    if missing + dup + unacked + bad as usize > 0
        || settled.tcp.msgs_sent != settled.tcp.msgs_delivered
    {
        errors.push(format!(
            "exactly-once: {missing} requests missing, {dup} duplicated, {bad} malformed, \
             {unacked} chunks unacked, tcp {} sent vs {} delivered",
            settled.tcp.msgs_sent, settled.tcp.msgs_delivered
        ));
    }
    let n = results.len().max(1) as f64;
    let edges = spec.edge_list().len() as u64;
    model.attempted = requests;
    model.ok = once - late;
    model.failed = requests - model.ok;
    model.late = late;
    model.payload_bytes = model.ok * edges * (spec.request_bytes + spec.reply_bytes) as u64;
    model.lat = LatSummary::of(lat);
    (model.lateness_max_ns, model.lateness_mean_ns) = lateness(&issue_lag);
    model.layer.apps_queue_ns = queue as f64 / n;
    model.layer.apps_service_ns = service as f64 / n;
    model.layer.apps_transport_ns = transport as f64 / n;
    Ok(Episode {
        setup,
        wall_s,
        slices: slicer.rates,
        model,
        spans,
        alloc: alloc_counts,
        wrapped_engines: 0,
        errors,
    })
}
