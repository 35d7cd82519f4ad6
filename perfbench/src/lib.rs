//! The repository benchmark: three workloads over the simulated Snap,
//! each driven only through the program's public API, reporting
//! end-to-end metrics from an untraced run and per-layer metrics from
//! a separate traced run. See `README.md` in this directory.

pub mod alloc;
pub mod dag;
pub mod layers;
pub mod model;
pub mod rack;
pub mod refload;
pub mod report;
pub mod stream;

use std::time::Instant;

use snap_repro::sim::trace::TRACE_SAMPLE_SCALE;
use snap_repro::sim::Nanos;
use snap_repro::testbed::Testbed;

use alloc::AllocCounts;
use layers::SpanLog;
use model::Model;

/// Individual spans kept per traced episode (totals are always
/// complete); later spans are counted as dropped.
pub const SPAN_CAP: usize = 100_000;

/// What one episode measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The end-to-end run: no wrappers, no spans, recorder off.
    Untraced,
    /// Timing engine wrappers, layer spans and allocation counting. The
    /// trace recorder stays off, so the model runs as in an untraced
    /// episode.
    Traced,
    /// The trace recorder at full sampling, for the modeled stage
    /// quantiles. Sampling adds header bytes to every packet, so this
    /// episode's model drifts from the untraced one.
    Sampled,
    /// An untraced episode that stops after set-up and returns only
    /// `setup_s`.
    SetupOnly,
}

/// Options of one episode.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Multiplier on the timed phase's length (1.0 is the benchmark).
    pub scale: f64,
    /// What the episode measures.
    pub mode: Mode,
}

impl Opts {
    /// Whether the episode wraps engines, records spans and counts
    /// allocations.
    pub fn traced(&self) -> bool {
        self.mode == Mode::Traced
    }

    /// The testbed's `trace_sample_ppm`.
    pub fn trace_sample_ppm(&self) -> u32 {
        if self.mode == Mode::Sampled {
            TRACE_SAMPLE_SCALE
        } else {
            0
        }
    }
}

/// Seed of the discarded warm-up inputs. Warm-ups are the same for
/// every `--seed`, so set-up time measures the same work on every run.
pub const WARMUP_SEED: u64 = 0x5741_524d_5550;

/// Wall-clock slices each timed phase is cut into.
pub const SLICES: u64 = 20;

/// The host's slowness now (see [`refload`]), or 0 in a traced episode,
/// which reports no wall rates and must not count the reference's work.
fn host_slowness(measure: bool) -> f64 {
    if measure {
        refload::slowness()
    } else {
        0.0
    }
}

/// An episode's set-up time and the host's slowness around it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Wall time from the episode's start to its first timed op, s.
    pub wall_s: f64,
    /// Mean host slowness measured just before and just after the
    /// set-up; 0 if not measured.
    pub slowness: f64,
}

impl Setup {
    /// Set-up time at the reference speed, s.
    pub fn at_reference(&self) -> f64 {
        if self.slowness > 0.0 {
            self.wall_s / self.slowness
        } else {
            self.wall_s
        }
    }
}

/// Times an episode's set-up.
pub struct SetupClock {
    measure: bool,
    before: f64,
    t0: Instant,
}

impl SetupClock {
    /// Starts timing, after measuring the host's slowness (untraced
    /// episodes only).
    pub fn start(opts: &Opts) -> SetupClock {
        let measure = !opts.traced();
        let before = host_slowness(measure);
        SetupClock {
            measure,
            before,
            t0: Instant::now(),
        }
    }

    /// Stops timing, then measures the host's slowness again.
    pub fn stop(&self) -> Setup {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let after = host_slowness(self.measure);
        Setup {
            wall_s,
            slowness: (self.before + after) / 2.0,
        }
    }
}

/// Wall-clock rates of one slice of a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceRate {
    /// Packets the fabric delivered per wall second.
    pub pkts_per_s: f64,
    /// Ops completed per wall second.
    pub ops_per_s: f64,
    /// Mean host slowness measured just before and just after the
    /// slice; 0 if not measured.
    pub slowness: f64,
}

impl SliceRate {
    /// `(packets, ops)` per wall second at the reference speed.
    pub fn at_reference(&self) -> (f64, f64) {
        (
            self.pkts_per_s * self.slowness,
            self.ops_per_s * self.slowness,
        )
    }
}

/// Cuts a timed phase into [`SLICES`] equal spans of virtual time and
/// records each span's wall-clock rates. In untraced episodes it also
/// measures the host's slowness at every slice edge, outside the
/// slices.
pub struct Slicer {
    len: Nanos,
    next: Nanos,
    wall: Instant,
    pkts: u64,
    ops: u64,
    measure: bool,
    /// Host slowness timed at the current slice's start.
    slowness: f64,
    /// Wall time spent timing the reference at slice ends, s; it lies
    /// in the timed phase but in no slice.
    pub reference_s: f64,
    /// Rates per slice.
    pub rates: Vec<SliceRate>,
}

impl Slicer {
    /// Starts slicing the timed phase `[tb.sim.now(), end)`, with `ops`
    /// completed so far.
    pub fn start(tb: &Testbed, end: Nanos, ops: u64, opts: &Opts) -> Slicer {
        let now = tb.sim.now();
        let len = Nanos((end.saturating_sub(now).as_nanos() / SLICES).max(1));
        let measure = !opts.traced();
        let slowness = host_slowness(measure);
        Slicer {
            len,
            next: now + len,
            pkts: tb.fabric.stats().delivered,
            ops,
            measure,
            slowness,
            reference_s: 0.0,
            rates: Vec::with_capacity(SLICES as usize + 1),
            wall: Instant::now(),
        }
    }

    /// Closes the current slice once virtual time has passed its end.
    /// Call after every drive step with the ops completed so far.
    pub fn step(&mut self, tb: &Testbed, ops: u64) {
        let now = tb.sim.now();
        if now < self.next {
            return;
        }
        let wall = Instant::now();
        let pkts = tb.fabric.stats().delivered;
        let secs = wall.duration_since(self.wall).as_secs_f64();
        let after = host_slowness(self.measure);
        self.rates.push(SliceRate {
            pkts_per_s: (pkts - self.pkts) as f64 / secs,
            ops_per_s: (ops - self.ops) as f64 / secs,
            slowness: (self.slowness + after) / 2.0,
        });
        (self.next, self.pkts, self.ops, self.slowness) = (now + self.len, pkts, ops, after);
        self.wall = Instant::now();
        self.reference_s += self.wall.duration_since(wall).as_secs_f64();
    }
}

/// `base` scaled, at least 1.
pub fn scaled(base: u64, scale: f64) -> u64 {
    ((base as f64 * scale).round() as u64).max(1)
}

/// What one episode (set-up, timed phase, drain, checks) measured.
#[derive(Clone, Default)]
pub struct Episode {
    /// Set-up time.
    pub setup: Setup,
    /// Wall time of the timed phase, s, less the reference chunks timed
    /// in it.
    pub wall_s: f64,
    /// Wall-clock rates of the timed phase's slices.
    pub slices: Vec<SliceRate>,
    /// Modeled results (seeded, exact).
    pub model: Model,
    /// Layer spans (traced episodes only).
    pub spans: SpanLog,
    /// Heap allocations in the timed phase (traced episodes only).
    pub alloc: AllocCounts,
    /// Engines wrapped in timing wrappers (traced episodes only).
    pub wrapped_engines: usize,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

impl Episode {
    /// An episode that stopped after set-up.
    pub fn setup_only(setup: Setup) -> Episode {
        Episode {
            setup,
            ..Episode::default()
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop Pony stream between two hosts.
    Stream,
    /// The §5.2 rack over Pony: open-loop 1 MB RPCs plus probers.
    RackPony,
    /// A diamond service DAG over kernel TCP across a two-rack Clos.
    DagTcp,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [Workload::Stream, Workload::RackPony, Workload::DagTcp];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::RackPony => "rack_pony",
            Workload::DagTcp => "dag_tcp",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one episode.
    pub fn run(self, opts: &Opts) -> Episode {
        match self {
            Workload::Stream => stream::run(opts),
            Workload::RackPony => rack::run(opts),
            Workload::DagTcp => dag::run(opts),
        }
    }
}
