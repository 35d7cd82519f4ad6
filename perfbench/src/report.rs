//! Turns episodes into the benchmark's named metrics and its result
//! line.

use std::fmt::Write as _;

use crate::layers::Kind;
use crate::{Episode, Setup, SliceRate};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile `q` in `[0, 1]` (linear interpolation between closest
/// ranks).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    v[i] + frac * (v[(i + 1).min(v.len() - 1)] - v[i])
}

fn med(eps: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    median(&eps.iter().map(f).collect::<Vec<_>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run. Wall rates are the
/// median over every timed slice of every episode, each slice's rate
/// stated at the reference speed (see [`crate::refload`]); `setups`
/// holds every set-up measured, reported as the median of their times
/// at the reference speed. Modeled metrics come from the first episode
/// (every episode of a run repeats them exactly); `rss_mb` is read
/// after the first episode.
pub fn end_to_end(eps: &[Episode], setups: &[Setup], rss_mb: f64) -> Vec<Metric> {
    let first = &eps[0].model;
    let slices: Vec<(f64, f64)> = eps
        .iter()
        .flat_map(|e| e.slices.iter().map(SliceRate::at_reference))
        .collect();
    let window_s = first.window_ns as f64 / 1e9;
    let gbps = ratio(first.payload_bytes as f64 * 8.0, first.window_ns as f64);
    let cores = ratio(first.net_cpu_ns as f64, first.window_ns as f64);
    vec![
        m(
            "wall_pkts_per_s",
            "pkts/s",
            median(&slices.iter().map(|s| s.0).collect::<Vec<_>>()),
        ),
        m(
            "wall_ops_per_s",
            "ops/s",
            median(&slices.iter().map(|s| s.1).collect::<Vec<_>>()),
        ),
        m(
            "setup_s",
            "s",
            median(&setups.iter().map(Setup::at_reference).collect::<Vec<_>>()),
        ),
        m("peak_rss_mb", "MB", rss_mb),
        m("model_ops_per_s", "ops/s", ratio(first.ok as f64, window_s)),
        m("model_gbps", "Gbps", gbps),
        m("model_gbps_per_core", "Gbps/core", ratio(gbps, cores)),
        m("model_p50_us", "sim_us", first.lat.p50_ns as f64 / 1e3),
        m("model_p99_us", "sim_us", first.lat.p99_ns as f64 / 1e3),
        m(
            "op_ok_ratio",
            "ratio",
            ratio(first.ok as f64, first.attempted as f64),
        ),
    ]
}

/// Modeled fields that differ between an untraced and a traced
/// episode: `(field, untraced, traced)`.
pub fn drift(untraced: &Episode, traced: &Episode) -> Vec<(&'static str, f64, f64)> {
    untraced
        .model
        .fields()
        .into_iter()
        .zip(traced.model.fields())
        .filter(|((_, a), (_, b))| a != b)
        .map(|((name, a), (_, b))| (name, a, b))
        .collect()
}

/// The per-layer metrics of a traced run. Modeled counters come from
/// the first untraced episode; span-, pass- and allocation-based values
/// from the traced episodes (which run the recorder off, as the
/// untraced ones do), wall shares as medians over them; the modeled
/// stage quantiles from the `sampled` episode, the only one with the
/// trace recorder on.
pub fn per_layer(untraced: &[Episode], traced: &[Episode], sampled: &Episode) -> Vec<Metric> {
    let u = &untraced[0].model;
    let t = &traced[0];
    let l = &u.layer;
    let pkts = u.pkts as f64;
    let ops = u.ok as f64;
    let tp = t.model.pkts as f64;
    let spans = &t.spans;
    let share = |kind: Kind, self_time: bool| {
        med(traced, move |e| {
            let a = e.spans.get(kind);
            let v = if self_time { a.self_ns } else { a.total_ns };
            ratio(v as f64, e.spans.get(Kind::Workload).total_ns as f64)
        })
    };
    let per_call = |kind: Kind| {
        med(traced, move |e| {
            let a = e.spans.get(kind);
            ratio(a.total_ns as f64, a.count as f64)
        })
    };
    let wrapped = t.wrapped_engines as f64;
    vec![
        m("sim.events_per_pkt", "count", ratio(u.events as f64, pkts)),
        m("sim.pending_max", "count", spans.pending_max as f64),
        m("sim.other_wall_share", "share", share(Kind::SimRun, true)),
        m(
            "core.passes_per_pkt",
            "count",
            ratio(spans.passes as f64, tp),
        ),
        m(
            "core.idle_pass_ratio",
            "ratio",
            ratio(spans.idle_passes as f64, spans.passes as f64),
        ),
        m(
            "core.busy_ns_per_pkt",
            "sim_ns",
            ratio(l.core_busy_ns as f64, pkts),
        ),
        m("core.spin_ns", "sim_ns", l.core_spin_ns as f64),
        m("core.wake_ns", "sim_ns", l.core_wake_ns as f64),
        m(
            "core.sched_delay_p99_us",
            "sim_us",
            l.sched_delay_p99_ns as f64 / 1e3,
        ),
        m(
            "pony.run_wall_share",
            "share",
            share(Kind::EngineRun, false),
        ),
        m("pony.run_wall_ns_per_pass", "ns", per_call(Kind::EngineRun)),
        m("pony.tx_pkts_per_op", "count", ratio(l.pony_tx as f64, ops)),
        m("pony.rx_pkts_per_op", "count", ratio(l.pony_rx as f64, ops)),
        m(
            "pony.cpu_ns_per_pkt",
            "sim_ns",
            ratio(l.core_busy_ns as f64, (l.pony_tx + l.pony_rx) as f64),
        ),
        m(
            "pony.hedge_retransmits",
            "count",
            l.hedge_retransmits as f64,
        ),
        m(
            "pony.completions_dropped",
            "count",
            l.completions_dropped as f64,
        ),
        m("pony.ops_shed", "count", l.ops_shed as f64),
        m("pony.busy_rejected", "count", l.busy_rejected as f64),
        m("pony.rpc_p99_us", "sim_us", l.rpc_p99_ns as f64 / 1e3),
        m("shm.submit_wall_ns", "ns", per_call(Kind::Submit)),
        m(
            "shm.take_completions_wall_ns",
            "ns",
            per_call(Kind::TakeCompletions),
        ),
        m(
            "shm.queue_wait_p99_us",
            "sim_us",
            sampled.model.layer.queue_wait_p99_ns as f64 / 1e3,
        ),
        m("nic.delivered_pkts", "count", pkts),
        m("nic.drops", "count", l.nic_drops as f64),
        m(
            "nic.tx_wait_p99_us",
            "sim_us",
            sampled.model.layer.nic_tx_wait_p99_ns as f64 / 1e3,
        ),
        m("topo.spine_imbalance", "ratio", l.spine_imbalance),
        m("topo.trunk_drops", "count", l.trunk_drops as f64),
        m(
            "topo.switch_wait_p99_us",
            "sim_us",
            sampled.model.layer.switch_wait_p99_ns as f64 / 1e3,
        ),
        m(
            "tcp.segments_per_op",
            "count",
            ratio(l.tcp_segments as f64, ops),
        ),
        m("tcp.retransmits", "count", l.tcp_retransmits as f64),
        m(
            "tcp.cpu_ns_per_op",
            "sim_ns",
            ratio(l.tcp_cpu_ns as f64, ops),
        ),
        m("apps.tick_wall_share", "share", share(Kind::Tick, false)),
        m("apps.queue_us_mean", "sim_us", l.apps_queue_ns / 1e3),
        m("apps.service_us_mean", "sim_us", l.apps_service_ns / 1e3),
        m(
            "apps.transport_us_mean",
            "sim_us",
            l.apps_transport_ns / 1e3,
        ),
        m("alloc.per_pkt", "count", ratio(t.alloc.allocs as f64, tp)),
        m("alloc.bytes_per_pkt", "B", ratio(t.alloc.bytes as f64, tp)),
        m(
            "alloc.peak_live_mb",
            "MB",
            t.alloc.peak_live_bytes as f64 / (1024.0 * 1024.0),
        ),
        m("driver.wall_share", "share", share(Kind::Workload, true)),
        m(
            "driver.lateness_max_us",
            "sim_us",
            u.lateness_max_ns as f64 / 1e3,
        ),
        m(
            "driver.lateness_mean_us",
            "sim_us",
            u.lateness_mean_ns / 1e3,
        ),
        m(
            "trace.overhead_ratio",
            "ratio",
            ratio(med(traced, |e| e.wall_s), med(untraced, |e| e.wall_s)) - 1.0,
        ),
        m(
            "trace.drift_events_per_engine",
            "count",
            ratio(t.model.events as f64 - u.events as f64, wrapped),
        ),
        m(
            "trace.drift_cpu_ns_per_engine",
            "sim_ns",
            ratio(t.model.net_cpu_ns as f64 - u.net_cpu_ns as f64, wrapped),
        ),
        m("lat.samples", "count", u.lat.samples as f64),
        m("lat.beyond_p99", "count", u.lat.beyond_p99 as f64),
        m(
            "op_fail_ratio",
            "ratio",
            ratio(u.failed as f64, u.attempted as f64),
        ),
    ]
}

/// The result object printed as the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    out.push_str("}}");
    out
}
