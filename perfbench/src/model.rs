//! Counters read from the program's public stats, and the modeled
//! results of one episode built from them.

use snap_repro::core::group::GroupCpu;
use snap_repro::nic::fabric::FabricHandle;
use snap_repro::pony::engine::PonyEngine;
use snap_repro::sim::trace::Stage;
use snap_repro::sim::{Histogram, Nanos};
use snap_repro::tcp::stack::TcpHost;
use snap_repro::testbed::Testbed;
use snap_repro::topo::SwitchId;

/// Exact latency quantiles over one episode's samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatSummary {
    /// Samples recorded.
    pub samples: u64,
    /// Median, ns (nearest rank).
    pub p50_ns: u64,
    /// 99th percentile, ns (nearest rank).
    pub p99_ns: u64,
    /// Samples strictly above the p99 value.
    pub beyond_p99: u64,
}

impl LatSummary {
    /// Summarizes `samples` (ns) with nearest-rank quantiles.
    pub fn of(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let n = samples.len();
        if n == 0 {
            return LatSummary::default();
        }
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        let p99_ns = rank(0.99);
        LatSummary {
            samples: n as u64,
            p50_ns: rank(0.5),
            p99_ns,
            beyond_p99: samples.iter().filter(|&&v| v > p99_ns).count() as u64,
        }
    }
}

/// Exactly-once ledger over one client's op ids, which a `PonyClient`
/// hands out densely from 1.
#[derive(Debug, Default)]
pub struct OpLedger {
    done: Vec<u8>,
    /// Completions whose status was not `Ok`.
    pub not_ok: u64,
    /// Completions for op ids never submitted.
    pub unknown: u64,
}

impl OpLedger {
    /// Records a submitted op id.
    pub fn submitted(&mut self, op: u64) {
        let i = op as usize;
        if self.done.len() <= i {
            self.done.resize(i + 1, 0);
        }
    }

    /// Records a completion; returns false if it was a duplicate or
    /// names an unknown op.
    pub fn completed(&mut self, op: u64, ok: bool) -> bool {
        self.not_ok += u64::from(!ok);
        match self.done.get_mut(op as usize) {
            Some(n) => {
                *n = n.saturating_add(1);
                *n == 1
            }
            None => {
                self.unknown += 1;
                false
            }
        }
    }

    /// (missing, duplicated) op ids. Index 0 is never handed out.
    pub fn audit(&self) -> (u64, u64) {
        let ids = self.done.iter().skip(1);
        let missing = ids.clone().filter(|&&n| n == 0).count() as u64;
        let dup = ids.filter(|&&n| n > 1).count() as u64;
        (missing, dup + self.unknown)
    }
}

/// Pony engine counters summed over a set of engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct PonyTotals {
    /// Packets transmitted.
    pub tx: u64,
    /// Packets received.
    pub rx: u64,
    /// Hedge-triggered early retransmits.
    pub hedge_retransmits: u64,
    /// Completions dropped (session queue full or gone).
    pub completions_dropped: u64,
    /// Best-effort ops shed.
    pub ops_shed: u64,
    /// Transport ops refused with `Busy`.
    pub busy_rejected: u64,
}

/// Kernel-TCP counters summed over hosts.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpTotals {
    /// Messages submitted.
    pub msgs_sent: u64,
    /// Messages delivered to the remote application.
    pub msgs_delivered: u64,
    /// Data segments sent (retransmits included).
    pub segments: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Stack CPU, ns.
    pub cpu_ns: u64,
}

/// Cumulative program counters at one instant of virtual time.
#[derive(Clone)]
pub struct Snap {
    /// Virtual time.
    pub now: Nanos,
    /// Simulator events executed.
    pub events: u64,
    /// Packets the fabric delivered to a NIC.
    pub delivered: u64,
    /// Packets the fabric dropped before a NIC (all reasons).
    pub fabric_drops: u64,
    /// Packets the NICs handed to the fabric.
    pub nic_tx: u64,
    /// Packets NICs put into rx rings.
    pub nic_rx: u64,
    /// Packets NICs dropped on receive (CRC, filter, ring full).
    pub nic_rx_drops: u64,
    /// Σ `FabricHandle::drop_reasons` over hosts.
    pub drop_reasons: u64,
    /// Snap engine-group CPU summed over hosts.
    pub cpu: GroupCpu,
    /// Scheduling-delay histogram merged over hosts.
    pub sched: Histogram,
    /// Pony engine counters.
    pub pony: PonyTotals,
    /// Kernel-TCP counters.
    pub tcp: TcpTotals,
    /// Per-trunk packets forwarded and dropped, in fabric order.
    pub trunks: Vec<(SwitchId, SwitchId, u64, u64)>,
}

fn fabric_drops(f: &FabricHandle) -> u64 {
    let s = f.stats();
    s.switch_drops
        + s.random_drops
        + s.partition_drops
        + s.lossy_drops
        + s.brownout_drops
        + s.trunk_down_drops
        + s.quarantine_sheds
}

impl Snap {
    /// Reads every counter from the testbed and the given TCP stacks.
    pub fn take(tb: &mut Testbed, tcp: &[TcpHost]) -> Snap {
        let now = tb.sim.now();
        let fs = tb.fabric.stats();
        let mut snap = Snap {
            now,
            events: tb.sim.events_executed(),
            delivered: fs.delivered,
            fabric_drops: fabric_drops(&tb.fabric),
            nic_tx: 0,
            nic_rx: 0,
            nic_rx_drops: 0,
            drop_reasons: 0,
            cpu: GroupCpu::default(),
            sched: Histogram::new(),
            pony: PonyTotals::default(),
            tcp: TcpTotals::default(),
            trunks: tb
                .fabric
                .trunks()
                .into_iter()
                .map(|((a, b), t)| (a, b, t.forwarded, t.drops))
                .collect(),
        };
        for host in &tb.hosts {
            let ns = tb.fabric.with_nic(host.id, |n| n.stats().clone());
            snap.nic_tx += ns.tx_packets;
            snap.nic_rx += ns.rx_packets;
            snap.nic_rx_drops += ns.rx_crc_drops + ns.rx_filter_drops + ns.rx_overflow_drops;
            snap.drop_reasons += tb.fabric.drop_reasons(host.id).total();
            let cpu = host.group.cpu(now);
            snap.cpu.engine += cpu.engine;
            snap.cpu.spin += cpu.spin;
            snap.cpu.wake_overhead += cpu.wake_overhead;
            snap.sched.merge(&host.group.sched_delay_histogram());
            for id in host.group.engine_ids() {
                let stats = host.group.with_engine(id, |e| {
                    e.as_any()
                        .downcast_mut::<PonyEngine>()
                        .map(|pe| pe.stats().clone())
                });
                if let Some(s) = stats {
                    let p = &mut snap.pony;
                    p.tx += s.tx_packets;
                    p.rx += s.rx_packets;
                    p.hedge_retransmits += s.hedge_retransmits;
                    p.completions_dropped += s.completions_dropped;
                    p.ops_shed += s.ops_shed;
                    p.busy_rejected += s.busy_rejected;
                }
            }
        }
        for stack in tcp {
            let s = stack.stats();
            let t = &mut snap.tcp;
            t.msgs_sent += s.msgs_sent;
            t.msgs_delivered += s.msgs_delivered;
            t.segments += s.segs_sent;
            t.retransmits += s.retransmits;
            t.cpu_ns += stack.cpu_busy().as_nanos();
        }
        snap
    }

    /// Packet conservation after the drain: every packet a NIC sent was
    /// delivered to a NIC or dropped in the fabric; every delivered
    /// packet entered an rx ring or was dropped by the NIC; and (Pony)
    /// every packet an engine sent reached its NIC.
    pub fn check_conservation(&self, pony: bool) -> Result<(), String> {
        if self.nic_tx != self.delivered + self.fabric_drops {
            return Err(format!(
                "packet conservation: nic tx {} != fabric delivered {} + fabric drops {}",
                self.nic_tx, self.delivered, self.fabric_drops
            ));
        }
        if self.delivered != self.nic_rx + self.nic_rx_drops {
            return Err(format!(
                "packet conservation: delivered {} != nic rx {} + nic rx drops {}",
                self.delivered, self.nic_rx, self.nic_rx_drops
            ));
        }
        if pony && self.pony.tx != self.nic_tx {
            return Err(format!(
                "packet conservation: pony engine tx {} != nic tx {}",
                self.pony.tx, self.nic_tx
            ));
        }
        Ok(())
    }
}

/// Modeled results of one episode: seeded, exact, and identical on
/// every run with the same seed and the same tracing choice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    /// User ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops completed exactly once with an Ok status.
    pub ok: u64,
    /// Ops that failed (not completed by the end of the drain, not Ok,
    /// or failing verification).
    pub failed: u64,
    /// Failed ops that did complete, after the drain.
    pub late: u64,
    /// Virtual time of the timed phase (ops issued in it, rates over
    /// it; completions may land in the drain that follows).
    pub window_ns: u64,
    /// Packets delivered by the fabric in the window.
    pub pkts: u64,
    /// Simulator events executed in the window.
    pub events: u64,
    /// Application payload bytes delivered in the window.
    pub payload_bytes: u64,
    /// Modeled networking CPU in the window (Pony: engine + spin +
    /// wake; TCP: stack busy), ns.
    pub net_cpu_ns: u64,
    /// Op latency.
    pub lat: LatSummary,
    /// Open-loop generator lateness (issue − due), max, ns.
    pub lateness_max_ns: u64,
    /// Open-loop generator lateness, mean, ns.
    pub lateness_mean_ns: f64,
    /// Per-layer modeled counters.
    pub layer: LayerModel,
}

/// Per-layer modeled counters of one episode (window deltas).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerModel {
    /// Engine-pass CPU, ns.
    pub core_busy_ns: u64,
    /// Spin-poll CPU, ns.
    pub core_spin_ns: u64,
    /// Wake (interrupt + context switch) CPU, ns.
    pub core_wake_ns: u64,
    /// p99 scheduling delay of worker wakes, ns.
    pub sched_delay_p99_ns: u64,
    /// Pony engine counters.
    pub pony_tx: u64,
    /// Pony packets received.
    pub pony_rx: u64,
    /// Hedge retransmits.
    pub hedge_retransmits: u64,
    /// Completions dropped.
    pub completions_dropped: u64,
    /// Ops shed.
    pub ops_shed: u64,
    /// Ops busy-rejected.
    pub busy_rejected: u64,
    /// NIC-level drops (Σ drop reasons).
    pub nic_drops: u64,
    /// Max ÷ mean of leaf→spine packets forwarded (0 without spines).
    pub spine_imbalance: f64,
    /// Trunk tail drops.
    pub trunk_drops: u64,
    /// TCP data segments sent.
    pub tcp_segments: u64,
    /// TCP retransmits.
    pub tcp_retransmits: u64,
    /// TCP stack CPU, ns.
    pub tcp_cpu_ns: u64,
    /// DAG critical-path means, ns: queue, service, transport.
    pub apps_queue_ns: f64,
    /// See `apps_queue_ns`.
    pub apps_service_ns: f64,
    /// See `apps_queue_ns`.
    pub apps_transport_ns: f64,
    /// p99 latency of the rack's 1 MB RPCs from their due time, ns.
    pub rpc_p99_ns: u64,
    /// Trace-recorder stage p99s (traced runs only), ns:
    /// ClientEnqueue→EngineDequeue.
    pub queue_wait_p99_ns: u64,
    /// Gap before `NicTx`.
    pub nic_tx_wait_p99_ns: u64,
    /// Gap before `SwitchDepart`.
    pub switch_wait_p99_ns: u64,
}

impl Model {
    /// Fills the window deltas between two snapshots.
    pub fn from_window(start: &Snap, end: &Snap, pony: bool) -> Model {
        let cpu_engine = (end.cpu.engine - start.cpu.engine).as_nanos();
        let cpu_spin = (end.cpu.spin - start.cpu.spin).as_nanos();
        let cpu_wake = (end.cpu.wake_overhead - start.cpu.wake_overhead).as_nanos();
        let tcp_cpu = end.tcp.cpu_ns - start.tcp.cpu_ns;
        // Leaf→spine trunk load, as a window delta.
        let mut up: Vec<u64> = Vec::new();
        let mut trunk_drops = 0;
        for (i, &(a, b, fwd, drops)) in end.trunks.iter().enumerate() {
            let (f0, d0) = start
                .trunks
                .get(i)
                .map(|&(_, _, f, d)| (f, d))
                .unwrap_or((0, 0));
            trunk_drops += drops - d0;
            if matches!((a, b), (SwitchId::Leaf(_), SwitchId::Spine(_))) {
                up.push(fwd - f0);
            }
        }
        let mean = up.iter().sum::<u64>() as f64 / up.len().max(1) as f64;
        let spine_imbalance = match up.iter().max() {
            Some(&max) if mean > 0.0 => max as f64 / mean,
            _ => 0.0,
        };
        Model {
            window_ns: (end.now - start.now).as_nanos(),
            pkts: end.delivered - start.delivered,
            events: end.events - start.events,
            net_cpu_ns: if pony {
                cpu_engine + cpu_spin + cpu_wake
            } else {
                tcp_cpu
            },
            layer: LayerModel {
                core_busy_ns: cpu_engine,
                core_spin_ns: cpu_spin,
                core_wake_ns: cpu_wake,
                sched_delay_p99_ns: end.sched.diff(&start.sched).p99(),
                pony_tx: end.pony.tx - start.pony.tx,
                pony_rx: end.pony.rx - start.pony.rx,
                hedge_retransmits: end.pony.hedge_retransmits - start.pony.hedge_retransmits,
                completions_dropped: end.pony.completions_dropped - start.pony.completions_dropped,
                ops_shed: end.pony.ops_shed - start.pony.ops_shed,
                busy_rejected: end.pony.busy_rejected - start.pony.busy_rejected,
                nic_drops: end.drop_reasons - start.drop_reasons,
                spine_imbalance,
                trunk_drops,
                tcp_segments: end.tcp.segments - start.tcp.segments,
                tcp_retransmits: end.tcp.retransmits - start.tcp.retransmits,
                tcp_cpu_ns: tcp_cpu,
                ..LayerModel::default()
            },
            ..Model::default()
        }
    }

    /// Records the trace recorder's stage p99s, when tracing was on.
    pub fn read_stages(&mut self, tb: &Testbed) {
        let Some(rec) = &tb.recorder else { return };
        for (stage, _count, _p50, p99) in rec.stage_quantiles() {
            match stage {
                Stage::EngineDequeue => self.layer.queue_wait_p99_ns = p99.as_nanos(),
                Stage::NicTx => self.layer.nic_tx_wait_p99_ns = p99.as_nanos(),
                Stage::SwitchDepart => self.layer.switch_wait_p99_ns = p99.as_nanos(),
                _ => {}
            }
        }
    }

    /// Every modeled field by name, for drift and determinism reports.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        let l = &self.layer;
        vec![
            ("attempted", self.attempted as f64),
            ("ok", self.ok as f64),
            ("failed", self.failed as f64),
            ("late", self.late as f64),
            ("window_ns", self.window_ns as f64),
            ("pkts", self.pkts as f64),
            ("events", self.events as f64),
            ("payload_bytes", self.payload_bytes as f64),
            ("net_cpu_ns", self.net_cpu_ns as f64),
            ("lat_samples", self.lat.samples as f64),
            ("lat_p50_ns", self.lat.p50_ns as f64),
            ("lat_p99_ns", self.lat.p99_ns as f64),
            ("lateness_max_ns", self.lateness_max_ns as f64),
            ("lateness_mean_ns", self.lateness_mean_ns),
            ("core_busy_ns", l.core_busy_ns as f64),
            ("core_spin_ns", l.core_spin_ns as f64),
            ("core_wake_ns", l.core_wake_ns as f64),
            ("sched_delay_p99_ns", l.sched_delay_p99_ns as f64),
            ("pony_tx", l.pony_tx as f64),
            ("pony_rx", l.pony_rx as f64),
            ("hedge_retransmits", l.hedge_retransmits as f64),
            ("completions_dropped", l.completions_dropped as f64),
            ("ops_shed", l.ops_shed as f64),
            ("busy_rejected", l.busy_rejected as f64),
            ("nic_drops", l.nic_drops as f64),
            ("spine_imbalance", l.spine_imbalance),
            ("trunk_drops", l.trunk_drops as f64),
            ("tcp_segments", l.tcp_segments as f64),
            ("tcp_retransmits", l.tcp_retransmits as f64),
            ("tcp_cpu_ns", l.tcp_cpu_ns as f64),
            ("apps_queue_ns", l.apps_queue_ns),
            ("apps_service_ns", l.apps_service_ns),
            ("apps_transport_ns", l.apps_transport_ns),
            ("rpc_p99_ns", l.rpc_p99_ns as f64),
        ]
    }
}

/// Mean and max of open-loop lateness samples (ns).
pub fn lateness(samples: &[u64]) -> (u64, f64) {
    let max = samples.iter().copied().max().unwrap_or(0);
    let mean = samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;
    (max, mean)
}
