//! The simulated datacenter fabric: host uplinks + a switching tier
//! compiled from a [`snap_topo::ClosSpec`].
//!
//! Models exactly the effects the paper's evaluation exercises:
//!
//! * **Serialization delay** at the sender uplink and every switch
//!   egress port on the path (line-rate Gbps from the NIC config /
//!   topology trunk config);
//! * **Propagation + switch forwarding latency** per hop (constants
//!   from [`snap_sim::costs`] for the host tier, trunk parameters from
//!   the topology for the spine tier);
//! * **Bounded egress buffers with tail drop** — congestion loss, which
//!   Pony Express's reliability layer must recover from ("one-sided
//!   operations fall back to relying on congestion control", §3.3);
//! * **Multi-rack routing**: hosts hang off leaf (top-of-rack)
//!   switches; cross-rack packets cross leaf → spine → leaf, with the
//!   spine chosen by deterministic seeded ECMP flow hashing
//!   ([`snap_topo::Topology::ecmp_spine`]) — pure hashing, so routing
//!   never consumes an RNG draw;
//! * **Injectable random loss** for failure-injection tests, plus
//!   topology-aware faults: trunk (leaf↔spine link) failures and leaf
//!   brownouts;
//! * **QoS classes**: the transport class may use the full egress
//!   buffer, best-effort only a fraction; per-priority weighted dequeue
//!   is available via [`snap_topo::QosSchedule::Wrr`] (the default
//!   FIFO discipline reproduces the legacy single-queue model exactly).
//!
//! The single-switch fabric of earlier PRs is the degenerate
//! [`snap_topo::ClosSpec::single_rack`] instance — [`FabricHandle::new`]
//! builds exactly that, and its behavior (RNG draw order, event
//! schedule, modeled times) is bit-identical to the pre-topology code.
//!
//! Packets travel as trains along one path: [`FabricHandle::transmit_burst`]
//! sends a train from one host, and [`FabricHandle::transmit`] is a
//! one-packet train. Each switch on the path admits the train packet by
//! packet, then forwards one sub-train per egress port in one event.
//!
//! The fabric owns every [`VirtNic`]; all state advances on the
//! single-threaded [`Sim`] event loop via a cloneable [`FabricHandle`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_sim::costs;
use snap_sim::hash::{HashMap, HashSet};
use snap_sim::time::transmit_time;
use snap_sim::trace::{Stage, TraceRecorder};
use snap_sim::{Nanos, Rng, Sim};
use snap_topo::{PortLanes, Topology};
// Re-exported so fabric consumers (telemetry, testbeds) can name
// switches and topologies without a direct snap-topo dependency.
pub use snap_topo::{ClosSpec, SwitchId};

use crate::nic::{NicConfig, VirtNic};
use crate::packet::{HostId, Packet, QosClass};

/// Priority lane index of a QoS class (order of [`QosClass::ALL`]).
fn prio(qos: QosClass) -> usize {
    match qos {
        QosClass::Transport => 0,
        QosClass::BestEffort => 1,
    }
}

/// Fabric-wide configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Propagation delay per link hop (host↔switch).
    pub prop_delay: Nanos,
    /// Switch forwarding latency.
    pub switch_latency: Nanos,
    /// Egress buffer per switch port, in bytes.
    pub switch_buffer_bytes: u64,
    /// Fraction of the egress buffer available to best-effort traffic.
    pub best_effort_buffer_fraction: f64,
    /// Independent per-packet random loss probability.
    pub loss_prob: f64,
    /// Independent per-packet payload-corruption probability. Corrupted
    /// packets keep their original CRC, so the receiving NIC's
    /// end-to-end check rejects them (§3.4's CRC offload story).
    pub corrupt_prob: f64,
    /// NIC DMA latency per direction.
    pub nic_dma: Nanos,
    /// Seed for the loss-injection RNG.
    pub seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            prop_delay: Nanos(costs::LINK_PROP_NS),
            switch_latency: Nanos(costs::SWITCH_LATENCY_NS),
            switch_buffer_bytes: 4 * 1024 * 1024,
            best_effort_buffer_fraction: 0.8,
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            nic_dma: Nanos(costs::NIC_DMA_NS),
            seed: 0xF0CA_CC1A,
        }
    }
}

/// Fabric counters.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Packets delivered to a destination NIC.
    pub delivered: u64,
    /// Packets dropped at a full switch egress buffer.
    pub switch_drops: u64,
    /// Packets dropped by random loss injection.
    pub random_drops: u64,
    /// Packets dropped at the switch because their src/dst pair was
    /// partitioned.
    pub partition_drops: u64,
    /// Packets whose payload was corrupted in flight (they continue to
    /// the destination, where the CRC check rejects them).
    pub corrupted: u64,
    /// Packets silently dropped by a per-link gray loss fault.
    pub lossy_drops: u64,
    /// PFC pause storms injected against egress ports.
    pub pauses: u64,
    /// Packets rerouted around a quarantined link via an alternate path.
    pub rerouted: u64,
    /// Best-effort packets shed on a quarantined link (degraded mode
    /// sheds the best-effort class first, §2.5).
    pub quarantine_sheds: u64,
    /// Packets dropped by a browned-out leaf switch (topology fault).
    pub brownout_drops: u64,
    /// Cross-rack packets dropped because no spine with live trunks to
    /// both leaves remained (topology fault).
    pub trunk_down_drops: u64,
}

/// Why packets destined to one host were lost — the per-host drop
/// breakdown surfaced through [`FabricHandle::drop_reasons`]. Combines
/// switch-side fault-injection counters with the destination NIC's own
/// receive-path drop counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropReasons {
    /// Packets the NIC rejected because the end-to-end CRC failed.
    pub crc_bad: u64,
    /// Packets dropped at the switch by an active fabric partition.
    pub partition: u64,
    /// Packets whose payload the fabric corrupted in flight.
    pub corruption: u64,
    /// Packets dropped because the target rx ring was full.
    pub no_buffer: u64,
    /// Packets silently dropped by a gray lossy-link fault. No CRC
    /// evidence reaches the receiver — only probing or retransmit
    /// telemetry surfaces these.
    pub lossy: u64,
    /// Best-effort packets shed because their link was quarantined.
    pub quarantined: u64,
    /// Packets dropped by a browned-out leaf switch on the path.
    pub brownout: u64,
    /// Cross-rack packets dropped for want of a live trunk path.
    pub trunk_down: u64,
}

impl DropReasons {
    /// Total drops across all reasons.
    pub fn total(&self) -> u64 {
        self.crc_bad
            + self.partition
            + self.corruption
            + self.no_buffer
            + self.lossy
            + self.quarantined
            + self.brownout
            + self.trunk_down
    }
}

/// Per-destination-host fault-injection drop counters kept by the
/// fabric (the NIC keeps its own receive-path counters).
#[derive(Debug, Clone, Copy, Default)]
struct HostFaultDrops {
    partition: u64,
    corruption: u64,
    lossy: u64,
    quarantined: u64,
    brownout: u64,
    trunk_down: u64,
}

/// Per-directed-link (`src -> dst`) traffic and drop counters, surfaced
/// through [`FabricHandle::link_stats`]. Directed so telemetry can tell
/// which side of an asymmetric partition is black-holing traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Wire bytes delivered `src -> dst` (for utilization gauges).
    pub bytes: u64,
    /// Packets delivered `src -> dst`.
    pub delivered: u64,
    /// Packets `src -> dst` dropped by a partition (symmetric or
    /// one-way) at the switch.
    pub partition_drops: u64,
    /// Packets `src -> dst` corrupted in flight (they still burn
    /// bandwidth; the destination NIC CRC-rejects them).
    pub corrupted: u64,
    /// Packets `src -> dst` silently dropped by a gray lossy-link
    /// fault (no CRC evidence at the receiver).
    pub lossy_drops: u64,
    /// Packets `src -> dst` delayed by an injected jitter fault.
    pub jittered: u64,
    /// Total extra delay (ns) the jitter fault added on this link —
    /// `jitter_ns / jittered` is the mean injected delay.
    pub jitter_ns: u64,
    /// Packets rerouted around this link while it was quarantined.
    pub rerouted: u64,
    /// Best-effort packets shed on this link while quarantined.
    pub quarantine_sheds: u64,
}

/// Per-directed-trunk (`leaf -> spine` or `spine -> leaf`) traffic and
/// drop counters, surfaced through [`FabricHandle::trunks`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrunkStats {
    /// Wire bytes forwarded over the trunk (for utilization gauges).
    pub bytes: u64,
    /// Packets forwarded over the trunk.
    pub forwarded: u64,
    /// Packets tail-dropped at the trunk's egress buffer.
    pub drops: u64,
}

/// Verdict of the switch-ingress fault pipeline for one packet.
struct IngressPass {
    /// The packet is taking an alternate path around a quarantined
    /// link (cross-rack: a different ECMP spine; in-rack: a relay via
    /// a third host port pair).
    rerouted: bool,
    /// Extra delay accumulated at ingress (gray jitter, reroute hops,
    /// brownout latency) — applied at the first serialization point.
    extra: Nanos,
}

/// A switch egress port: a leaf's host-facing port toward a host, or
/// the sending end of a directed trunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    Host(HostId),
    Trunk(SwitchId, SwitchId),
}

/// One host's NIC and the two serialization points that belong to it:
/// its uplink into the leaf, and the leaf's egress port toward it.
struct HostPort {
    nic: VirtNic,
    /// When the uplink finishes serializing what it was handed.
    uplink_busy: Nanos,
    egress: PortLanes,
}

/// The fabric: NICs, uplinks, and the switching tier (one leaf per
/// rack, optionally joined by spines).
pub struct Fabric {
    cfg: FabricConfig,
    topo: Topology,
    /// Every host, indexed by its dense [`HostId`].
    hosts: Vec<HostPort>,
    /// Hosts added per rack — the in-rack alternate-path census used
    /// by quarantine rerouting.
    hosts_in_rack: HashMap<u32, u32>,
    /// Egress serialization state per directed trunk link.
    trunk_ports: HashMap<(SwitchId, SwitchId), PortLanes>,
    /// Failed trunks, keyed (leaf/rack, spine); both directions die.
    down_trunks: HashSet<(u32, u32)>,
    /// Browned-out leaf switches: rack -> (drop prob, extra latency).
    leaf_brownout: HashMap<u32, (f64, Nanos)>,
    /// Per-directed-trunk traffic/drop counters.
    trunk_stats: HashMap<(SwitchId, SwitchId), TrunkStats>,
    /// Egress-buffer drops broken down by switch and priority class —
    /// the per-hop attribution of `FabricStats::switch_drops`.
    switch_drops_by: BTreeMap<(SwitchId, QosClass), u64>,
    /// Partitioned host pairs, stored normalized (min, max).
    partitions: HashSet<(HostId, HostId)>,
    /// One-way partitions, stored directed (from, to): only packets
    /// `from -> to` are dropped.
    oneway_partitions: HashSet<(HostId, HostId)>,
    /// Per-directed-link traffic/drop counters, keyed (src, dst).
    links: HashMap<(HostId, HostId), LinkStats>,
    /// Stalled tx queues: (host, queue) -> virtual time the stall lifts.
    queue_stalls: HashMap<(HostId, u16), Nanos>,
    /// Fault-injection drops broken down by destination host.
    fault_drops: HashMap<HostId, HostFaultDrops>,
    /// Gray lossy links: (src, dst) -> silent per-packet drop prob.
    lossy_links: HashMap<(HostId, HostId), f64>,
    /// Gray jittery links: (src, dst) -> (median extra delay, sigma).
    jitter_links: HashMap<(HostId, HostId), (Nanos, f64)>,
    /// Quarantined directed links (health-detector verdicts): traffic
    /// reroutes via an alternate path when one exists, and best-effort
    /// traffic is shed.
    quarantined_links: HashSet<(HostId, HostId)>,
    /// PFC pause storms: dst host -> time the switch may serialize
    /// toward it again.
    paused_until: HashMap<HostId, Nanos>,
    rng: Rng,
    /// Dedicated RNG stream for gray-fault draws (per-link loss,
    /// jitter). Separate from `rng` so attaching a gray fault to one
    /// link never perturbs the draw order — and thus the modeled
    /// outcome — of unrelated traffic, and a healthy run with the gray
    /// machinery present is bit-identical to one without it.
    gray_rng: Rng,
    stats: FabricStats,
    /// Trace recorder for causal op tracing. Observation-only: stamps
    /// stage records against packets that carry a trace context but
    /// never changes timing, RNG draws, or drop decisions.
    recorder: Option<TraceRecorder>,
    /// Reusable buffer for the rx queues a delivered train interrupts.
    irq_buf: Vec<u16>,
}

fn norm_pair(a: HostId, b: HostId) -> (HostId, HostId) {
    (a.min(b), a.max(b))
}

impl Fabric {
    fn new(cfg: FabricConfig, topo: Topology) -> Self {
        let rng = Rng::new(cfg.seed);
        let gray_rng = Rng::new(cfg.seed).stream(0x6a77_e25d);
        Fabric {
            cfg,
            topo,
            hosts: Vec::new(),
            hosts_in_rack: HashMap::default(),
            trunk_ports: HashMap::default(),
            down_trunks: HashSet::default(),
            leaf_brownout: HashMap::default(),
            trunk_stats: HashMap::default(),
            switch_drops_by: BTreeMap::new(),
            partitions: HashSet::default(),
            oneway_partitions: HashSet::default(),
            links: HashMap::default(),
            queue_stalls: HashMap::default(),
            fault_drops: HashMap::default(),
            lossy_links: HashMap::default(),
            jitter_links: HashMap::default(),
            quarantined_links: HashSet::default(),
            paused_until: HashMap::default(),
            rng,
            gray_rng,
            stats: FabricStats::default(),
            recorder: None,
            irq_buf: Vec::new(),
        }
    }

    fn add_host(&mut self, nic_cfg: NicConfig) -> HostId {
        let id = self.hosts.len() as HostId;
        assert!(
            u64::from(id) < self.topo.capacity(),
            "host {id} exceeds topology capacity {}",
            self.topo.capacity()
        );
        self.hosts.push(HostPort {
            nic: VirtNic::new(nic_cfg),
            uplink_busy: Nanos::ZERO,
            egress: PortLanes::default(),
        });
        *self.hosts_in_rack.entry(self.topo.rack_of(id)).or_insert(0) += 1;
        id
    }

    fn host(&self, id: HostId) -> Option<&HostPort> {
        self.hosts.get(id as usize)
    }

    fn host_mut(&mut self, id: HostId) -> Option<&mut HostPort> {
        self.hosts.get_mut(id as usize)
    }

    /// The switch-ingress fault pipeline at the *source leaf*: random
    /// loss, partition, quarantine shed/reroute, gray loss, in-flight
    /// corruption, gray jitter, leaf brownout. Returns `None` when the
    /// packet is dropped, otherwise the reroute verdict plus any extra
    /// delay to fold into the first serialization point.
    ///
    /// Runs packet by packet in train order, for in-rack and cross-rack
    /// traffic alike, so fault injection inside a train behaves exactly
    /// as it would for the same packets sent one at a time (same RNG
    /// draw order, same counters).
    fn ingress_admit(&mut self, now: Nanos, pkt: &mut Packet) -> Option<IngressPass> {
        let src_rack = self.topo.rack_of(pkt.src);
        let leaf = self.topo.trace_host(SwitchId::Leaf(src_rack));
        self.stamp(pkt, Stage::SwitchArrive, leaf, now);
        // Leaf brownout (topology fault): a sick top-of-rack switch
        // drops a fraction of everything transiting it and delays the
        // rest. Drawn from the gray stream so a healthy fabric's draw
        // order is untouched.
        let mut extra = Nanos::ZERO;
        if let Some(&(drop_prob, bo_extra)) = self.leaf_brownout.get(&src_rack) {
            if self.gray_rng.chance(drop_prob) {
                self.stats.brownout_drops += 1;
                self.fault_drops.entry(pkt.dst).or_default().brownout += 1;
                self.stamp(pkt, Stage::WireDrop, leaf, now);
                return None;
            }
            extra += bo_extra;
        }
        // Random loss injection.
        if self.cfg.loss_prob > 0.0 && self.rng.chance(self.cfg.loss_prob) {
            self.stats.random_drops += 1;
            self.stamp(pkt, Stage::WireDrop, leaf, now);
            return None;
        }
        // Partition: the switch forwards nothing between a symmetric
        // partitioned pair, and nothing in the dead direction of a
        // one-way partition. Drops are counted per directed link so
        // telemetry can tell which direction is black-holing.
        if self.partitions.contains(&norm_pair(pkt.src, pkt.dst))
            || self.oneway_partitions.contains(&(pkt.src, pkt.dst))
        {
            self.stats.partition_drops += 1;
            self.fault_drops.entry(pkt.dst).or_default().partition += 1;
            self.links.entry((pkt.src, pkt.dst)).or_default().partition_drops += 1;
            self.stamp(pkt, Stage::WireDrop, leaf, now);
            return None;
        }
        // Quarantine (a health-detector verdict, not a fault): where an
        // alternate path exists, traffic reroutes around the sick link
        // and skips its gray faults. In-rack the alternate is a relay
        // via any third host's ToR port pair (one extra switch hop);
        // cross-rack it is a different equal-cost spine (no extra
        // cost). Best-effort traffic is shed first rather than rerouted
        // (degraded mode sheds the best-effort class, reusing the QoS
        // split). With no alternate — a two-host rack, a single spine —
        // transport traffic soldiers on over the sick link.
        let same_rack = self.topo.same_rack(pkt.src, pkt.dst);
        let quarantined = self.quarantined_links.contains(&(pkt.src, pkt.dst));
        if quarantined && pkt.qos == QosClass::BestEffort {
            self.stats.quarantine_sheds += 1;
            self.fault_drops.entry(pkt.dst).or_default().quarantined += 1;
            self.links.entry((pkt.src, pkt.dst)).or_default().quarantine_sheds += 1;
            self.stamp(pkt, Stage::WireDrop, leaf, now);
            return None;
        }
        let rerouted = quarantined
            && if same_rack {
                self.hosts_in_rack.get(&src_rack).copied().unwrap_or(0) > 2
            } else {
                self.topo.spines() > 1
            };
        if rerouted {
            self.stats.rerouted += 1;
            self.links.entry((pkt.src, pkt.dst)).or_default().rerouted += 1;
        }
        // Gray loss: the link silently eats the packet — no CRC
        // evidence ever reaches the receiver, unlike corruption below.
        // Drawn from the dedicated gray RNG stream so healthy links'
        // draw order is untouched.
        if !rerouted {
            if let Some(&prob) = self.lossy_links.get(&(pkt.src, pkt.dst)) {
                if self.gray_rng.chance(prob) {
                    self.stats.lossy_drops += 1;
                    self.fault_drops.entry(pkt.dst).or_default().lossy += 1;
                    self.links.entry((pkt.src, pkt.dst)).or_default().lossy_drops += 1;
                    self.stamp(pkt, Stage::WireDrop, leaf, now);
                    return None;
                }
            }
        }
        // Payload corruption: flip one bit, leave the CRC stale; the
        // packet still travels and burns bandwidth, but the destination
        // NIC rejects it.
        if self.cfg.corrupt_prob > 0.0
            && !pkt.payload.is_empty()
            && self.rng.chance(self.cfg.corrupt_prob)
        {
            let byte = self.rng.below(pkt.payload.len() as u64) as usize;
            let bit = self.rng.below(8) as u8;
            pkt.corrupt(byte, bit);
            self.stats.corrupted += 1;
            self.fault_drops.entry(pkt.dst).or_default().corruption += 1;
            self.links.entry((pkt.src, pkt.dst)).or_default().corrupted += 1;
            self.stamp(pkt, Stage::WireCorrupt, leaf, now);
        }
        // Gray jitter: a misbehaving port delays rather than drops.
        // The extra delay is log-normal (median/sigma from the fault),
        // drawn from the gray stream, and attributed per link.
        if !rerouted {
            if let Some(&(median, sigma)) = self.jitter_links.get(&(pkt.src, pkt.dst)) {
                if !median.is_zero() {
                    let d = snap_sim::dist::log_normal(
                        &mut self.gray_rng,
                        median.as_nanos() as f64,
                        sigma,
                    ) as u64;
                    extra += Nanos(d);
                    let link = self.links.entry((pkt.src, pkt.dst)).or_default();
                    link.jittered += 1;
                    link.jitter_ns += d;
                }
            }
        }
        // An in-rack rerouted packet pays one extra switch traversal +
        // two extra link hops to relay through the alternate port pair.
        // A cross-rack reroute rides a different equal-cost spine: no
        // extra delay here.
        if rerouted && same_rack {
            extra += self.cfg.switch_latency + self.cfg.prop_delay * 2;
        }
        Some(IngressPass { rerouted, extra })
    }

    /// Buffer admission + serialization at a switch egress port.
    /// Returns the departure time, or `None` on a tail drop, counted
    /// into [`FabricStats::switch_drops`] against the switch that owns
    /// the port. A packet for a host that does not exist is routed to a
    /// black hole and dropped the same way.
    fn egress_admit(
        &mut self,
        port: Port,
        now: Nanos,
        pkt: &Packet,
        extra: Nanos,
    ) -> Option<Nanos> {
        let spec = self.topo.spec();
        let (switch, buffer, gbps, not_before) = match port {
            Port::Host(dst) => (
                SwitchId::Leaf(self.topo.rack_of(dst)),
                self.cfg.switch_buffer_bytes,
                self.host(dst).map(|h| h.nic.config().gbps),
                // A PFC pause storm against the destination holds
                // egress serialization until the storm passes; admitted
                // packets keep occupying the buffer meanwhile, so
                // sustained load during a storm spills into buffer-full
                // drops — the §5.4 pathology.
                self.paused_until.get(&dst).copied().unwrap_or(Nanos::ZERO),
            ),
            Port::Trunk(from, _) => {
                (from, spec.trunk_buffer_bytes, Some(spec.trunk_gbps), Nanos::ZERO)
            }
        };
        let limit = match pkt.qos {
            QosClass::Transport => buffer,
            QosClass::BestEffort => (buffer as f64 * self.cfg.best_effort_buffer_fraction) as u64,
        };
        let schedule = spec.schedule;
        let earliest = (now + self.cfg.switch_latency).max(not_before);
        let trace = self.topo.trace_host(switch);
        let wire = pkt.wire_size as u64;
        let dep = match (gbps, self.port_mut(port)) {
            (Some(gbps), Some(lanes)) if lanes.queued_bytes + wire <= limit => {
                lanes.queued_bytes += wire;
                let ser = transmit_time(wire, gbps) + extra;
                schedule.depart(lanes, prio(pkt.qos), earliest, ser)
            }
            _ => {
                self.stats.switch_drops += 1;
                *self.switch_drops_by.entry((switch, pkt.qos)).or_insert(0) += 1;
                if let Port::Trunk(from, to) = port {
                    self.trunk_stats.entry((from, to)).or_default().drops += 1;
                }
                self.stamp(pkt, Stage::WireDrop, trace, now);
                return None;
            }
        };
        if let Port::Trunk(from, to) = port {
            let stats = self.trunk_stats.entry((from, to)).or_default();
            stats.bytes += wire;
            stats.forwarded += 1;
        }
        self.stamp(pkt, Stage::SwitchDepart, trace, dep);
        Some(dep)
    }

    /// The serialization state of an egress port (a trunk port is
    /// created on first use), or `None` for a host that does not exist.
    fn port_mut(&mut self, port: Port) -> Option<&mut PortLanes> {
        match port {
            Port::Host(dst) => self.host_mut(dst).map(|h| &mut h.egress),
            Port::Trunk(from, to) => Some(self.trunk_ports.entry((from, to)).or_default()),
        }
    }

    /// Counts a cross-rack packet dropped for want of any live trunk
    /// path between its leaves.
    fn drop_trunk_down(&mut self, now: Nanos, pkt: &Packet) {
        let leaf = self.topo.trace_host(SwitchId::Leaf(self.topo.rack_of(pkt.src)));
        self.stats.trunk_down_drops += 1;
        self.fault_drops.entry(pkt.dst).or_default().trunk_down += 1;
        self.stamp(pkt, Stage::WireDrop, leaf, now);
    }

    /// Stamps one stage record against the packet's trace context, if
    /// both the context and a recorder are present. Pure observation.
    fn stamp(&self, pkt: &Packet, stage: Stage, host: HostId, at: Nanos) {
        if let (Some(ctx), Some(rec)) = (pkt.trace, self.recorder.as_ref()) {
            rec.record(ctx, stage, host, at);
        }
    }
}

/// Cloneable handle to a shared [`Fabric`]; the public API.
#[derive(Clone)]
pub struct FabricHandle {
    inner: Rc<RefCell<Fabric>>,
}

/// Why [`FabricHandle::transmit`] handed its packet back.
#[derive(Debug)]
pub enum TxError {
    /// The source NIC has no free tx descriptor slot; the caller can
    /// regenerate the packet later (just-in-time transmission, §3.1).
    Busy(Packet),
    /// The packet's source host is not on this fabric.
    UnknownHost(Packet),
}

/// Error returned by [`FabricHandle::transmit_burst`] when the train's
/// source host is not on this fabric; every packet stays with the
/// caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownHost(pub HostId);

impl FabricHandle {
    /// Creates an empty single-switch fabric — the degenerate
    /// [`ClosSpec::single_rack`] topology every pre-topology experiment
    /// ran on.
    pub fn new(cfg: FabricConfig) -> Self {
        FabricHandle::with_topology(cfg, ClosSpec::single_rack())
    }

    /// Creates an empty fabric over the given Clos topology.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation ([`ClosSpec::compile`]).
    pub fn with_topology(cfg: FabricConfig, spec: ClosSpec) -> Self {
        let topo = spec.compile().expect("invalid topology spec");
        FabricHandle {
            inner: Rc::new(RefCell::new(Fabric::new(cfg, topo))),
        }
    }

    /// The compiled topology this fabric routes through.
    pub fn topology(&self) -> Topology {
        self.inner.borrow().topo.clone()
    }

    /// Fails the bidirectional trunk between a leaf (rack) and a spine:
    /// ECMP stops hashing flows onto it, and packets already committed
    /// to the spine are dropped there. Idempotent.
    pub fn fail_trunk(&self, leaf: u32, spine: u32) {
        self.inner.borrow_mut().down_trunks.insert((leaf, spine));
    }

    /// Restores a failed trunk. Idempotent.
    pub fn restore_trunk(&self, leaf: u32, spine: u32) {
        self.inner.borrow_mut().down_trunks.remove(&(leaf, spine));
    }

    /// True if the leaf↔spine trunk is currently failed.
    pub fn is_trunk_down(&self, leaf: u32, spine: u32) -> bool {
        self.inner.borrow().down_trunks.contains(&(leaf, spine))
    }

    /// Browns out a leaf switch: every packet transiting rack `rack`'s
    /// leaf is dropped with `drop_prob` and survivors pick up `extra`
    /// latency. `drop_prob == 0` heals the leaf. Draws come from the
    /// gray RNG stream, so healthy racks' modeled outcomes are
    /// untouched.
    pub fn set_leaf_brownout(&self, rack: u32, drop_prob: f64, extra: Nanos) {
        let mut fabric = self.inner.borrow_mut();
        if drop_prob > 0.0 || !extra.is_zero() {
            fabric
                .leaf_brownout
                .insert(rack, (drop_prob.clamp(0.0, 1.0), extra));
        } else {
            fabric.leaf_brownout.remove(&rack);
        }
    }

    /// Traffic/drop counters for the directed trunk `from -> to`.
    /// Zeroed stats for a trunk that never carried or dropped a packet.
    pub fn trunk_stats(&self, from: SwitchId, to: SwitchId) -> TrunkStats {
        self.inner
            .borrow()
            .trunk_stats
            .get(&(from, to))
            .copied()
            .unwrap_or_default()
    }

    /// Every directed trunk with any activity, sorted for deterministic
    /// iteration, with its counters.
    pub fn trunks(&self) -> Vec<((SwitchId, SwitchId), TrunkStats)> {
        let fabric = self.inner.borrow();
        let mut out: Vec<_> = fabric.trunk_stats.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Egress-buffer drops broken down by switch and priority class —
    /// the per-hop attribution of [`FabricStats::switch_drops`]
    /// (entries sum to it). Sorted: leaves first, then spines.
    pub fn switch_drop_breakdown(&self) -> Vec<((SwitchId, QosClass), u64)> {
        self.inner
            .borrow()
            .switch_drops_by
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Adds a host with the given NIC configuration; returns its id.
    pub fn add_host(&self, nic_cfg: NicConfig) -> HostId {
        self.inner.borrow_mut().add_host(nic_cfg)
    }

    /// Number of hosts on the fabric.
    pub fn num_hosts(&self) -> usize {
        self.inner.borrow().hosts.len()
    }

    /// Fabric counters snapshot.
    pub fn stats(&self) -> FabricStats {
        self.inner.borrow().stats.clone()
    }

    /// Installs the trace recorder the fabric stamps stage records
    /// into: NIC tx uplink clear, switch arrival/departure, in-flight
    /// drops and corruption, and final NIC delivery. Stamping is pure
    /// observation — modeled time is identical with or without it.
    pub fn set_recorder(&self, recorder: TraceRecorder) {
        self.inner.borrow_mut().recorder = Some(recorder);
    }

    /// Sets the random loss probability (failure injection).
    pub fn set_loss_prob(&self, p: f64) {
        self.inner.borrow_mut().cfg.loss_prob = p.clamp(0.0, 1.0);
    }

    /// Sets the per-packet payload-corruption probability (failure
    /// injection). Corrupted packets carry a stale CRC and are rejected
    /// by the destination NIC's receive path.
    pub fn set_corrupt_prob(&self, p: f64) {
        self.inner.borrow_mut().cfg.corrupt_prob = p.clamp(0.0, 1.0);
    }

    /// Partitions the fabric between `a` and `b`: packets in either
    /// direction are dropped at the switch until [`FabricHandle::heal`].
    /// Idempotent.
    pub fn partition(&self, a: HostId, b: HostId) {
        self.inner.borrow_mut().partitions.insert(norm_pair(a, b));
    }

    /// Heals a partition between `a` and `b`. Idempotent; harmless if
    /// the pair was never partitioned.
    pub fn heal(&self, a: HostId, b: HostId) {
        self.inner.borrow_mut().partitions.remove(&norm_pair(a, b));
    }

    /// Returns true if `a` and `b` are currently partitioned.
    pub fn is_partitioned(&self, a: HostId, b: HostId) -> bool {
        self.inner.borrow().partitions.contains(&norm_pair(a, b))
    }

    /// Asymmetric partition: drops only packets `from -> to` at the
    /// switch; the reverse direction keeps flowing (a gray failure —
    /// acks arrive, data does not). Idempotent; independent of any
    /// symmetric partition on the same pair.
    pub fn partition_oneway(&self, from: HostId, to: HostId) {
        self.inner.borrow_mut().oneway_partitions.insert((from, to));
    }

    /// Heals a one-way partition `from -> to`. Idempotent.
    pub fn heal_oneway(&self, from: HostId, to: HostId) {
        self.inner.borrow_mut().oneway_partitions.remove(&(from, to));
    }

    /// Returns true if packets `from -> to` are currently dropped by a
    /// one-way partition (does not consider symmetric partitions).
    pub fn is_partitioned_oneway(&self, from: HostId, to: HostId) -> bool {
        self.inner.borrow().oneway_partitions.contains(&(from, to))
    }

    /// Sets (or, with `prob == 0`, heals) a *gray* loss fault on the
    /// directed link `from -> to`: packets are silently dropped with
    /// probability `prob`, with no CRC evidence at the receiver.
    pub fn set_link_loss(&self, from: HostId, to: HostId, prob: f64) {
        let mut fabric = self.inner.borrow_mut();
        if prob > 0.0 {
            fabric.lossy_links.insert((from, to), prob.clamp(0.0, 1.0));
        } else {
            fabric.lossy_links.remove(&(from, to));
        }
    }

    /// Sets (or, with a zero `median`, heals) a jitter fault on the
    /// directed link `from -> to`: each packet picks up a log-normal
    /// extra delay with the given median and sigma.
    pub fn set_link_jitter(&self, from: HostId, to: HostId, median: Nanos, sigma: f64) {
        let mut fabric = self.inner.borrow_mut();
        if median.is_zero() {
            fabric.jitter_links.remove(&(from, to));
        } else {
            fabric.jitter_links.insert((from, to), (median, sigma.max(0.0)));
        }
    }

    /// Injects a PFC pause storm against `host`: the switch stops
    /// serializing toward it until absolute time `until` (§5.4's
    /// pause-frame pathology). Storms extend, never shorten, an
    /// existing pause.
    pub fn pause_host(&self, host: HostId, until: Nanos) {
        let mut fabric = self.inner.borrow_mut();
        let entry = fabric.paused_until.entry(host).or_insert(Nanos::ZERO);
        *entry = (*entry).max(until);
        fabric.stats.pauses += 1;
    }

    /// Quarantines the directed link `from -> to` (a health-detector
    /// verdict): transport traffic reroutes via an alternate path when
    /// one exists (any third host), paying one extra switch hop but
    /// dodging the link's gray faults; best-effort traffic is shed.
    /// Idempotent.
    pub fn quarantine_link(&self, from: HostId, to: HostId) {
        self.inner.borrow_mut().quarantined_links.insert((from, to));
    }

    /// Lifts a quarantine on the directed link `from -> to`. Idempotent.
    pub fn clear_quarantine(&self, from: HostId, to: HostId) {
        self.inner.borrow_mut().quarantined_links.remove(&(from, to));
    }

    /// True if the directed link `from -> to` is quarantined.
    pub fn is_quarantined(&self, from: HostId, to: HostId) -> bool {
        self.inner.borrow().quarantined_links.contains(&(from, to))
    }

    /// Traffic/drop counters for the directed link `from -> to`.
    /// Zeroed stats for a link that never carried or dropped a packet.
    pub fn link_stats(&self, from: HostId, to: HostId) -> LinkStats {
        self.inner
            .borrow()
            .links
            .get(&(from, to))
            .copied()
            .unwrap_or_default()
    }

    /// Every directed link with any activity, sorted (src, dst) for
    /// deterministic iteration, with its counters.
    pub fn links(&self) -> Vec<((HostId, HostId), LinkStats)> {
        let fabric = self.inner.borrow();
        let mut out: Vec<_> = fabric.links.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Line rate (Gbps) of a host's NIC, if the host exists — the
    /// denominator for link-utilization gauges.
    pub fn host_gbps(&self, host: HostId) -> Option<f64> {
        self.inner.borrow().host(host).map(|h| h.nic.config().gbps)
    }

    /// Stalls a host's tx queue until absolute time `until` (models a
    /// hung DMA channel): packets transmitted on it during the stall
    /// wait for the stall to lift before serialization starts.
    pub fn stall_queue_until(&self, host: HostId, queue: u16, until: Nanos) {
        let mut fabric = self.inner.borrow_mut();
        let entry = fabric.queue_stalls.entry((host, queue)).or_insert(Nanos::ZERO);
        *entry = (*entry).max(until);
    }

    /// The per-host drop breakdown: switch-side fault drops plus the
    /// destination NIC's own receive-path drop counters.
    pub fn drop_reasons(&self, host: HostId) -> DropReasons {
        let fabric = self.inner.borrow();
        let fault = fabric.fault_drops.get(&host).copied().unwrap_or_default();
        let (crc_bad, no_buffer) = fabric
            .host(host)
            .map(|h| (h.nic.stats().rx_crc_drops, h.nic.stats().rx_overflow_drops))
            .unwrap_or((0, 0));
        DropReasons {
            crc_bad,
            partition: fault.partition,
            corruption: fault.corruption,
            no_buffer,
            lossy: fault.lossy,
            quarantined: fault.quarantined,
            brownout: fault.brownout,
            trunk_down: fault.trunk_down,
        }
    }

    /// Runs `f` with mutable access to a host's NIC.
    ///
    /// # Panics
    ///
    /// Panics if the host does not exist, or if called re-entrantly
    /// from within another fabric borrow.
    pub fn with_nic<R>(&self, host: HostId, f: impl FnOnce(&mut VirtNic) -> R) -> R {
        let mut fabric = self.inner.borrow_mut();
        let host = fabric.host_mut(host).expect("unknown host");
        f(&mut host.nic)
    }

    /// Transmits a packet from its `src` host on the given tx queue, as
    /// a one-packet train through [`Self::transmit_burst`].
    ///
    /// Hands the packet back in [`TxError::Busy`] when no tx descriptor
    /// slot is free, and in [`TxError::UnknownHost`] when the source
    /// host does not exist. On success the packet is fully simulated:
    /// uplink serialization, switch queueing (or drop), egress
    /// serialization, delivery into the destination NIC's rx ring, and
    /// interrupt delivery if armed.
    pub fn transmit(&self, sim: &mut Sim, queue: u16, pkt: Packet) -> Result<(), TxError> {
        let mut train = vec![pkt];
        let sent = self.transmit_burst(sim, queue, &mut train);
        match (sent, train.pop()) {
            (_, None) => Ok(()),
            (Ok(_), Some(pkt)) => Err(TxError::Busy(pkt)),
            (Err(UnknownHost(_)), Some(pkt)) => Err(TxError::UnknownHost(pkt)),
        }
    }

    /// Transmits a packet train from one host on one tx queue,
    /// coalescing fixed simulation work: ONE scheduled event covers the
    /// whole train at each hop (uplink completion, switch arrival, and
    /// one egress departure per sub-train), and the receiving NIC
    /// raises at most one interrupt per rx queue per train. Per-packet
    /// *semantics* are unchanged: tx descriptor slots, uplink
    /// serialization occupancy, random loss, partitions, corruption and
    /// egress buffer admission are all applied packet by packet in
    /// train order.
    ///
    /// Packets are accepted until tx slots run out; the accepted count
    /// is returned and unaccepted packets stay in `pkts`
    /// (front-aligned), for the caller to regenerate later. When every
    /// packet is accepted, the train takes `pkts`' buffer and leaves
    /// `pkts` empty with no capacity. A source host that does not exist
    /// is an [`UnknownHost`] error, with every packet left in `pkts`.
    ///
    /// The whole train becomes visible at the switch when its *last*
    /// packet finishes uplink serialization (and at the next hop when
    /// its sub-train finishes egress serialization), so a packet's
    /// arrival can shift later by at most one train serialization time
    /// relative to sending it alone — bound the train with
    /// [`costs::FABRIC_BURST_MAX`].
    ///
    /// # Panics
    ///
    /// Panics if the packets do not all share the same source host.
    pub fn transmit_burst(
        &self,
        sim: &mut Sim,
        queue: u16,
        pkts: &mut Vec<Packet>,
    ) -> Result<usize, UnknownHost> {
        let Some(first) = pkts.first() else { return Ok(0) };
        let src = first.src;
        let (depart_uplink, train) = {
            let mut guard = self.inner.borrow_mut();
            let fabric = &mut *guard;
            let dma_ready = sim.now() + fabric.cfg.nic_dma;
            // A stalled queue holds its packets until the stall lifts,
            // but does not occupy the shared uplink while waiting —
            // other queues' traffic flows around the hung queue.
            let stall = fabric
                .queue_stalls
                .get(&(src, queue))
                .copied()
                .filter(|&until| until > sim.now())
                .unwrap_or(Nanos::ZERO);
            let Some(host) = fabric.hosts.get_mut(src as usize) else {
                return Err(UnknownHost(src));
            };
            let mut taken = 0;
            for pkt in pkts.iter() {
                assert_eq!(pkt.src, src, "burst mixes source hosts");
                if !host.nic.take_tx_slot(queue) {
                    break;
                }
                taken += 1;
            }
            if taken == 0 {
                return Ok(0);
            }
            let gbps = host.nic.config().gbps;
            let mut depart = Nanos::ZERO;
            for pkt in &pkts[..taken] {
                // Tx-side DMA (descriptor fetch + payload read from
                // host memory) precedes serialization.
                let ser = transmit_time(pkt.wire_size as u64, gbps);
                host.uplink_busy = host.uplink_busy.max(dma_ready) + ser;
                // Each packet clears the uplink at its own serialization
                // end, even though one event forwards the whole train.
                let clear = host.uplink_busy.max(stall + ser);
                // Stamped in place: `Fabric::stamp` would borrow all of
                // the fabric while `host` is borrowed from it.
                if let (Some(ctx), Some(rec)) = (pkt.trace, fabric.recorder.as_ref()) {
                    rec.record(ctx, Stage::NicTx, src, clear);
                }
                depart = depart.max(clear);
            }
            let train = if taken == pkts.len() {
                std::mem::take(pkts)
            } else {
                pkts.drain(..taken).collect()
            };
            (depart, train)
        };
        let taken = train.len();
        // One event retires every tx descriptor and forwards the train
        // when the last packet clears the uplink.
        let handle = self.clone();
        sim.schedule_at(depart_uplink, move |sim| {
            handle.with_nic(src, |nic| {
                for pkt in &train {
                    nic.complete_tx(queue, pkt.wire_size);
                }
            });
            handle.arrive_at_src_leaf(sim, train);
        });
        Ok(taken)
    }

    /// Train reaches its source leaf: the ingress fault pipeline runs
    /// on every packet, then in-rack packets queue on the leaf's
    /// host-facing port toward their destination and cross-rack
    /// packets on the leaf→spine trunk that ECMP picks.
    fn arrive_at_src_leaf(&self, sim: &mut Sim, pkts: Vec<Packet>) {
        let delay = self.inner.borrow().cfg.prop_delay;
        self.switch_hop(sim, delay, pkts, |fabric, now, pkt| {
            let pass = fabric.ingress_admit(now, pkt)?;
            let port = if fabric.topo.same_rack(pkt.src, pkt.dst) {
                Port::Host(pkt.dst)
            } else {
                // Deterministic ECMP spine pick. A reroute verdict
                // re-hashes with a salt to land on a different
                // equal-cost spine.
                let salt = u64::from(pass.rerouted);
                let down = &fabric.down_trunks;
                let spine = fabric
                    .topo
                    .ecmp_spine(pkt.src, pkt.dst, pkt.rss_hash, salt, |l, s| {
                        down.contains(&(l, s))
                    });
                let Some(spine) = spine else {
                    fabric.drop_trunk_down(now, pkt);
                    return None;
                };
                Port::Trunk(
                    SwitchId::Leaf(fabric.topo.rack_of(pkt.src)),
                    SwitchId::Spine(spine),
                )
            };
            Some((port, fabric.egress_admit(port, now, pkt, pass.extra)?))
        });
    }

    /// Cross-rack train reaches a spine after trunk propagation and
    /// queues on the spine→destination-leaf trunk ports. A trunk that
    /// failed after the flow committed to this spine drops the packets
    /// here.
    fn arrive_at_spine(&self, sim: &mut Sim, spine: u32, pkts: Vec<Packet>) {
        let delay = self.inner.borrow().topo.spec().trunk_prop;
        self.switch_hop(sim, delay, pkts, move |fabric, now, pkt| {
            let from = SwitchId::Spine(spine);
            fabric.stamp(pkt, Stage::SwitchArrive, fabric.topo.trace_host(from), now);
            let rack = fabric.topo.rack_of(pkt.dst);
            if fabric.down_trunks.contains(&(rack, spine)) {
                fabric.drop_trunk_down(now, pkt);
                return None;
            }
            let port = Port::Trunk(from, SwitchId::Leaf(rack));
            Some((port, fabric.egress_admit(port, now, pkt, Nanos::ZERO)?))
        });
    }

    /// Cross-rack train reaches the destination leaf after trunk
    /// propagation: leaf brownout check, then the same host-facing
    /// egress admission in-rack traffic gets.
    fn arrive_at_dst_leaf(&self, sim: &mut Sim, rack: u32, pkts: Vec<Packet>) {
        let delay = self.inner.borrow().topo.spec().trunk_prop;
        self.switch_hop(sim, delay, pkts, move |fabric, now, pkt| {
            let trace = fabric.topo.trace_host(SwitchId::Leaf(rack));
            fabric.stamp(pkt, Stage::SwitchArrive, trace, now);
            let mut extra = Nanos::ZERO;
            if let Some(&(drop_prob, bo_extra)) = fabric.leaf_brownout.get(&rack) {
                if fabric.gray_rng.chance(drop_prob) {
                    fabric.stats.brownout_drops += 1;
                    fabric.fault_drops.entry(pkt.dst).or_default().brownout += 1;
                    fabric.stamp(pkt, Stage::WireDrop, trace, now);
                    return None;
                }
                extra = bo_extra;
            }
            let port = Port::Host(pkt.dst);
            Some((port, fabric.egress_admit(port, now, pkt, extra)?))
        });
    }

    /// One switch on a train's path, the step every hop shares: the
    /// train arrives after `delay`, `admit` runs on each packet in
    /// train order and names the egress port it leaves through with its
    /// departure time (or drops it), and each port's sub-train departs
    /// in one event at its last packet's departure.
    fn switch_hop(
        &self,
        sim: &mut Sim,
        delay: Nanos,
        pkts: Vec<Packet>,
        admit: impl Fn(&mut Fabric, Nanos, &mut Packet) -> Option<(Port, Nanos)> + 'static,
    ) {
        let handle = self.clone();
        sim.schedule_at(sim.now() + delay, move |sim| {
            let now = sim.now();
            let mut fabric = handle.inner.borrow_mut();
            split_train(
                pkts,
                |pkt| admit(&mut fabric, now, pkt),
                |port, departure, train| {
                    let handle = handle.clone();
                    sim.schedule_at(departure, move |sim| handle.depart(sim, port, train));
                },
            );
        });
    }

    /// A sub-train leaves an egress port: its bytes leave the port's
    /// buffer and it moves on to the next hop.
    fn depart(&self, sim: &mut Sim, port: Port, train: Vec<Packet>) {
        if let Some(lanes) = self.inner.borrow_mut().port_mut(port) {
            for pkt in &train {
                lanes.queued_bytes -= pkt.wire_size as u64;
            }
        }
        match port {
            Port::Host(_) => self.deliver_train(sim, train),
            Port::Trunk(_, SwitchId::Spine(spine)) => self.arrive_at_spine(sim, spine, train),
            Port::Trunk(_, SwitchId::Leaf(rack)) => self.arrive_at_dst_leaf(sim, rack, train),
        }
    }

    /// Final hop for a sub-train: propagation + rx DMA, then the whole
    /// train into the destination NIC's rx rings in one event, with at
    /// most one interrupt per armed rx queue.
    fn deliver_train(&self, sim: &mut Sim, pkts: Vec<Packet>) {
        let (prop, dma) = {
            let fabric = self.inner.borrow();
            (fabric.cfg.prop_delay, fabric.cfg.nic_dma)
        };
        let handle = self.clone();
        sim.schedule_at(sim.now() + prop + dma, move |sim| {
            let (irqs, handler) = {
                let mut guard = handle.inner.borrow_mut();
                let fabric = &mut *guard;
                let now = sim.now();
                for pkt in &pkts {
                    let link = fabric.links.entry((pkt.src, pkt.dst)).or_default();
                    link.bytes += pkt.wire_size as u64;
                    link.delivered += 1;
                    fabric.stamp(pkt, Stage::NicDeliver, pkt.dst, now);
                }
                // Counted per packet reaching the NIC (NIC-side drops
                // have their own counters). Egress admission already
                // dropped every packet for a host that does not exist.
                fabric.stats.delivered += pkts.len() as u64;
                let Some(host) = pkts
                    .first()
                    .and_then(|p| fabric.hosts.get_mut(p.dst as usize))
                else {
                    return;
                };
                let mut irqs = std::mem::take(&mut fabric.irq_buf);
                host.nic.deliver_burst(pkts, &mut irqs);
                (irqs, host.nic.irq_handler())
            };
            // Invoke interrupts outside the fabric borrow so handlers
            // can freely poll the NIC.
            if let Some(handler) = handler {
                for &queue in &irqs {
                    handler(sim, queue);
                }
            }
            handle.inner.borrow_mut().irq_buf = irqs;
        });
    }
}

/// Runs `admit` on each packet of a train in order and emits the
/// survivors as one sub-train per egress port, with the port's last
/// departure time. Sub-trains are emitted in first-packet order, those
/// for host-facing ports ahead of those for trunks. When every survivor
/// leaves through one port — always so for a one-packet train — the
/// sub-train is the train's own Vec.
fn split_train(
    mut pkts: Vec<Packet>,
    mut admit: impl FnMut(&mut Packet) -> Option<(Port, Nanos)>,
    mut emit: impl FnMut(Port, Nanos, Vec<Packet>),
) {
    // Survivors for the first port stay in `pkts`; others move out.
    let mut first: Option<(Port, Nanos)> = None;
    let mut others: Vec<(Port, Nanos, Vec<Packet>)> = Vec::new();
    let mut i = 0;
    while i < pkts.len() {
        match (admit(&mut pkts[i]), &mut first) {
            (None, _) => {
                pkts.remove(i);
            }
            (Some(hop), None) => {
                first = Some(hop);
                i += 1;
            }
            (Some((port, dep)), Some((first_port, last))) if port == *first_port => {
                *last = (*last).max(dep);
                i += 1;
            }
            (Some((port, dep)), Some(_)) => {
                let pkt = pkts.remove(i);
                match others.iter_mut().find(|(p, ..)| *p == port) {
                    Some((_, last, train)) => {
                        *last = (*last).max(dep);
                        train.push(pkt);
                    }
                    None => others.push((port, dep, vec![pkt])),
                }
            }
        }
    }
    let Some((port, dep)) = first else { return };
    if others.is_empty() {
        emit(port, dep, pkts);
        return;
    }
    others.insert(0, (port, dep, pkts));
    // A stable sort: emission order fixes the order of same-time
    // departure events, and so is part of the modeled schedule.
    others.sort_by_key(|&(port, ..)| matches!(port, Port::Trunk(..)));
    for (port, dep, train) in others {
        emit(port, dep, train);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::cell::Cell;

    fn two_hosts(loss: f64) -> (FabricHandle, HostId, HostId) {
        let fabric = FabricHandle::new(FabricConfig {
            loss_prob: loss,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        (fabric, a, b)
    }

    fn packet(src: HostId, dst: HostId, len: usize) -> Packet {
        Packet::new(src, dst, Bytes::from(vec![7u8; len]))
    }

    #[test]
    fn end_to_end_delivery() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.transmit(&mut sim, 0, packet(a, b, 1000)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 1);
        // Sanity on the latency: serialization (~167ns at 50G) + hops.
        let t = sim.now().as_nanos();
        assert!(t > 2_000 && t < 10_000, "delivery took {t}ns");
    }

    #[test]
    fn tx_slots_backpressure_and_recover() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig {
            tx_queue_depth: 2,
            ..NicConfig::default()
        });
        let b = fabric.add_host(NicConfig::default());
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        let third = fabric.transmit(&mut sim, 0, packet(a, b, 100));
        assert!(third.is_err(), "slots exhausted");
        sim.run();
        // Slots returned after serialization.
        assert_eq!(fabric.with_nic(a, |n| n.tx_slots_available(0)), 2);
        let Err(TxError::Busy(pkt)) = third else {
            panic!("expected a busy error, got {third:?}");
        };
        fabric.transmit(&mut sim, 0, pkt).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 3);
    }

    #[test]
    fn random_loss_drops_packets() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(1.0);
        for _ in 0..10 {
            fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
            sim.run();
        }
        assert_eq!(fabric.stats().random_drops, 10);
        assert_eq!(fabric.stats().delivered, 0);
    }

    #[test]
    fn partial_loss_statistics() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.3);
        for _ in 0..1000 {
            fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
            sim.run();
        }
        let s = fabric.stats();
        assert_eq!(s.delivered + s.random_drops, 1000);
        assert!(
            (250..350).contains(&(s.random_drops as i64)),
            "drops {} not near 30%",
            s.random_drops
        );
    }

    #[test]
    fn switch_buffer_tail_drops_under_burst() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig {
            switch_buffer_bytes: 10_000,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig {
            tx_queue_depth: 4096,
            gbps: 1000.0, // firehose ingress
            ..NicConfig::default()
        });
        let b = fabric.add_host(NicConfig {
            gbps: 1.0, // slow egress: builds the backlog
            ..NicConfig::default()
        });
        for _ in 0..200 {
            fabric.transmit(&mut sim, 0, packet(a, b, 1000)).unwrap();
        }
        sim.run();
        let s = fabric.stats();
        assert!(s.switch_drops > 0, "no drops despite tiny buffer");
        assert_eq!(s.delivered + s.switch_drops, 200);
    }

    #[test]
    fn interrupt_fires_on_armed_queue() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let fired = Rc::new(Cell::new(0u32));
        let f2 = fired.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |_sim, _q| f2.set(f2.get() + 1)));
            nic.arm_irq(0, true);
        });
        let p = packet(a, b, 64).with_rss_hash(0);
        fabric.transmit(&mut sim, 0, p).unwrap();
        sim.run();
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn serialization_orders_same_link_packets() {
        // Two packets on the same uplink serialize back-to-back; the
        // second arrives strictly later.
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let arr = arrivals.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| {
                arr.borrow_mut().push(sim.now());
            }));
            nic.arm_irq(0, true);
        });
        let big = packet(a, b, 100_000); // ~16us at 50G
        let small = packet(a, b, 100).with_rss_hash(0);
        fabric.transmit(&mut sim, 0, big.with_rss_hash(0)).unwrap();
        fabric.transmit(&mut sim, 0, small).unwrap();
        sim.run();
        let arrivals = arrivals.borrow();
        assert_eq!(arrivals.len(), 2);
        let gap = (arrivals[1] - arrivals[0]).as_nanos();
        // The small packet waited behind the big one's serialization.
        assert!(gap < 1_000, "FIFO egress should deliver close together, gap {gap}ns");
        assert!(arrivals[0].as_nanos() > 16_000, "big packet serialization time");
    }

    #[test]
    fn partition_drops_until_healed() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.partition(a, b);
        assert!(fabric.is_partitioned(a, b));
        assert!(fabric.is_partitioned(b, a), "partitions are symmetric");
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        fabric.transmit(&mut sim, 0, packet(b, a, 100)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().partition_drops, 2);
        assert_eq!(fabric.stats().delivered, 0);
        assert_eq!(fabric.drop_reasons(a).partition, 1);
        assert_eq!(fabric.drop_reasons(b).partition, 1);
        fabric.heal(a, b);
        assert!(!fabric.is_partitioned(a, b));
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 1);
    }

    #[test]
    fn oneway_partition_drops_only_one_direction() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.partition_oneway(a, b);
        assert!(fabric.is_partitioned_oneway(a, b));
        assert!(!fabric.is_partitioned_oneway(b, a), "one-way is directed");
        assert!(!fabric.is_partitioned(a, b), "not a symmetric partition");
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        fabric.transmit(&mut sim, 0, packet(b, a, 100)).unwrap();
        sim.run();
        // a -> b dead, b -> a alive.
        assert_eq!(fabric.stats().partition_drops, 1);
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.with_nic(a, |n| n.rx_pending_total()), 1);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 0);
        // The drop is attributed to the directed link a -> b only.
        assert_eq!(fabric.link_stats(a, b).partition_drops, 1);
        assert_eq!(fabric.link_stats(b, a).partition_drops, 0);
        assert_eq!(fabric.link_stats(b, a).delivered, 1);
        fabric.heal_oneway(a, b);
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 2);
        assert_eq!(fabric.link_stats(a, b).delivered, 1);
    }

    #[test]
    fn link_stats_track_directed_traffic() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        for _ in 0..3 {
            fabric.transmit(&mut sim, 0, packet(a, b, 1000)).unwrap();
        }
        fabric.transmit(&mut sim, 0, packet(b, a, 500)).unwrap();
        sim.run();
        let ab = fabric.link_stats(a, b);
        let ba = fabric.link_stats(b, a);
        assert_eq!(ab.delivered, 3);
        assert_eq!(ba.delivered, 1);
        assert!(ab.bytes >= 3000, "wire bytes include headers: {}", ab.bytes);
        assert!(ba.bytes >= 500 && ba.bytes < ab.bytes);
        let links = fabric.links();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].0, (a, b), "links sorted by (src, dst)");
        assert!(fabric.host_gbps(a).is_some());
        assert!(fabric.host_gbps(999).is_none());
    }

    #[test]
    fn corruption_is_rejected_by_receive_crc() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig {
            corrupt_prob: 1.0,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        for _ in 0..10 {
            fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        }
        sim.run();
        assert_eq!(fabric.stats().corrupted, 10);
        // Every corrupted packet reached the NIC and was CRC-rejected.
        assert_eq!(fabric.with_nic(b, |n| n.stats().rx_crc_drops), 10);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 0);
        let reasons = fabric.drop_reasons(b);
        assert_eq!(reasons.crc_bad, 10);
        assert_eq!(reasons.corruption, 10);
        assert_eq!(reasons.total(), 20);
        // Turning corruption off restores clean delivery.
        fabric.set_corrupt_prob(0.0);
        fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        sim.run();
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 1);
    }

    #[test]
    fn stalled_queue_delays_transmission() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let stall_until = Nanos::from_micros(500);
        fabric.stall_queue_until(a, 0, stall_until);
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let arr = arrivals.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| {
                arr.borrow_mut().push(sim.now());
            }));
            nic.arm_irq(0, true);
            nic.arm_irq(1, true);
        });
        // Queue 0 is stalled; queue 1 is not.
        fabric.transmit(&mut sim, 0, packet(a, b, 100).with_rss_hash(0)).unwrap();
        fabric.transmit(&mut sim, 1, packet(a, b, 100).with_rss_hash(1)).unwrap();
        sim.run();
        let arrivals = arrivals.borrow();
        assert_eq!(arrivals.len(), 2);
        let (fast, slow) = (arrivals[0], arrivals[1]);
        assert!(fast < stall_until, "unstalled queue delivered promptly at {fast}");
        assert!(slow > stall_until, "stalled queue held until {stall_until}, got {slow}");
    }

    #[test]
    fn burst_delivers_with_one_irq() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let fired = Rc::new(Cell::new(0u32));
        let f2 = fired.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |_sim, _q| f2.set(f2.get() + 1)));
            nic.arm_irq(0, true);
        });
        let mut train: Vec<Packet> =
            (0..8).map(|_| packet(a, b, 500).with_rss_hash(0)).collect();
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), Ok(8));
        assert!(train.is_empty());
        sim.run();
        assert_eq!(fabric.stats().delivered, 8);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 8);
        assert_eq!(fired.get(), 1, "one interrupt for the whole train");
    }

    #[test]
    fn burst_respects_tx_slots_and_returns_leftovers() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig {
            tx_queue_depth: 4,
            ..NicConfig::default()
        });
        let b = fabric.add_host(NicConfig::default());
        let mut train: Vec<Packet> = (0..6).map(|_| packet(a, b, 100)).collect();
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), Ok(4));
        assert_eq!(train.len(), 2, "unaccepted packets handed back");
        sim.run();
        assert_eq!(fabric.stats().delivered, 4);
        assert_eq!(fabric.with_nic(a, |n| n.tx_slots_available(0)), 4);
    }

    #[test]
    fn burst_applies_faults_per_packet() {
        // Corruption at probability 1 must hit every packet of a train
        // individually, and each one must be CRC-rejected by the NIC.
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig {
            corrupt_prob: 1.0,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        let mut train: Vec<Packet> = (0..10).map(|_| packet(a, b, 500)).collect();
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), Ok(10));
        sim.run();
        assert_eq!(fabric.stats().corrupted, 10);
        assert_eq!(fabric.with_nic(b, |n| n.stats().rx_crc_drops), 10);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 0);
        // Partition mid-experiment: a fresh train is dropped per packet
        // at the switch, not as a unit that might bypass counters.
        fabric.set_corrupt_prob(0.0);
        fabric.partition(a, b);
        let mut train: Vec<Packet> = (0..5).map(|_| packet(a, b, 100)).collect();
        fabric.transmit_burst(&mut sim, 0, &mut train).unwrap();
        sim.run();
        assert_eq!(fabric.stats().partition_drops, 5);
        assert_eq!(fabric.drop_reasons(b).partition, 5);
    }

    #[test]
    fn burst_splits_per_destination() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        let c = fabric.add_host(NicConfig::default());
        let mut train = vec![
            packet(a, b, 200),
            packet(a, c, 200),
            packet(a, b, 200),
            packet(a, c, 200),
        ];
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), Ok(4));
        sim.run();
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 2);
        assert_eq!(fabric.with_nic(c, |n| n.rx_pending_total()), 2);
        assert_eq!(fabric.stats().delivered, 4);
    }

    #[test]
    fn unknown_source_host_is_an_error_not_a_panic() {
        let mut sim = Sim::new();
        let (fabric, a, _b) = two_hosts(0.0);
        let stray = packet(999, a, 100).with_rss_hash(5);
        let Err(TxError::UnknownHost(back)) = fabric.transmit(&mut sim, 0, stray) else {
            panic!("a packet from an unknown host must be handed back");
        };
        assert_eq!((back.src, back.rss_hash), (999, 5));
        let mut train = vec![packet(999, a, 100), packet(999, a, 200)];
        assert_eq!(
            fabric.transmit_burst(&mut sim, 0, &mut train),
            Err(UnknownHost(999))
        );
        assert_eq!(train.len(), 2, "every packet stays with the caller");
        sim.run();
        assert_eq!(fabric.stats().delivered, 0);
    }

    #[test]
    fn lossy_link_drops_silently_and_attributes() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.set_link_loss(a, b, 1.0);
        for _ in 0..10 {
            fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        }
        // The reverse direction is unaffected: gray loss is directed.
        fabric.transmit(&mut sim, 0, packet(b, a, 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().lossy_drops, 10);
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.link_stats(a, b).lossy_drops, 10);
        assert_eq!(fabric.link_stats(b, a).lossy_drops, 0);
        // Silent: no CRC evidence at the receiver, unlike corruption.
        assert_eq!(fabric.with_nic(b, |n| n.stats().rx_crc_drops), 0);
        let dr = fabric.drop_reasons(b);
        assert_eq!(dr.lossy, 10);
        assert!(dr.total() >= 10);
        // Healing restores delivery.
        fabric.set_link_loss(a, b, 0.0);
        fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 2);
    }

    #[test]
    fn jittery_link_delays_but_delivers() {
        let delivery_at = |jitter: Option<(Nanos, f64)>| {
            let mut sim = Sim::new();
            let (fabric, a, b) = two_hosts(0.0);
            if let Some((median, sigma)) = jitter {
                fabric.set_link_jitter(a, b, median, sigma);
            }
            let at = Rc::new(Cell::new(Nanos::ZERO));
            let at2 = at.clone();
            fabric.with_nic(b, |nic| {
                nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| at2.set(sim.now())));
                nic.arm_irq(0, true);
            });
            fabric.transmit(&mut sim, 0, packet(a, b, 1000).with_rss_hash(0)).unwrap();
            sim.run();
            (at.get(), fabric.link_stats(a, b))
        };
        let (clean, clean_link) = delivery_at(None);
        let (jittered, link) = delivery_at(Some((Nanos::from_micros(50), 0.5)));
        assert!(clean > Nanos::ZERO && jittered > clean, "{clean} vs {jittered}");
        assert_eq!(link.jittered, 1);
        assert!(link.jitter_ns > 0);
        assert_eq!(link.delivered, 1, "jitter delays, never drops");
        assert_eq!(clean_link.jittered, 0);
    }

    #[test]
    fn healthy_runs_are_identical_with_gray_machinery_on_other_links() {
        // A gray fault on an unrelated link must not perturb this
        // link's modeled outcome: separate RNG stream, per-link draw.
        let run = |poison_other: bool| {
            let mut sim = Sim::new();
            let fabric = FabricHandle::new(FabricConfig {
                loss_prob: 0.2,
                ..FabricConfig::default()
            });
            let a = fabric.add_host(NicConfig::default());
            let b = fabric.add_host(NicConfig::default());
            let c = fabric.add_host(NicConfig::default());
            if poison_other {
                fabric.set_link_loss(a, c, 0.9);
                fabric.set_link_jitter(c, a, Nanos::from_micros(100), 1.0);
            }
            for _ in 0..200 {
                fabric.transmit(&mut sim, 0, packet(a, b, 400)).unwrap();
                sim.run();
            }
            (fabric.stats().delivered, fabric.stats().random_drops, sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn pause_storm_holds_egress_then_releases() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let storm_end = Nanos::from_micros(300);
        fabric.pause_host(b, storm_end);
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let arr = arrivals.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| {
                arr.borrow_mut().push(sim.now());
            }));
            nic.arm_irq(0, true);
        });
        fabric.transmit(&mut sim, 0, packet(a, b, 100).with_rss_hash(0)).unwrap();
        sim.run();
        // Held at the switch through the storm, delivered right after.
        let arrivals = arrivals.borrow();
        assert_eq!(arrivals.len(), 1);
        assert!(arrivals[0] > storm_end, "held past the storm: {}", arrivals[0]);
        assert!(
            arrivals[0] < storm_end + Nanos::from_micros(50),
            "released promptly: {}",
            arrivals[0]
        );
        assert_eq!(fabric.stats().pauses, 1);
    }

    #[test]
    fn pause_storm_under_load_spills_into_buffer_drops() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig {
            switch_buffer_bytes: 20_000,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig {
            tx_queue_depth: 4096,
            ..NicConfig::default()
        });
        let b = fabric.add_host(NicConfig::default());
        fabric.pause_host(b, Nanos::from_millis(5));
        for _ in 0..100 {
            fabric.transmit(&mut sim, 0, packet(a, b, 1000)).unwrap();
        }
        sim.run();
        let s = fabric.stats();
        assert!(s.switch_drops > 0, "storm backlog must spill: {s:?}");
        assert_eq!(s.delivered + s.switch_drops, 100);
    }

    #[test]
    fn quarantined_link_sheds_best_effort_and_reroutes_transport() {
        // Three hosts: an alternate path exists, so transport traffic
        // on the quarantined link reroutes (dodging its gray loss) at
        // the cost of an extra hop; best-effort is shed.
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        let _c = fabric.add_host(NicConfig::default());
        fabric.set_link_loss(a, b, 1.0);
        fabric.quarantine_link(a, b);
        assert!(fabric.is_quarantined(a, b));
        for _ in 0..5 {
            let p = packet(a, b, 500).with_qos(QosClass::Transport);
            fabric.transmit(&mut sim, 0, p).unwrap();
        }
        let be = packet(a, b, 500).with_qos(QosClass::BestEffort);
        fabric.transmit(&mut sim, 0, be).unwrap();
        sim.run();
        let s = fabric.stats();
        // Transport rerouted around the 100%-lossy link — delivered.
        assert_eq!(s.delivered, 5, "{s:?}");
        assert_eq!(s.lossy_drops, 0, "reroute dodges the gray fault");
        assert_eq!(s.rerouted, 5);
        assert_eq!(s.quarantine_sheds, 1);
        let link = fabric.link_stats(a, b);
        assert_eq!(link.rerouted, 5);
        assert_eq!(link.quarantine_sheds, 1);
        assert_eq!(fabric.drop_reasons(b).quarantined, 1);
        // Clearing the quarantine re-exposes the lossy link.
        fabric.clear_quarantine(a, b);
        fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().lossy_drops, 1);
    }

    #[test]
    fn quarantine_without_alternate_degrades_in_place() {
        // Two hosts: no alternate path. Transport keeps using the sick
        // link (degraded mode); best-effort is still shed.
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.quarantine_link(a, b);
        let tp = packet(a, b, 500).with_qos(QosClass::Transport);
        fabric.transmit(&mut sim, 0, tp).unwrap();
        let be = packet(a, b, 500).with_qos(QosClass::BestEffort);
        fabric.transmit(&mut sim, 0, be).unwrap();
        sim.run();
        let s = fabric.stats();
        assert_eq!(s.delivered, 1);
        assert_eq!(s.rerouted, 0, "no third host, no alternate path");
        assert_eq!(s.quarantine_sheds, 1);
    }

    #[test]
    fn unknown_destination_is_dropped_not_panicking() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig::default());
        fabric.transmit(&mut sim, 0, packet(a, 999, 100)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().switch_drops, 1);
        // Attributed to the (only) leaf, best-effort class.
        assert_eq!(
            fabric.switch_drop_breakdown(),
            vec![((SwitchId::Leaf(0), QosClass::BestEffort), 1)]
        );
    }

    /// Two racks of two hosts joined by `spines` spines; hosts 0,1 in
    /// rack 0 and 2,3 in rack 1.
    fn two_racks(spines: u32) -> (FabricHandle, Vec<HostId>) {
        let fabric = FabricHandle::with_topology(
            FabricConfig::default(),
            ClosSpec::clos(2, 2, spines),
        );
        let hosts = (0..4).map(|_| fabric.add_host(NicConfig::default())).collect();
        (fabric, hosts)
    }

    #[test]
    fn cross_rack_delivery_crosses_trunks() {
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(1);
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 1000)).unwrap();
        sim.run();
        let cross_at = sim.now();
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.with_nic(h[2], |n| n.rx_pending_total()), 1);
        // Both directed trunks on the path carried the packet.
        let up = fabric.trunk_stats(SwitchId::Leaf(0), SwitchId::Spine(0));
        let down = fabric.trunk_stats(SwitchId::Spine(0), SwitchId::Leaf(1));
        assert_eq!(up.forwarded, 1);
        assert_eq!(down.forwarded, 1);
        assert!(up.bytes >= 1000);
        assert_eq!(fabric.trunks().len(), 2);
        // In-rack traffic is strictly faster: one switch, no trunk hops.
        let mut sim2 = Sim::new();
        let (fabric2, h2) = two_racks(1);
        fabric2.transmit(&mut sim2, 0, packet(h2[0], h2[1], 1000)).unwrap();
        sim2.run();
        assert!(sim2.now() < cross_at, "in-rack {} vs cross-rack {cross_at}", sim2.now());
        assert!(
            fabric2.trunks().is_empty(),
            "in-rack traffic never touches the spine tier"
        );
    }

    #[test]
    fn cross_rack_is_deterministic() {
        let run = || {
            let mut sim = Sim::new();
            let (fabric, h) = two_racks(2);
            for i in 0..20u64 {
                let p = packet(h[0], h[2], 500).with_rss_hash(i);
                fabric.transmit(&mut sim, 0, p).unwrap();
                sim.run();
            }
            (sim.now(), fabric.stats().delivered)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn burst_splits_between_rack_and_trunk() {
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(1);
        let mut train: Vec<Packet> = [h[2], h[1], h[2], h[1], h[3]]
            .iter()
            .map(|&dst| packet(h[0], dst, 300))
            .collect();
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), Ok(5));
        sim.run();
        assert_eq!(fabric.stats().delivered, 5);
        assert_eq!(fabric.with_nic(h[1], |n| n.rx_pending_total()), 2);
        assert_eq!(fabric.with_nic(h[2], |n| n.rx_pending_total()), 2);
        let up = fabric.trunk_stats(SwitchId::Leaf(0), SwitchId::Spine(0));
        assert_eq!(up.forwarded, 3, "only the cross-rack packets ride the trunk");
    }

    #[test]
    fn trunk_failure_black_holes_until_restored() {
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(1);
        fabric.fail_trunk(0, 0);
        assert!(fabric.is_trunk_down(0, 0));
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500)).unwrap();
        // In-rack traffic is unaffected by a dead trunk.
        fabric.transmit(&mut sim, 0, packet(h[0], h[1], 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().trunk_down_drops, 1);
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.drop_reasons(h[2]).trunk_down, 1);
        fabric.restore_trunk(0, 0);
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 2);
    }

    #[test]
    fn trunk_failure_reroutes_flows_via_surviving_spine() {
        // With two spines, killing one trunk moves every flow onto the
        // survivor — no losses, ECMP just excludes the dead paths.
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(2);
        fabric.fail_trunk(0, 0);
        for i in 0..10u64 {
            let p = packet(h[0], h[2], 500).with_rss_hash(i);
            fabric.transmit(&mut sim, 0, p).unwrap();
        }
        sim.run();
        assert_eq!(fabric.stats().delivered, 10);
        assert_eq!(fabric.stats().trunk_down_drops, 0);
        assert_eq!(
            fabric.trunk_stats(SwitchId::Leaf(0), SwitchId::Spine(0)).forwarded,
            0,
            "no flow crossed the dead trunk"
        );
        assert_eq!(
            fabric.trunk_stats(SwitchId::Leaf(0), SwitchId::Spine(1)).forwarded,
            10
        );
    }

    #[test]
    fn quarantined_cross_rack_link_reroutes_via_other_spine() {
        // Quarantining a cross-rack host pair with >1 spine reroutes
        // transport around the sick path (salted re-hash) and dodges
        // its gray loss, with no extra-hop penalty.
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(2);
        fabric.set_link_loss(h[0], h[2], 1.0);
        fabric.quarantine_link(h[0], h[2]);
        for _ in 0..5 {
            let p = packet(h[0], h[2], 500).with_qos(QosClass::Transport);
            fabric.transmit(&mut sim, 0, p).unwrap();
        }
        sim.run();
        let s = fabric.stats();
        assert_eq!(s.delivered, 5, "{s:?}");
        assert_eq!(s.lossy_drops, 0, "reroute dodges the gray fault");
        assert_eq!(s.rerouted, 5);
    }

    #[test]
    fn leaf_brownout_drops_and_heals() {
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(1);
        fabric.set_leaf_brownout(1, 1.0, Nanos::ZERO);
        // Cross-rack into the browned-out rack: dropped at the dst leaf.
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500)).unwrap();
        // Sourced from the browned-out rack: dropped at the src leaf.
        fabric.transmit(&mut sim, 0, packet(h[2], h[3], 500)).unwrap();
        // Unrelated rack-0 traffic is untouched.
        fabric.transmit(&mut sim, 0, packet(h[0], h[1], 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().brownout_drops, 2);
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.drop_reasons(h[2]).brownout, 1);
        assert_eq!(fabric.drop_reasons(h[3]).brownout, 1);
        fabric.set_leaf_brownout(1, 0.0, Nanos::ZERO);
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 2);
    }

    #[test]
    fn brownout_latency_delays_survivors() {
        let deliver_at = |extra: Nanos| {
            let mut sim = Sim::new();
            let (fabric, h) = two_racks(1);
            fabric.set_leaf_brownout(0, 0.0, extra);
            let at = Rc::new(Cell::new(Nanos::ZERO));
            let at2 = at.clone();
            fabric.with_nic(h[2], |nic| {
                nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| at2.set(sim.now())));
                nic.arm_irq(0, true);
            });
            fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500).with_rss_hash(0)).unwrap();
            sim.run();
            at.get()
        };
        let clean = deliver_at(Nanos::ZERO);
        let slow = deliver_at(Nanos::from_micros(100));
        assert!(clean > Nanos::ZERO);
        assert_eq!(slow, clean + Nanos::from_micros(100));
    }

    #[test]
    fn incast_drops_attribute_to_destination_leaf() {
        // N:1 incast into a tiny-buffered dst leaf port: every tail
        // drop lands on Leaf(1) in the per-switch breakdown, and the
        // breakdown sums to switch_drops.
        let mut sim = Sim::new();
        let fabric = FabricHandle::with_topology(
            FabricConfig {
                switch_buffer_bytes: 4_000,
                ..FabricConfig::default()
            },
            ClosSpec::clos(2, 4, 2),
        );
        let hosts: Vec<HostId> = (0..8)
            .map(|_| {
                fabric.add_host(NicConfig {
                    tx_queue_depth: 4096,
                    ..NicConfig::default()
                })
            })
            .collect();
        let sink = hosts[4]; // rack 1
        for &src in &hosts[..4] {
            for _ in 0..50 {
                fabric.transmit(&mut sim, 0, packet(src, sink, 1000)).unwrap();
            }
        }
        sim.run();
        let s = fabric.stats();
        assert!(s.switch_drops > 0, "incast must overflow the egress buffer");
        assert_eq!(s.delivered + s.switch_drops, 200);
        let breakdown = fabric.switch_drop_breakdown();
        let total: u64 = breakdown.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, s.switch_drops, "breakdown sums to switch_drops");
        assert!(
            breakdown
                .iter()
                .all(|&((sw, _), _)| sw == SwitchId::Leaf(1)),
            "incast loss is at the destination leaf: {breakdown:?}"
        );
    }

    #[test]
    fn wrr_schedule_prefers_transport_under_contention() {
        // Saturate a host egress port with best-effort, then race one
        // transport packet against one more best-effort packet sent at
        // the same instant: under WRR the transport packet must win by
        // more than FIFO ordering would allow.
        let gap = |schedule: snap_topo::QosSchedule| {
            let mut sim = Sim::new();
            let spec = ClosSpec {
                schedule,
                ..ClosSpec::single_rack()
            };
            let fabric = FabricHandle::with_topology(FabricConfig::default(), spec);
            let a = fabric.add_host(NicConfig {
                tx_queue_depth: 4096,
                gbps: 400.0,
                ..NicConfig::default()
            });
            let b = fabric.add_host(NicConfig::default());
            let arrivals = Rc::new(RefCell::new(Vec::new()));
            let arr = arrivals.clone();
            fabric.with_nic(b, |nic| {
                nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| {
                    arr.borrow_mut().push(sim.now());
                }));
                nic.arm_irq(0, true);
            });
            // A standing best-effort backlog...
            for _ in 0..20 {
                let p = packet(a, b, 8000).with_rss_hash(0);
                fabric.transmit(&mut sim, 0, p).unwrap();
            }
            // ...then one transport packet.
            let p = packet(a, b, 8000).with_rss_hash(0).with_qos(QosClass::Transport);
            fabric.transmit(&mut sim, 0, p).unwrap();
            sim.run();
            sim.now()
        };
        let fifo = gap(snap_topo::QosSchedule::Fifo);
        let wrr = gap(snap_topo::QosSchedule::Wrr { weights: [4, 1] });
        // Both drain the same bytes; WRR conserves the line, so total
        // completion is close, but the disciplines differ measurably.
        assert!(fifo > Nanos::ZERO && wrr > Nanos::ZERO);
        assert_ne!(fifo, wrr, "WRR must change the schedule");
    }

    #[test]
    fn degenerate_topology_is_the_default() {
        let fabric = FabricHandle::new(FabricConfig::default());
        let topo = fabric.topology();
        assert!(topo.is_single_switch());
        assert_eq!(topo.spines(), 0);
        assert!(topo.same_rack(0, 1_000_000));
    }
}
