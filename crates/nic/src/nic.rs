//! The virtual multi-queue NIC.
//!
//! Models the pieces of a datacenter NIC the paper's software actually
//! interacts with:
//!
//! * bounded **rx descriptor rings** (one per queue) that engines poll
//!   in batches (§3.1);
//! * **receive-side steering**: exact-match filters first (the unit
//!   detached/attached during transparent upgrades, §4 — while a flow's
//!   filter is detached its packets are dropped, which is the paper's
//!   blackout packet loss), then RSS hashing as the fallback;
//! * **tx descriptor slot accounting**, which drives Pony Express's
//!   just-in-time packet generation ("there is no need for per-packet
//!   queueing in the engine", §3.1);
//! * optional **interrupt delivery** per queue, used by the spreading
//!   engine scheduler ("blocks on interrupt notification when idle",
//!   §2.4).

use std::collections::VecDeque;
use std::rc::Rc;

use snap_sim::hash::HashMap;
use snap_sim::Sim;

use crate::packet::Packet;

/// Interrupt callback: invoked with the simulator and the rx queue id.
pub type IrqHandler = Rc<dyn Fn(&mut Sim, u16)>;

/// Static NIC configuration.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Number of rx/tx queue pairs.
    pub num_queues: u16,
    /// Rx descriptor ring depth, in packets, per queue.
    pub rx_queue_depth: usize,
    /// Tx descriptor slots per queue.
    pub tx_queue_depth: usize,
    /// Line rate in Gbps.
    pub gbps: f64,
    /// Maximum transmission unit in bytes (payload capacity).
    pub mtu: u32,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            num_queues: 4,
            rx_queue_depth: 1024,
            tx_queue_depth: 1024,
            gbps: 50.0,
            mtu: 5000,
        }
    }
}

/// Counters exposed by the NIC.
#[derive(Debug, Clone, Default)]
pub struct NicStats {
    /// Packets handed to the fabric.
    pub tx_packets: u64,
    /// Bytes handed to the fabric (wire size).
    pub tx_bytes: u64,
    /// Packets delivered into rx rings.
    pub rx_packets: u64,
    /// Bytes delivered into rx rings.
    pub rx_bytes: u64,
    /// Packets dropped because the target rx ring was full.
    pub rx_overflow_drops: u64,
    /// Packets dropped because their steer key had no attached filter.
    pub rx_filter_drops: u64,
    /// Packets dropped due to CRC verification failure.
    pub rx_crc_drops: u64,
}

/// A virtual multi-queue NIC.
pub struct VirtNic {
    cfg: NicConfig,
    rx_queues: Vec<VecDeque<Packet>>,
    /// Available tx descriptor slots per queue; consumed on transmit,
    /// replenished when serialization completes.
    tx_slots: Vec<usize>,
    /// Exact-match steering filters: steer key -> rx queue.
    filters: HashMap<u64, u16>,
    /// Per-queue interrupt arming; disarmed queues are silently polled.
    irq_armed: Vec<bool>,
    irq_handler: Option<IrqHandler>,
    stats: NicStats,
}

impl VirtNic {
    /// Creates a NIC with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero queues or zero-depth rings.
    pub fn new(cfg: NicConfig) -> Self {
        assert!(cfg.num_queues > 0, "NIC needs at least one queue");
        assert!(cfg.rx_queue_depth > 0 && cfg.tx_queue_depth > 0);
        VirtNic {
            rx_queues: (0..cfg.num_queues).map(|_| VecDeque::new()).collect(),
            tx_slots: vec![cfg.tx_queue_depth; cfg.num_queues as usize],
            filters: HashMap::default(),
            irq_armed: vec![false; cfg.num_queues as usize],
            irq_handler: None,
            stats: NicStats::default(),
            cfg,
        }
    }

    /// NIC configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Installs the interrupt handler shared by all queues.
    pub fn set_irq_handler(&mut self, handler: IrqHandler) {
        self.irq_handler = Some(handler);
    }

    /// Arms or disarms interrupts on a queue. A spinning engine keeps
    /// its queue disarmed; a blocked engine arms it before sleeping.
    pub fn arm_irq(&mut self, queue: u16, armed: bool) {
        self.irq_armed[queue as usize] = armed;
    }

    /// Attaches an exact-match receive filter steering `key` to `queue`.
    pub fn attach_filter(&mut self, key: u64, queue: u16) {
        assert!(queue < self.cfg.num_queues, "filter targets missing queue");
        self.filters.insert(key, queue);
    }

    /// Detaches the filter for `key`; subsequent packets carrying that
    /// steer key are dropped (upgrade blackout loss, §4).
    ///
    /// Returns whether a filter was attached.
    pub fn detach_filter(&mut self, key: u64) -> bool {
        self.filters.remove(&key).is_some()
    }

    /// Currently attached (key, queue) filters, sorted by key.
    pub fn filters(&self) -> Vec<(u64, u16)> {
        let mut v: Vec<_> = self.filters.iter().map(|(&k, &q)| (k, q)).collect();
        v.sort_unstable();
        v
    }

    /// Free tx descriptor slots on a queue; Pony Express generates new
    /// packets only while this is non-zero.
    pub fn tx_slots_available(&self, queue: u16) -> usize {
        self.tx_slots[queue as usize]
    }

    /// Consumes one tx slot; the fabric calls [`VirtNic::complete_tx`]
    /// when the wire is done with the packet.
    ///
    /// Returns false (and consumes nothing) if no slot is free.
    pub fn take_tx_slot(&mut self, queue: u16) -> bool {
        let s = &mut self.tx_slots[queue as usize];
        if *s == 0 {
            return false;
        }
        *s -= 1;
        true
    }

    /// Returns a tx slot after serialization completes and records the
    /// transmit in the stats.
    pub fn complete_tx(&mut self, queue: u16, wire_bytes: u32) {
        let s = &mut self.tx_slots[queue as usize];
        debug_assert!(*s < self.cfg.tx_queue_depth, "tx slot over-return");
        *s += 1;
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += wire_bytes as u64;
    }

    /// Selects the rx queue for a packet: filters first, then RSS.
    ///
    /// Returns `None` if the packet must be dropped (steer key present
    /// but no filter attached).
    fn steer(&self, pkt: &Packet) -> Option<u16> {
        match pkt.steer_key {
            Some(key) => self.filters.get(&key).copied(),
            None => Some((pkt.rss_hash % self.cfg.num_queues as u64) as u16),
        }
    }

    /// Delivers a packet from the fabric into an rx ring.
    ///
    /// Returns the queue that should raise an interrupt, if any.
    pub fn deliver(&mut self, pkt: Packet) -> Option<u16> {
        if !pkt.crc_ok() {
            self.stats.rx_crc_drops += 1;
            return None;
        }
        let Some(queue) = self.steer(&pkt) else {
            self.stats.rx_filter_drops += 1;
            return None;
        };
        let ring = &mut self.rx_queues[queue as usize];
        if ring.len() >= self.cfg.rx_queue_depth {
            self.stats.rx_overflow_drops += 1;
            return None;
        }
        self.stats.rx_packets += 1;
        self.stats.rx_bytes += pkt.wire_size as u64;
        ring.push_back(pkt);
        self.irq_armed[queue as usize].then_some(queue)
    }

    /// Delivers a burst (packet train) from the fabric into rx rings,
    /// raising at most one interrupt per armed queue for the whole
    /// burst. Every per-packet check — CRC verification, steering,
    /// ring-depth admission — still runs packet by packet, so fault
    /// injection inside a burst behaves exactly as per-packet delivery.
    ///
    /// Fills `irqs` (cleared first) with the queues that should raise
    /// an interrupt, deduplicated in first-hit order. The caller owns
    /// the buffer, so delivery allocates nothing per train.
    pub fn deliver_burst(&mut self, pkts: impl IntoIterator<Item = Packet>, irqs: &mut Vec<u16>) {
        irqs.clear();
        for pkt in pkts {
            if let Some(q) = self.deliver(pkt) {
                if !irqs.contains(&q) {
                    irqs.push(q);
                }
            }
        }
    }

    /// The interrupt handler, for the fabric to invoke after delivery
    /// (outside any NIC borrow).
    pub fn irq_handler(&self) -> Option<IrqHandler> {
        self.irq_handler.clone()
    }

    /// Polls up to `max` packets from an rx queue (engine batch poll,
    /// §3.1: "the maximum number of packets processed is configurable").
    pub fn poll_rx(&mut self, queue: u16, max: usize, out: &mut Vec<Packet>) -> usize {
        let ring = &mut self.rx_queues[queue as usize];
        let n = max.min(ring.len());
        out.extend(ring.drain(..n));
        n
    }

    /// Packets waiting in an rx ring.
    pub fn rx_pending(&self, queue: u16) -> usize {
        self.rx_queues[queue as usize].len()
    }

    /// Total packets waiting across all rx rings.
    pub fn rx_pending_total(&self) -> usize {
        self.rx_queues.iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn nic(queues: u16) -> VirtNic {
        VirtNic::new(NicConfig {
            num_queues: queues,
            rx_queue_depth: 4,
            tx_queue_depth: 2,
            ..NicConfig::default()
        })
    }

    fn pkt(rss: u64) -> Packet {
        Packet::new(1, 2, Bytes::from_static(b"data")).with_rss_hash(rss)
    }

    #[test]
    fn rss_spreads_by_hash() {
        let mut n = nic(4);
        for h in 0..8 {
            assert!(n.deliver(pkt(h)).is_none(), "irqs disarmed by default");
        }
        for q in 0..4 {
            assert_eq!(n.rx_pending(q), 2, "queue {q}");
        }
        assert_eq!(n.stats().rx_packets, 8);
    }

    #[test]
    fn filters_override_rss() {
        let mut n = nic(4);
        n.attach_filter(42, 3);
        let p = pkt(0).with_steer_key(42);
        n.deliver(p);
        assert_eq!(n.rx_pending(3), 1);
        assert_eq!(n.rx_pending(0), 0);
    }

    #[test]
    fn detached_filter_drops() {
        let mut n = nic(2);
        n.attach_filter(7, 1);
        assert!(n.detach_filter(7));
        assert!(!n.detach_filter(7), "double detach");
        n.deliver(pkt(0).with_steer_key(7));
        assert_eq!(n.stats().rx_filter_drops, 1);
        assert_eq!(n.rx_pending_total(), 0);
    }

    #[test]
    fn full_ring_tail_drops() {
        let mut n = nic(1);
        for _ in 0..6 {
            n.deliver(pkt(0));
        }
        assert_eq!(n.rx_pending(0), 4);
        assert_eq!(n.stats().rx_overflow_drops, 2);
    }

    #[test]
    fn corrupted_packet_dropped() {
        let mut n = nic(1);
        let mut p = pkt(0);
        p.corrupt(1, 1);
        n.deliver(p);
        assert_eq!(n.stats().rx_crc_drops, 1);
        assert_eq!(n.rx_pending_total(), 0);
    }

    #[test]
    fn irq_raised_only_when_armed() {
        let mut n = nic(1);
        assert_eq!(n.deliver(pkt(0)), None);
        n.arm_irq(0, true);
        assert_eq!(n.deliver(pkt(0)), Some(0));
        n.arm_irq(0, false);
        assert_eq!(n.deliver(pkt(0)), None);
    }

    #[test]
    fn poll_rx_batches() {
        let mut n = nic(1);
        for _ in 0..4 {
            n.deliver(pkt(0));
        }
        let mut out = Vec::new();
        assert_eq!(n.poll_rx(0, 3, &mut out), 3);
        assert_eq!(n.poll_rx(0, 3, &mut out), 1);
        assert_eq!(n.poll_rx(0, 3, &mut out), 0);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn burst_delivery_coalesces_irqs_but_checks_per_packet() {
        let mut n = nic(2);
        n.arm_irq(0, true);
        n.arm_irq(1, true);
        let mut bad = pkt(0);
        bad.corrupt(2, 2);
        // Burst mixing: two to queue 0, one corrupt, one to queue 1.
        let mut irqs = vec![7];
        n.deliver_burst(vec![pkt(0), pkt(2), bad, pkt(1)], &mut irqs);
        assert_eq!(irqs, vec![0, 1], "one irq per queue per burst");
        assert_eq!(n.stats().rx_crc_drops, 1, "CRC still checked per packet");
        assert_eq!(n.rx_pending(0), 2);
        assert_eq!(n.rx_pending(1), 1);
    }

    #[test]
    fn tx_slot_accounting() {
        let mut n = nic(1);
        assert_eq!(n.tx_slots_available(0), 2);
        assert!(n.take_tx_slot(0));
        assert!(n.take_tx_slot(0));
        assert!(!n.take_tx_slot(0), "slots exhausted");
        n.complete_tx(0, 100);
        assert_eq!(n.tx_slots_available(0), 1);
        assert_eq!(n.stats().tx_packets, 1);
        assert_eq!(n.stats().tx_bytes, 100);
    }

    #[test]
    fn filters_listing_sorted() {
        let mut n = nic(4);
        n.attach_filter(9, 1);
        n.attach_filter(3, 2);
        assert_eq!(n.filters(), vec![(3, 2), (9, 1)]);
    }
}
