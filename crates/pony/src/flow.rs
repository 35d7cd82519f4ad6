//! The lower transport layer: reliable flows between engine pairs.
//!
//! "Pony Express separates its transport logic into two layers: an
//! upper layer implements the state machines for application-level
//! operations and a lower layer implements reliability and congestion
//! control. The lower layer implements reliable flows between a pair of
//! engines across the network and a flow mapper maps application-level
//! connections to flows. This lower layer is only responsible for
//! reliably delivering individual packets whereas the upper layer
//! handles reordering, reassembly, and semantics associated with
//! specific operations." (§3.1)
//!
//! Accordingly, a [`Flow`] delivers each accepted frame upward exactly
//! once, in arrival order (NOT sequence order — reordering is the upper
//! layer's job), retransmits unacked packets after an RTO derived from
//! Timely's RTT estimate, and paces transmission at the Timely rate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use snap_sim::Nanos;

use crate::timely::{Timely, TimelyConfig};
use crate::wire::{OpFrame, PonyPacket};

/// An outbound frame queued on a flow, waiting for a tx slot + pacing.
#[derive(Debug, Clone)]
pub struct Outbound {
    /// The frame to carry.
    pub frame: OpFrame,
    /// Time the frame was enqueued (queueing-delay estimation).
    pub enqueued: Nanos,
}

/// Reliability bookkeeping for one in-flight packet.
#[derive(Debug, Clone)]
struct InFlight {
    frame: OpFrame,
    sent_at: Nanos,
    retransmits: u32,
}

/// Counters for one flow.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Data packets sent (first transmissions).
    pub sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Frames delivered upward.
    pub delivered: u64,
    /// Duplicate packets suppressed.
    pub duplicates: u64,
}

/// A reliable, congestion-controlled flow to one remote engine.
pub struct Flow {
    /// Flow id carried on the wire.
    pub id: u64,
    /// Negotiated wire version for this peer.
    pub version: u16,
    cc: Timely,
    next_seq: u64,
    /// Un-acked packets by seq.
    inflight: BTreeMap<u64, InFlight>,
    /// The RTO index: `(sent_at, seq)` of every packet in `inflight`,
    /// so the oldest — the next to expire, since one RTO applies to
    /// all — is the first entry.
    by_sent: BTreeSet<(Nanos, u64)>,
    /// Frames waiting to become packets (just-in-time generation pulls
    /// from here when NIC slots and pacing allow).
    outq: VecDeque<Outbound>,
    /// Expired packets awaiting retransmission with their original
    /// sequence numbers (same-seq retransmit keeps cumulative acks
    /// meaningful at the receiver).
    rtxq: VecDeque<(u64, OpFrame, u32)>,
    // Receive side.
    /// All seqs below this have been received.
    rcv_cum: u64,
    /// Received seqs above `rcv_cum` (bounded by the reorder window).
    rcv_sacks: BTreeSet<u64>,
    /// Latest acks to piggyback/emit.
    ack_dirty: bool,
    stats: FlowStats,
}

/// Result of accepting an inbound packet.
#[derive(Debug, PartialEq, Eq)]
pub enum Accept {
    /// Fresh packet: deliver its frame upward.
    Deliver(OpFrame),
    /// Duplicate (already received); dropped.
    Duplicate,
}

impl Flow {
    /// Creates a flow with the given wire id and negotiated version.
    pub fn new(id: u64, version: u16, cc_cfg: TimelyConfig) -> Self {
        Flow {
            id,
            version,
            cc: Timely::new(cc_cfg),
            next_seq: 0,
            inflight: BTreeMap::new(),
            by_sent: BTreeSet::new(),
            outq: VecDeque::new(),
            rtxq: VecDeque::new(),
            rcv_cum: 0,
            rcv_sacks: BTreeSet::new(),
            ack_dirty: false,
            stats: FlowStats::default(),
        }
    }

    /// Queues a frame for transmission.
    pub fn enqueue(&mut self, frame: OpFrame, now: Nanos) {
        self.outq.push_back(Outbound {
            frame,
            enqueued: now,
        });
    }

    /// Frames waiting to be sent (fresh and retransmissions).
    pub fn pending_tx(&self) -> usize {
        self.outq.len() + self.rtxq.len()
    }

    /// Age of the oldest queued frame.
    pub fn oldest_pending_age(&self, now: Nanos) -> Nanos {
        self.outq
            .front()
            .map(|o| now.saturating_sub(o.enqueued))
            .unwrap_or(Nanos::ZERO)
    }

    /// True if an ack-only packet should be emitted (received data not
    /// yet acknowledged to the peer).
    pub fn wants_ack(&self) -> bool {
        self.ack_dirty
    }

    /// Congestion-control state (read-only view).
    pub fn cc(&self) -> &Timely {
        &self.cc
    }

    /// Counters.
    pub fn stats(&self) -> &FlowStats {
        &self.stats
    }

    /// Un-acked packet count.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// True when the flow has nothing to send, no ack owed and nothing
    /// in flight: no pass can find work on it until a packet arrives
    /// or a frame is queued.
    pub(crate) fn is_idle(&self) -> bool {
        self.outq.is_empty() && self.rtxq.is_empty() && !self.ack_dirty && self.inflight.is_empty()
    }

    /// Puts a packet in flight, keeping the RTO index in step.
    fn track(&mut self, seq: u64, inf: InFlight) {
        self.by_sent.insert((inf.sent_at, seq));
        if let Some(old) = self.inflight.insert(seq, inf) {
            self.by_sent.remove(&(old.sent_at, seq));
        }
    }

    /// Takes a packet out of flight, keeping the RTO index in step.
    fn untrack(&mut self, seq: u64) -> Option<InFlight> {
        let inf = self.inflight.remove(&seq)?;
        self.by_sent.remove(&(inf.sent_at, seq));
        Some(inf)
    }

    /// Attempts to produce the next packet for transmission at `now`.
    ///
    /// Returns `None` if nothing is queued, or if pacing forbids
    /// sending yet (in which case [`Flow::next_pacing_deadline`] says
    /// when to retry). Acks are always allowed out (they are tiny and
    /// keep the control loop alive).
    pub fn produce(&mut self, now: Nanos) -> Option<PonyPacket> {
        // Retransmissions first, reusing the original sequence number
        // so the receiver's cumulative ack can advance over the hole.
        if let Some((_, frame, _)) = self.rtxq.front() {
            let bytes = frame.payload_len().max(64);
            if self.cc.next_send_at(now) <= now {
                let (seq, frame, rtx) = self.rtxq.pop_front().expect("front exists");
                self.cc.pace(now, bytes);
                self.track(
                    seq,
                    InFlight {
                        frame: frame.clone(),
                        sent_at: now,
                        retransmits: rtx + 1,
                    },
                );
                self.stats.retransmits += 1;
                return Some(self.packet(seq, frame));
            }
            return self.produce_ack();
        }
        if let Some(front) = self.outq.front() {
            let bytes = front.frame.payload_len().max(64);
            if self.cc.next_send_at(now) <= now {
                let out = self.outq.pop_front().expect("front exists");
                self.cc.pace(now, bytes);
                let seq = self.next_seq;
                self.next_seq += 1;
                self.track(
                    seq,
                    InFlight {
                        frame: out.frame.clone(),
                        sent_at: now,
                        retransmits: 0,
                    },
                );
                self.stats.sent += 1;
                return Some(self.packet(seq, out.frame));
            }
        }
        self.produce_ack()
    }

    fn produce_ack(&mut self) -> Option<PonyPacket> {
        if self.ack_dirty {
            // Pure ack: unsequenced (AckOnly frames are not themselves
            // acked). Uses the current seq without consuming it.
            self.ack_dirty = false;
            let seq = self.next_seq;
            return Some(self.packet_unreliable(seq, OpFrame::AckOnly));
        }
        None
    }

    fn packet(&mut self, seq: u64, frame: OpFrame) -> PonyPacket {
        self.ack_dirty = false;
        PonyPacket {
            version: self.version,
            flow: self.id,
            seq,
            cum_ack: self.rcv_cum,
            sacks: self.rcv_sacks.iter().take(16).copied().collect(),
            trace: None,
            frame,
        }
    }

    fn packet_unreliable(&mut self, seq: u64, frame: OpFrame) -> PonyPacket {
        PonyPacket {
            version: self.version,
            flow: self.id,
            seq,
            cum_ack: self.rcv_cum,
            sacks: self.rcv_sacks.iter().take(16).copied().collect(),
            trace: None,
            frame,
        }
    }

    /// When pacing next allows a data send (now if idle/unpaced).
    pub fn next_pacing_deadline(&self, now: Nanos) -> Option<Nanos> {
        if self.outq.is_empty() && self.rtxq.is_empty() {
            return None;
        }
        Some(self.cc.next_send_at(now))
    }

    /// Processes an inbound packet's *reliability* fields and returns
    /// whether its frame is fresh (deliver) or a duplicate.
    pub fn on_packet(&mut self, pkt: &PonyPacket, now: Nanos) -> Accept {
        self.on_packet_tracked(pkt, now, &mut Vec::new())
    }

    /// Like [`Flow::on_packet`], additionally writing into `acked`
    /// (cleared first) the sequence numbers newly acknowledged by this
    /// packet (the upper layer uses them to complete send operations
    /// and return credits). The caller owns the buffer so the rx path
    /// allocates nothing per packet.
    pub fn on_packet_tracked(
        &mut self,
        pkt: &PonyPacket,
        now: Nanos,
        acked: &mut Vec<u64>,
    ) -> Accept {
        // Ack processing (every packet carries acks).
        acked.clear();
        self.apply_acks(pkt.cum_ack, &pkt.sacks, now, acked);

        if matches!(pkt.frame, OpFrame::AckOnly) {
            return Accept::Duplicate; // nothing to deliver
        }

        // Receive-side dedup.
        let seq = pkt.seq;
        if seq < self.rcv_cum || self.rcv_sacks.contains(&seq) {
            self.stats.duplicates += 1;
            // Re-ack: our previous ack may have been lost.
            self.ack_dirty = true;
            return Accept::Duplicate;
        }
        self.rcv_sacks.insert(seq);
        // Advance the cumulative point.
        while self.rcv_sacks.remove(&self.rcv_cum) {
            self.rcv_cum += 1;
        }
        self.ack_dirty = true;
        self.stats.delivered += 1;
        Accept::Deliver(pkt.frame.clone())
    }

    fn apply_acks(&mut self, cum: u64, sacks: &[u64], now: Nanos, acked: &mut Vec<u64>) {
        acked.extend(self.inflight.range(..cum).map(|(&s, _)| s));
        acked.extend(
            sacks
                .iter()
                .copied()
                .filter(|s| self.inflight.contains_key(s)),
        );
        for &seq in acked.iter() {
            if let Some(inf) = self.untrack(seq) {
                // Only first-transmission RTTs feed Timely (Karn's rule).
                if inf.retransmits == 0 {
                    self.cc.on_rtt_sample(now.saturating_sub(inf.sent_at));
                }
            }
        }
    }

    /// The RTO: a multiple of the *smoothed* RTT (so receive-side
    /// queueing under load does not fire spurious retransmissions),
    /// floored and capped.
    pub fn rto(&self) -> Nanos {
        let srtt = self.cc.srtt();
        let base = if srtt.is_zero() {
            Nanos::from_micros(500)
        } else {
            srtt * 4
        };
        base.clamp(Nanos::from_micros(200), Nanos::from_millis(10))
    }

    /// Earliest retransmit deadline among in-flight packets: the
    /// oldest packet's, read off the RTO index.
    pub fn next_rto_deadline(&self) -> Option<Nanos> {
        self.by_sent
            .first()
            .map(|&(sent_at, _)| sent_at + self.rto())
    }

    /// Moves packets whose RTO expired onto the retransmit queue
    /// (keeping their sequence numbers, re-queued in seq order);
    /// returns how many. Expiry is a loss signal to congestion control,
    /// counted once per check. Costs one index lookup when the oldest
    /// packet has not expired.
    pub fn check_rto(&mut self, now: Nanos) -> usize {
        let rto = self.rto();
        let expired = |sent_at: Nanos| now.saturating_sub(sent_at) >= rto;
        if self.by_sent.first().is_none_or(|&(t, _)| !expired(t)) {
            return 0;
        }
        self.cc.on_loss();
        let mut n = 0;
        for (seq, inf) in self.inflight.extract_if(.., |_, i| expired(i.sent_at)) {
            self.by_sent.remove(&(inf.sent_at, seq));
            self.rtxq.push_back((seq, inf.frame, inf.retransmits));
            n += 1;
        }
        n
    }

    /// Hedge nudge: re-queues the oldest unacked in-flight frame
    /// immediately, without waiting for its RTO and — unlike
    /// [`Flow::check_rto`] — without a loss signal to congestion
    /// control: the hedge is speculative (the packet may merely be
    /// jittered), and halving cwnd on every hedge would turn a
    /// lossy-but-alive link into a throughput collapse. Frames younger
    /// than a quarter RTO are left alone (their first copy is still
    /// plausibly in flight). Returns how many frames were re-queued
    /// (0 or 1).
    pub fn hedge_retransmit(&mut self, now: Nanos) -> usize {
        let min_age = Nanos(self.rto().as_nanos() / 4);
        // Nothing qualifies unless the oldest packet does.
        let young = |&(t, _): &(Nanos, u64)| now.saturating_sub(t) < min_age;
        if self.by_sent.first().is_none_or(young) {
            return 0;
        }
        let victim = self
            .inflight
            .iter()
            .find(|(_, i)| now.saturating_sub(i.sent_at) >= min_age)
            .map(|(&s, _)| s);
        let Some(seq) = victim else { return 0 };
        if let Some(inf) = self.untrack(seq) {
            self.rtxq.push_back((seq, inf.frame, inf.retransmits));
            1
        } else {
            0
        }
    }

    /// Serializes flow state for transparent upgrade: sequence state,
    /// receive window, and all queued/unacked frames (which re-enter
    /// the outq in the new version — retransmission semantics make
    /// duplicates safe).
    pub fn serialize(&self) -> Vec<u8> {
        use snap_sim::codec::Writer;
        let mut w = Writer::with_capacity(256);
        w.u64(self.id);
        w.u16(self.version);
        w.u64(self.next_seq);
        w.u64(self.rcv_cum);
        w.u32(self.rcv_sacks.len() as u32);
        for s in &self.rcv_sacks {
            w.u64(*s);
        }
        // Unacked packets keep their sequence numbers across the
        // upgrade (they re-enter the retransmit queue); fresh frames
        // keep only their content.
        let unacked: Vec<(u64, &OpFrame)> = self
            .inflight
            .iter()
            .map(|(&s, i)| (s, &i.frame))
            .chain(self.rtxq.iter().map(|(s, f, _)| (*s, f)))
            .collect();
        w.u32(unacked.len() as u32);
        for (seq, f) in unacked {
            w.u64(seq);
            w.bytes(&self.encode_frame(f));
        }
        w.u32(self.outq.len() as u32);
        for o in &self.outq {
            w.bytes(&self.encode_frame(&o.frame));
        }
        w.finish()
    }

    /// Restores a flow from [`Flow::serialize`] output.
    ///
    /// Returns an error — never panics — on a truncated or corrupt
    /// snapshot, so a bad checkpoint surfaces as a typed failure the
    /// upgrade rollback and supervisor paths can act on.
    pub fn deserialize(
        buf: &[u8],
        cc_cfg: TimelyConfig,
        now: Nanos,
    ) -> Result<Flow, snap_sim::codec::DecodeError> {
        use snap_sim::codec::Reader;
        let mut r = Reader::new(buf);
        let id = r.u64()?;
        let version = r.u16()?;
        let next_seq = r.u64()?;
        let rcv_cum = r.u64()?;
        let nsack = r.u32()?;
        let mut rcv_sacks = BTreeSet::new();
        for _ in 0..nsack {
            rcv_sacks.insert(r.u64()?);
        }
        let nunacked = r.u32()?;
        let mut rtxq = VecDeque::new();
        for _ in 0..nunacked {
            let seq = r.u64()?;
            let body = r.bytes()?;
            let pkt = PonyPacket::decode(body)?;
            rtxq.push_back((seq, pkt.frame, 0));
        }
        let nframes = r.u32()?;
        let mut outq = VecDeque::new();
        for _ in 0..nframes {
            let body = r.bytes()?;
            let pkt = PonyPacket::decode(body)?;
            outq.push_back(Outbound {
                frame: pkt.frame,
                enqueued: now,
            });
        }
        Ok(Flow {
            id,
            version,
            cc: Timely::new(cc_cfg),
            next_seq,
            inflight: BTreeMap::new(),
            by_sent: BTreeSet::new(),
            outq,
            rtxq,
            rcv_cum,
            rcv_sacks,
            ack_dirty: false,
            stats: FlowStats::default(),
        })
    }

    fn encode_frame(&self, f: &OpFrame) -> Vec<u8> {
        // Reuse the packet encoding for the frame body.
        PonyPacket {
            version: self.version,
            flow: self.id,
            seq: 0,
            cum_ack: 0,
            sacks: vec![],
            trace: None,
            frame: f.clone(),
        }
        .encode()
    }
}

/// Maps application-level connections to flows (§3.1): connections to
/// the same remote engine share one flow.
#[derive(Debug, Default)]
pub struct FlowMapper {
    /// (remote host, remote engine key) -> flow id.
    map: snap_sim::hash::HashMap<(u32, u64), u64>,
    next_flow: u64,
}

impl FlowMapper {
    /// Creates an empty mapper seeded so flow ids are unique per
    /// engine (the engine uid occupies the high bits).
    pub fn new(engine_uid: u32) -> Self {
        FlowMapper {
            map: Default::default(),
            next_flow: (engine_uid as u64) << 32,
        }
    }

    /// Returns the flow id for a remote engine, allocating one if new.
    /// The bool is true if the flow is newly allocated.
    pub fn flow_for(&mut self, remote_host: u32, remote_engine: u64) -> (u64, bool) {
        if let Some(&f) = self.map.get(&(remote_host, remote_engine)) {
            return (f, false);
        }
        let f = self.next_flow;
        self.next_flow += 1;
        self.map.insert((remote_host, remote_engine), f);
        (f, true)
    }

    /// Number of mapped flows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no flows are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flow() -> Flow {
        Flow::new(1, 5, TimelyConfig::default())
    }

    fn msg_frame(n: u64) -> OpFrame {
        OpFrame::MsgChunk {
            conn: 1,
            stream: 0,
            msg: n,
            offset: 0,
            total: 100,
            len: 100,
        }
    }

    #[test]
    fn produce_assigns_sequential_seqs() {
        let mut f = flow();
        f.enqueue(msg_frame(1), Nanos::ZERO);
        f.enqueue(msg_frame(2), Nanos::ZERO);
        let p1 = f.produce(Nanos::ZERO).unwrap();
        // Pacing may delay the second; jump time far enough.
        let p2 = f.produce(Nanos::from_millis(1)).unwrap();
        assert_eq!(p1.seq, 0);
        assert_eq!(p2.seq, 1);
        assert_eq!(f.inflight(), 2);
    }

    #[test]
    fn pacing_delays_production() {
        let mut f = flow();
        for n in 0..10 {
            f.enqueue(msg_frame(n), Nanos::ZERO);
        }
        let _first = f.produce(Nanos::ZERO).unwrap();
        // Immediately after, pacing forbids the next large frame.
        assert!(f.produce(Nanos(1)).is_none());
        let deadline = f.next_pacing_deadline(Nanos(1)).unwrap();
        assert!(deadline > Nanos(1));
        assert!(f.produce(deadline).is_some());
    }

    #[test]
    fn receiver_delivers_fresh_and_suppresses_dups() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(7), Nanos::ZERO);
        let pkt = tx.produce(Nanos::ZERO).unwrap();
        match rx.on_packet(&pkt, Nanos(1000)) {
            Accept::Deliver(OpFrame::MsgChunk { msg, .. }) => assert_eq!(msg, 7),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rx.on_packet(&pkt, Nanos(2000)), Accept::Duplicate);
        assert_eq!(rx.stats().duplicates, 1);
        assert!(rx.wants_ack());
    }

    #[test]
    fn acks_clear_inflight_and_feed_rtt() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        let pkt = tx.produce(Nanos::ZERO).unwrap();
        rx.on_packet(&pkt, Nanos(10_000));
        let ack = rx.produce(Nanos(10_000)).expect("ack pending");
        assert_eq!(ack.frame, OpFrame::AckOnly);
        assert_eq!(ack.cum_ack, 1);
        tx.on_packet(&ack, Nanos(20_000));
        assert_eq!(tx.inflight(), 0);
        assert_eq!(tx.cc().min_rtt(), Nanos(20_000));
    }

    #[test]
    fn out_of_order_arrivals_deliver_immediately() {
        // Lower layer does NOT reorder: each fresh packet delivers.
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        tx.enqueue(msg_frame(2), Nanos::ZERO);
        let p1 = tx.produce(Nanos::ZERO).unwrap();
        let p2 = tx.produce(Nanos::from_millis(1)).unwrap();
        // Deliver in reverse order.
        assert!(matches!(rx.on_packet(&p2, Nanos(1)), Accept::Deliver(_)));
        assert!(matches!(rx.on_packet(&p1, Nanos(2)), Accept::Deliver(_)));
        assert_eq!(rx.stats().delivered, 2);
        // Cumulative ack advanced over both.
        let ack = rx.produce(Nanos(10)).unwrap();
        assert_eq!(ack.cum_ack, 2);
    }

    #[test]
    fn rto_requeues_unacked_and_signals_loss() {
        let mut tx = flow();
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        let _pkt = tx.produce(Nanos::ZERO).unwrap();
        let rate_before = tx.cc().rate();
        let deadline = tx.next_rto_deadline().unwrap();
        assert_eq!(tx.check_rto(deadline - Nanos(1)), 0, "not yet expired");
        assert_eq!(tx.check_rto(deadline), 1);
        assert_eq!(tx.inflight(), 0);
        assert_eq!(tx.pending_tx(), 1, "waiting on the retransmit queue");
        assert!(tx.cc().rate() < rate_before, "loss halves the rate");
        let retx = tx.produce(deadline).unwrap();
        assert_eq!(retx.seq, 0, "retransmission reuses the sequence number");
        assert_eq!(tx.stats().retransmits, 1);
        assert_eq!(tx.inflight(), 1, "back in flight");
    }

    #[test]
    fn hedge_retransmit_requeues_early_without_loss_signal() {
        let mut tx = flow();
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        let _pkt = tx.produce(Nanos::ZERO).unwrap();
        let rate_before = tx.cc().rate();
        // Too young: the first copy is still plausibly in flight.
        assert_eq!(tx.hedge_retransmit(Nanos(1)), 0);
        // Old enough (past a quarter RTO) but well before the RTO
        // itself: the hedge requeues it...
        let rto = tx.rto();
        let mid = Nanos(rto.as_nanos() / 2);
        assert!(mid < tx.next_rto_deadline().unwrap());
        assert_eq!(tx.hedge_retransmit(mid), 1);
        assert_eq!(tx.inflight(), 0);
        assert_eq!(tx.pending_tx(), 1, "waiting on the retransmit queue");
        // ...without punishing congestion control (speculative, not a
        // confirmed loss).
        assert_eq!(tx.cc().rate(), rate_before, "no loss signal");
        let retx = tx.produce(mid).unwrap();
        assert_eq!(retx.seq, 0, "hedge reuses the sequence number");
        // Nothing left in flight old enough: further hedges are no-ops.
        assert_eq!(tx.hedge_retransmit(mid), 0);
    }

    #[test]
    fn retransmission_fills_receiver_hole() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(9), Nanos::ZERO);
        tx.enqueue(msg_frame(10), Nanos::ZERO);
        let lost = tx.produce(Nanos::ZERO).unwrap(); // seq 0, lost
        let second = tx.produce(Nanos::from_millis(1)).unwrap(); // seq 1
        drop(lost);
        assert!(matches!(rx.on_packet(&second, Nanos(1)), Accept::Deliver(_)));
        // Hole at seq 0: cumulative ack stuck at 0.
        assert_eq!(rx.produce(Nanos(2)).unwrap().cum_ack, 0);
        let deadline = tx.next_rto_deadline().unwrap();
        tx.check_rto(deadline);
        // Past any pacing delay left over from the second send.
        let later = deadline.max(Nanos::from_millis(2));
        let retx = tx.produce(later).unwrap();
        assert_eq!(retx.seq, 0);
        assert!(matches!(rx.on_packet(&retx, later), Accept::Deliver(_)));
        // Hole filled: cumulative ack advances over both.
        assert_eq!(rx.produce(later + Nanos(1)).unwrap().cum_ack, 2);
        assert_eq!(rx.stats().delivered, 2);
    }

    #[test]
    fn duplicate_retransmission_is_suppressed() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(9), Nanos::ZERO);
        let pkt = tx.produce(Nanos::ZERO).unwrap();
        assert!(matches!(rx.on_packet(&pkt, Nanos(1)), Accept::Deliver(_)));
        // Spurious retransmit of the same seq (ack was slow).
        let deadline = tx.next_rto_deadline().unwrap();
        tx.check_rto(deadline);
        let retx = tx.produce(deadline).unwrap();
        assert_eq!(rx.on_packet(&retx, deadline), Accept::Duplicate);
        assert_eq!(rx.stats().delivered, 1);
    }

    #[test]
    fn oldest_age_reflects_queue_head() {
        let mut f = flow();
        assert_eq!(f.oldest_pending_age(Nanos(100)), Nanos::ZERO);
        f.enqueue(msg_frame(1), Nanos(40));
        f.enqueue(msg_frame(2), Nanos(90));
        assert_eq!(f.oldest_pending_age(Nanos(100)), Nanos(60));
    }

    #[test]
    fn serialize_roundtrip_preserves_sequencing_and_frames() {
        let mut f = flow();
        f.enqueue(msg_frame(1), Nanos::ZERO);
        f.enqueue(msg_frame(2), Nanos::ZERO);
        let _sent = f.produce(Nanos::ZERO).unwrap(); // one inflight
        let snapshot = f.serialize();
        let restored =
            Flow::deserialize(&snapshot, TimelyConfig::default(), Nanos(5)).expect("restores");
        assert_eq!(restored.id, f.id);
        assert_eq!(restored.version, 5);
        // The inflight frame re-enters the retransmit queue (with its
        // original seq) plus the still-queued frame.
        assert_eq!(restored.pending_tx(), 2);
        let mut restored = restored;
        let first = restored.produce(Nanos(5)).unwrap();
        assert_eq!(first.seq, 0, "unacked packet keeps its seq across upgrade");
        let second = restored.produce(Nanos::from_millis(10)).unwrap();
        assert_eq!(second.seq, 1, "fresh frames continue the seq space");
    }

    #[test]
    fn receive_state_survives_serialization() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        let pkt = tx.produce(Nanos::ZERO).unwrap();
        rx.on_packet(&pkt, Nanos(1));
        let restored = Flow::deserialize(&rx.serialize(), TimelyConfig::default(), Nanos(2))
            .expect("restores");
        let mut restored = restored;
        // The duplicate of the already-received packet is suppressed.
        assert_eq!(restored.on_packet(&pkt, Nanos(3)), Accept::Duplicate);
    }

    fn ack(cum_ack: u64, sacks: Vec<u64>) -> PonyPacket {
        PonyPacket {
            version: 5,
            flow: 1,
            seq: 0,
            cum_ack,
            sacks,
            trace: None,
            frame: OpFrame::AckOnly,
        }
    }

    fn rtx_seqs(f: &Flow) -> Vec<u64> {
        f.rtxq.iter().map(|(s, _, _)| *s).collect()
    }

    /// The RTO index against a brute-force scan of `inflight`.
    fn check_index(f: &Flow) -> Result<(), String> {
        let scan: BTreeSet<(Nanos, u64)> =
            f.inflight.iter().map(|(&s, i)| (i.sent_at, s)).collect();
        prop_assert_eq!(&f.by_sent, &scan);
        let deadline = f.inflight.values().map(|i| i.sent_at + f.rto()).min();
        prop_assert_eq!(f.next_rto_deadline(), deadline);
        Ok(())
    }

    proptest! {
        /// Under any mix of sends, retransmits, cumulative and selective
        /// acks, RTO checks, hedges and checkpoint round trips, the RTO
        /// index agrees with a scan of the in-flight packets, and the
        /// retransmit queue grows exactly as a scan says it should.
        #[test]
        fn rto_index_matches_a_scan_of_inflight(
            ops in proptest::collection::vec((0u8..6, 0u64..2_000, any::<u64>()), 1..150),
        ) {
            let mut tx = flow();
            let mut now = Nanos::ZERO;
            let mut msg = 0;
            for (op, step, arg) in ops {
                now += Nanos(step * 100);
                match op {
                    0 => {
                        for _ in 0..arg % 4 {
                            msg += 1;
                            tx.enqueue(msg_frame(msg), now);
                        }
                        while tx.produce(now).is_some() {}
                    }
                    1 => {
                        let cum = arg % (tx.next_seq + 1);
                        tx.on_packet(&ack(cum, vec![]), now);
                    }
                    2 => {
                        let sacks: Vec<u64> = tx
                            .inflight
                            .keys()
                            .enumerate()
                            .filter(|(i, _)| arg >> (i % 64) & 1 == 1)
                            .map(|(_, &s)| s)
                            .collect();
                        tx.on_packet(&ack(0, sacks), now);
                    }
                    3 => {
                        let rto = tx.rto();
                        let expired: Vec<u64> = tx
                            .inflight
                            .iter()
                            .filter(|(_, i)| now.saturating_sub(i.sent_at) >= rto)
                            .map(|(&s, _)| s)
                            .collect();
                        let mut want = rtx_seqs(&tx);
                        want.extend(&expired);
                        prop_assert_eq!(tx.check_rto(now), expired.len());
                        prop_assert_eq!(rtx_seqs(&tx), want);
                    }
                    4 => {
                        let min_age = Nanos(tx.rto().as_nanos() / 4);
                        let victim = tx
                            .inflight
                            .iter()
                            .find(|(_, i)| now.saturating_sub(i.sent_at) >= min_age)
                            .map(|(&s, _)| s);
                        let mut want = rtx_seqs(&tx);
                        want.extend(victim);
                        prop_assert_eq!(tx.hedge_retransmit(now), victim.iter().count());
                        prop_assert_eq!(rtx_seqs(&tx), want);
                    }
                    _ => {
                        tx = Flow::deserialize(&tx.serialize(), TimelyConfig::default(), now)
                            .expect("restores");
                    }
                }
                check_index(&tx)?;
            }
        }
    }

    #[test]
    fn flow_mapper_shares_flows_per_engine_pair() {
        let mut m = FlowMapper::new(3);
        let (f1, new1) = m.flow_for(10, 77);
        let (f2, new2) = m.flow_for(10, 77);
        let (f3, _) = m.flow_for(10, 78);
        assert!(new1);
        assert!(!new2);
        assert_eq!(f1, f2);
        assert_ne!(f1, f3);
        assert_eq!(m.len(), 2);
        // Engine uid in the high bits keeps ids globally unique.
        assert_eq!(f1 >> 32, 3);
    }
}
