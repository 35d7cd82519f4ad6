//! The modeled kernel TCP stack.
//!
//! One [`TcpHost`] per simulated machine. Senders pace segment
//! transmission by the kernel path's per-packet CPU cost (which is what
//! makes kernel TCP CPU-bound in Table 1); receivers charge softirq and
//! copy costs and wake the application thread through the modeled
//! scheduler. Reliability is a fixed window with timeout retransmit —
//! enough to survive congestion drops on the shared fabric.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use snap_nic::fabric::FabricHandle;
use snap_nic::packet::{HostId, Packet, QosClass};
use snap_sim::codec::{Reader, Writer};
use snap_sim::costs;
use snap_sim::hash::{HashMap, HashSet};
use snap_sim::{Nanos, Sim};

use snap_sched::classes::SchedClass;
use snap_sched::machine::Machine;

/// Shared machine handle.
pub type MachineHandle = Rc<RefCell<Machine>>;

/// Kernel TCP configuration knobs used by the evaluation.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Segment payload size; "For TCP, it is 4096B" (§5.2).
    pub mtu: u32,
    /// Fixed flow-control window in bytes.
    pub window_bytes: u64,
    /// `SO_BUSY_POLL`: the app spin-polls the socket instead of
    /// sleeping (Fig. 6a's 18 µs TCP line).
    pub busy_poll: bool,
    /// Retransmission timeout.
    pub rto: Nanos,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mtu: costs::TCP_LARGE_MTU,
            window_bytes: 3 * 1024 * 1024,
            busy_poll: false,
            rto: Nanos::from_millis(10),
        }
    }
}

/// Stack counters.
#[derive(Debug, Clone, Default)]
pub struct TcpStats {
    /// Messages submitted by the application.
    pub msgs_sent: u64,
    /// Messages fully delivered to the remote application.
    pub msgs_delivered: u64,
    /// Data segments transmitted (including retransmits).
    pub segs_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Application payload bytes delivered.
    pub bytes_delivered: u64,
}

/// Identifies a connection; allocated by the connecting side and
/// carried in every packet.
pub type ConnKey = u64;

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;

struct MsgRecv {
    total: u64,
    received: u64,
    offsets: HashSet<u64>,
}

struct Connection {
    peer: HostId,
    /// Messages queued behind the current one: (msg id, length).
    sendq: VecDeque<(u64, u64)>,
    /// Message being segmented: (msg id, length, next offset).
    current: Option<(u64, u64, u64)>,
    /// Unacked segments: (msg, offset) -> (len, sent at, msg len).
    /// The message length rides along so an RTO resend can rebuild the
    /// full header even when the receiver never saw the original.
    inflight: BTreeMap<(u64, u64), (u32, Nanos, u64)>,
    inflight_bytes: u64,
    /// A tx pacing event is already scheduled.
    tx_scheduled: bool,
    /// An RTO check is already scheduled.
    rto_scheduled: bool,
    /// Reassembly state per message.
    recv: HashMap<u64, MsgRecv>,
    /// Messages already delivered to the app. A retransmit that lands
    /// after completion (its ACK was lost) must be re-ACKed but not
    /// re-delivered. Unbounded, which is fine for simulation.
    delivered: HashSet<u64>,
}

impl Connection {
    fn new(peer: HostId) -> Self {
        Connection {
            peer,
            sendq: VecDeque::new(),
            current: None,
            inflight: BTreeMap::new(),
            inflight_bytes: 0,
            tx_scheduled: false,
            rto_scheduled: false,
            recv: HashMap::default(),
            delivered: HashSet::default(),
        }
    }

    fn has_tx_work(&self) -> bool {
        self.current.is_some() || !self.sendq.is_empty()
    }
}

/// Delivery callback: (conn, msg id, length).
pub type OnMessage = Rc<dyn Fn(&mut Sim, ConnKey, u64, u64)>;

struct Inner {
    host: HostId,
    fabric: FabricHandle,
    machine: MachineHandle,
    cfg: TcpConfig,
    conns: HashMap<ConnKey, Connection>,
    on_message: Option<OnMessage>,
    cpu_busy: Nanos,
    stats: TcpStats,
    next_conn: u32,
    /// Reusable softirq receive batch, so draining the rx ring
    /// allocates nothing per interrupt.
    rx_buf: Vec<Packet>,
}

impl Inner {
    /// Number of connections with data moving, for the stream-scaling
    /// penalty.
    fn active_streams(&self) -> u32 {
        self.conns
            .values()
            .filter(|c| c.has_tx_work() || !c.inflight.is_empty() || !c.recv.is_empty())
            .count()
            .max(1) as u32
    }

    /// Serial CPU cost of moving one `seg_len`-byte segment through the
    /// kernel path on one side (protocol + one copy), with the
    /// stream-scaling factor applied.
    fn side_cost(&self, seg_len: u32) -> Nanos {
        let factor = costs::tcp_stream_cost_factor(self.active_streams());
        let base = costs::TCP_PER_PACKET_NS / 2 + costs::copy_cost(seg_len as u64).as_nanos();
        Nanos((base as f64 * factor) as u64)
    }

    /// Pacing interval between segments at the sender: the full-path
    /// serial cost divided by the path parallelism (app + softirq
    /// overlap), matching the Table 1 calibration.
    fn pacing(&self, seg_len: u32) -> Nanos {
        let factor = costs::tcp_stream_cost_factor(self.active_streams());
        let serial = costs::TCP_PER_PACKET_NS as f64
            + (costs::TCP_COPIES * costs::copy_cost(seg_len as u64).as_nanos()) as f64;
        Nanos((serial * factor / costs::TCP_PATH_PARALLELISM) as u64)
    }
}

/// A kernel TCP stack instance on one host.
#[derive(Clone)]
pub struct TcpHost {
    inner: Rc<RefCell<Inner>>,
}

impl TcpHost {
    /// Creates the stack for `host` and hooks it into the NIC's
    /// interrupt path.
    pub fn new(host: HostId, fabric: FabricHandle, machine: MachineHandle, cfg: TcpConfig) -> Self {
        let this = TcpHost {
            inner: Rc::new(RefCell::new(Inner {
                host,
                fabric: fabric.clone(),
                machine,
                cfg,
                conns: HashMap::default(),
                on_message: None,
                cpu_busy: Nanos::ZERO,
                stats: TcpStats::default(),
                next_conn: 1,
                rx_buf: Vec::new(),
            })),
        };
        // Kernel TCP receives via interrupts: arm every queue and
        // process in softirq context from the handler.
        let handler = this.clone();
        fabric.with_nic(host, |nic| {
            for q in 0..nic.config().num_queues {
                nic.arm_irq(q, true);
            }
            nic.set_irq_handler(Rc::new(move |sim, queue| {
                handler.softirq(sim, queue);
            }));
        });
        this
    }

    /// Registers the message-delivery callback.
    pub fn on_message(&self, cb: OnMessage) {
        self.inner.borrow_mut().on_message = Some(cb);
    }

    /// Opens a connection to `peer`; the remote side materializes state
    /// on the first packet (SYN handshake elided — it does not affect
    /// any reproduced figure).
    pub fn connect(&self, peer: HostId) -> ConnKey {
        let mut inner = self.inner.borrow_mut();
        let key = ((inner.host as u64) << 32) | inner.next_conn as u64;
        inner.next_conn += 1;
        inner.conns.insert(key, Connection::new(peer));
        key
    }

    /// Pre-registers the passive side of a connection opened by `peer`
    /// with [`TcpHost::connect`], so this host can send on `conn`
    /// before the first packet arrives (the sockets facade dials both
    /// directions up front). Idempotent: a connection the first packet
    /// already materialized is left untouched.
    pub fn accept(&self, conn: ConnKey, peer: HostId) {
        let mut inner = self.inner.borrow_mut();
        inner
            .conns
            .entry(conn)
            .or_insert_with(|| Connection::new(peer));
    }

    /// Sends a `len`-byte message on `conn`; charged syscall + copy on
    /// submission, segments paced by kernel-path cost.
    ///
    /// # Panics
    ///
    /// Panics on an unknown connection or zero-length message.
    pub fn send(&self, sim: &mut Sim, conn: ConnKey, msg_id: u64, len: u64) {
        assert!(len > 0, "empty message");
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.msgs_sent += 1;
            // Syscall entry cost (one per sendmsg; copies charged per
            // segment as they are cut).
            inner.cpu_busy += Nanos(costs::SYSCALL_NS);
            let c = inner
                .conns
                .get_mut(&conn)
                .expect("send on unknown connection");
            c.sendq.push_back((msg_id, len));
        }
        // The app->qdisc->driver traversal delays the first segment.
        self.schedule_tx(sim, conn, Nanos(costs::TCP_STACK_LATENCY_NS));
    }

    /// CPU consumed by this stack (app syscalls/copies + softirq).
    pub fn cpu_busy(&self) -> Nanos {
        self.inner.borrow().cpu_busy
    }

    /// Counters snapshot.
    pub fn stats(&self) -> TcpStats {
        self.inner.borrow().stats.clone()
    }

    fn schedule_tx(&self, sim: &mut Sim, conn: ConnKey, delay: Nanos) {
        {
            let mut inner = self.inner.borrow_mut();
            let Some(c) = inner.conns.get_mut(&conn) else {
                return;
            };
            if c.tx_scheduled {
                return;
            }
            c.tx_scheduled = true;
        }
        let this = self.clone();
        sim.schedule_in(delay, move |sim| this.tx_pass(sim, conn));
    }

    /// Transmits one segment, then self-reschedules at the pacing
    /// interval while window and queue allow.
    fn tx_pass(&self, sim: &mut Sim, conn: ConnKey) {
        let now = sim.now();
        let (pkt, next_delay) = {
            let mut inner = self.inner.borrow_mut();
            let mtu = inner.cfg.mtu;
            let window = inner.cfg.window_bytes;
            let host = inner.host;
            let Some(c) = inner.conns.get_mut(&conn) else {
                return;
            };
            c.tx_scheduled = false;
            // Refill `current` from the queue.
            if c.current.is_none() {
                c.current = c.sendq.pop_front().map(|(id, len)| (id, len, 0));
            }
            let Some((msg_id, msg_len, offset)) = c.current else {
                return;
            };
            if c.inflight_bytes + mtu as u64 > window {
                // Window full: ack arrival will reschedule us.
                return;
            }
            let seg_len = (msg_len - offset).min(mtu as u64) as u32;
            let peer = c.peer;
            c.inflight.insert((msg_id, offset), (seg_len, now, msg_len));
            c.inflight_bytes += seg_len as u64;
            let next_off = offset + seg_len as u64;
            if next_off >= msg_len {
                c.current = None;
            } else {
                c.current = Some((msg_id, msg_len, next_off));
            }
            inner.stats.segs_sent += 1;
            // Charge the sender-side serial cost (stack + tx copy).
            let cost = inner.side_cost(seg_len);
            inner.cpu_busy += cost;

            let mut w = Writer::with_capacity(64);
            w.u8(KIND_DATA)
                .u64(conn)
                .u64(msg_id)
                .u64(offset)
                .u64(msg_len)
                .u32(seg_len);
            let mut pkt = Packet::new(host, peer, Bytes::from(w.finish()));
            pkt.wire_size = seg_len + Packet::HEADER_OVERHEAD;
            pkt = pkt.with_rss_hash(conn).with_qos(QosClass::BestEffort);
            (pkt, inner.pacing(seg_len))
        };
        // Fire-and-forget; loss is recovered by RTO.
        let queue = (conn % 4) as u16;
        let _ = {
            let fabric = self.inner.borrow().fabric.clone();
            fabric.transmit(sim, queue, pkt)
        };
        self.arm_rto(sim, conn);
        // Pace the next segment.
        let has_more = {
            let inner = self.inner.borrow();
            inner
                .conns
                .get(&conn)
                .map(|c| c.has_tx_work())
                .unwrap_or(false)
        };
        if has_more {
            self.schedule_tx(sim, conn, next_delay);
        }
    }

    fn arm_rto(&self, sim: &mut Sim, conn: ConnKey) {
        let rto = {
            let mut inner = self.inner.borrow_mut();
            let rto = inner.cfg.rto;
            let Some(c) = inner.conns.get_mut(&conn) else {
                return;
            };
            if c.rto_scheduled || c.inflight.is_empty() {
                return;
            }
            c.rto_scheduled = true;
            rto
        };
        let this = self.clone();
        sim.schedule_in(rto, move |sim| this.rto_fire(sim, conn));
    }

    /// Retransmits segments older than the RTO.
    fn rto_fire(&self, sim: &mut Sim, conn: ConnKey) {
        let now = sim.now();
        let resend: Vec<(u64, u64, u32, u64)> = {
            let mut inner = self.inner.borrow_mut();
            let rto = inner.cfg.rto;
            let host = inner.host;
            let _ = host;
            let Some(c) = inner.conns.get_mut(&conn) else {
                return;
            };
            c.rto_scheduled = false;
            c.inflight
                .iter_mut()
                .filter(|(_, (_, sent, _))| now.saturating_sub(*sent) >= rto)
                .map(|((msg, off), (len, sent, msg_len))| {
                    *sent = now;
                    (*msg, *off, *len, *msg_len)
                })
                .collect()
        };
        for (msg_id, offset, seg_len, msg_len) in resend {
            let (pkt, queue) = {
                let mut inner = self.inner.borrow_mut();
                inner.stats.retransmits += 1;
                inner.stats.segs_sent += 1;
                let cost = inner.side_cost(seg_len);
                inner.cpu_busy += cost;
                let host = inner.host;
                let Some(c) = inner.conns.get(&conn) else {
                    return;
                };
                let mut w = Writer::with_capacity(64);
                // Resends must carry the real message length: if every
                // original segment of the message was lost, the resend
                // is what creates the receiver's reassembly entry, and a
                // zero length there would strand the message forever.
                w.u8(KIND_DATA)
                    .u64(conn)
                    .u64(msg_id)
                    .u64(offset)
                    .u64(msg_len)
                    .u32(seg_len);
                let mut pkt = Packet::new(host, c.peer, Bytes::from(w.finish()));
                pkt.wire_size = seg_len + Packet::HEADER_OVERHEAD;
                ((pkt.with_rss_hash(conn), (conn % 4) as u16), ())
            }
            .0;
            let fabric = self.inner.borrow().fabric.clone();
            let _ = fabric.transmit(sim, queue, pkt);
        }
        self.arm_rto(sim, conn);
    }

    /// Softirq: drain the rx ring, process data/acks, charge CPU.
    fn softirq(&self, sim: &mut Sim, queue: u16) {
        let mut pkts = {
            let mut inner = self.inner.borrow_mut();
            let mut pkts = std::mem::take(&mut inner.rx_buf);
            let host = inner.host;
            inner.fabric.with_nic(host, |nic| {
                // Kernel NAPI polls a budget of packets per softirq.
                nic.poll_rx(queue, 64, &mut pkts);
            });
            if !pkts.is_empty() {
                inner.cpu_busy += Nanos(costs::INTERRUPT_NS);
            }
            pkts
        };
        for pkt in pkts.drain(..) {
            self.process_packet(sim, pkt);
        }
        self.inner.borrow_mut().rx_buf = pkts;
    }

    fn process_packet(&self, sim: &mut Sim, pkt: Packet) {
        let mut r = Reader::new(&pkt.payload);
        let Ok(kind) = r.u8() else { return };
        match kind {
            KIND_DATA => self.process_data(sim, pkt.src, &mut r),
            KIND_ACK => self.process_ack(sim, &mut r),
            _ => {}
        }
    }

    fn process_data(&self, sim: &mut Sim, src: HostId, r: &mut Reader<'_>) {
        let (Ok(conn), Ok(msg_id), Ok(offset), Ok(msg_len), Ok(seg_len)) =
            (r.u64(), r.u64(), r.u64(), r.u64(), r.u32())
        else {
            return;
        };
        let completed = {
            let mut inner = self.inner.borrow_mut();
            // Receiver-side serial cost: softirq protocol + rx copy.
            let cost = inner.side_cost(seg_len);
            inner.cpu_busy += cost;
            let c = inner
                .conns
                .entry(conn)
                .or_insert_with(|| Connection::new(src));
            if c.delivered.contains(&msg_id) {
                // Stale retransmit of a completed message: the ACK
                // below silences the sender; nothing to reassemble.
                None
            } else {
                let entry = c.recv.entry(msg_id).or_insert(MsgRecv {
                    total: msg_len,
                    received: 0,
                    offsets: Default::default(),
                });
                if entry.total == 0 {
                    entry.total = msg_len;
                }
                let fresh = entry.offsets.insert(offset);
                if fresh {
                    entry.received += seg_len as u64;
                }
                let done = entry.total > 0 && entry.received >= entry.total;
                let total = entry.total;
                if done {
                    c.recv.remove(&msg_id);
                    c.delivered.insert(msg_id);
                    inner.stats.msgs_delivered += 1;
                    inner.stats.bytes_delivered += total;
                }
                done.then_some(total)
            }
        };

        // Ack immediately (tiny packet, negligible CPU charged with the
        // segment cost above).
        let ack = {
            let inner = self.inner.borrow();
            let mut w = Writer::with_capacity(32);
            w.u8(KIND_ACK)
                .u64(conn)
                .u64(msg_id)
                .u64(offset)
                .u32(seg_len);
            let mut pkt = Packet::new(inner.host, src, Bytes::from(w.finish()));
            pkt = pkt.with_rss_hash(conn);
            pkt
        };
        let fabric = self.inner.borrow().fabric.clone();
        let _ = fabric.transmit(sim, 0, ack);

        // Deliver to the app after its thread wakes.
        if let Some(total) = completed {
            let (wake_latency, cb) = {
                let mut inner = self.inner.borrow_mut();
                let lat = if inner.cfg.busy_poll {
                    inner.machine.borrow().spin_pickup()
                } else {
                    let (_core, lat) = inner.machine.borrow_mut().interrupt_wakeup(
                        sim.now(),
                        SchedClass::Cfs { nice: 0 },
                        Some(conn),
                    );
                    inner.cpu_busy += Nanos(costs::CONTEXT_SWITCH_NS);
                    lat
                };
                (lat, inner.on_message.clone())
            };
            if let Some(cb) = cb {
                // softirq -> socket -> application traversal, then the
                // app thread wake.
                let delay = Nanos(costs::TCP_STACK_LATENCY_NS) + wake_latency;
                sim.schedule_in(delay, move |sim| cb(sim, conn, msg_id, total));
            }
        }
    }

    fn process_ack(&self, sim: &mut Sim, r: &mut Reader<'_>) {
        let (Ok(conn), Ok(msg_id), Ok(offset), Ok(seg_len)) = (r.u64(), r.u64(), r.u64(), r.u32())
        else {
            return;
        };
        let resume = {
            let mut inner = self.inner.borrow_mut();
            let Some(c) = inner.conns.get_mut(&conn) else {
                return;
            };
            if c.inflight.remove(&(msg_id, offset)).is_some() {
                c.inflight_bytes = c.inflight_bytes.saturating_sub(seg_len as u64);
            }
            c.has_tx_work()
        };
        if resume {
            self.schedule_tx(sim, conn, Nanos::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_nic::fabric::FabricConfig;
    use snap_nic::nic::NicConfig;
    use std::cell::Cell;

    struct Pair {
        sim: Sim,
        a: TcpHost,
        b: TcpHost,
    }

    fn pair(cfg: TcpConfig, loss: f64) -> Pair {
        let fabric = FabricHandle::new(FabricConfig {
            loss_prob: loss,
            ..FabricConfig::default()
        });
        let machine_a: MachineHandle = Rc::new(RefCell::new(Machine::new(8, 1)));
        let machine_b: MachineHandle = Rc::new(RefCell::new(Machine::new(8, 2)));
        let ha = fabric.add_host(NicConfig {
            gbps: 100.0,
            ..NicConfig::default()
        });
        let hb = fabric.add_host(NicConfig {
            gbps: 100.0,
            ..NicConfig::default()
        });
        let a = TcpHost::new(ha, fabric.clone(), machine_a, cfg.clone());
        let b = TcpHost::new(hb, fabric, machine_b, cfg);
        Pair {
            sim: Sim::new(),
            a,
            b,
        }
    }

    #[test]
    fn small_message_delivers() {
        let mut p = pair(TcpConfig::default(), 0.0);
        let delivered = Rc::new(Cell::new(0u64));
        let d = delivered.clone();
        p.b.on_message(Rc::new(move |_sim, _conn, _msg, len| {
            d.set(d.get() + len);
        }));
        let conn = p.a.connect(1);
        p.a.send(&mut p.sim, conn, 1, 100);
        p.sim.run();
        assert_eq!(delivered.get(), 100);
        assert_eq!(p.b.stats().msgs_delivered, 1);
    }

    #[test]
    fn large_message_segments_and_delivers() {
        let mut p = pair(TcpConfig::default(), 0.0);
        let delivered = Rc::new(Cell::new(0u64));
        let d = delivered.clone();
        p.b.on_message(Rc::new(move |_s, _c, _m, len| d.set(len)));
        let conn = p.a.connect(1);
        p.a.send(&mut p.sim, conn, 7, 1_000_000);
        p.sim.run();
        assert_eq!(delivered.get(), 1_000_000);
        let segs = p.a.stats().segs_sent;
        // 1MB / 4096B = 245 segments.
        assert!((244..=246).contains(&segs), "segments {segs}");
    }

    #[test]
    fn lossy_fabric_is_recovered_by_retransmit() {
        let cfg = TcpConfig {
            rto: Nanos::from_millis(2),
            ..Default::default()
        };
        let mut p = pair(cfg, 0.05);
        let delivered = Rc::new(Cell::new(0u64));
        let d = delivered.clone();
        p.b.on_message(Rc::new(move |_s, _c, _m, len| d.set(len)));
        let conn = p.a.connect(1);
        p.a.send(&mut p.sim, conn, 1, 500_000);
        p.sim.run_until(Nanos::from_secs(2));
        assert_eq!(
            delivered.get(),
            500_000,
            "message must complete despite loss"
        );
        assert!(
            p.a.stats().retransmits > 0,
            "5% loss must cause retransmits"
        );
    }

    #[test]
    fn single_stream_throughput_matches_table1() {
        // Saturating one-way transfer; Table 1 says ~22 Gbps.
        let mut p = pair(TcpConfig::default(), 0.0);
        let bytes = Rc::new(Cell::new(0u64));
        let done_at = Rc::new(Cell::new(Nanos::ZERO));
        let (b, d) = (bytes.clone(), done_at.clone());
        p.b.on_message(Rc::new(move |s, _c, _m, len| {
            b.set(b.get() + len);
            d.set(s.now());
        }));
        let conn = p.a.connect(1);
        // 200 x 1MB messages, queued back to back.
        for m in 0..200 {
            p.a.send(&mut p.sim, conn, m, 1_000_000);
        }
        p.sim.run_until(Nanos::from_millis(100));
        assert_eq!(bytes.get(), 200_000_000, "transfer incomplete");
        let gbps = bytes.get() as f64 * 8.0 / done_at.get().as_secs_f64() / 1e9;
        assert!(
            (19.0..25.0).contains(&gbps),
            "TCP single-stream model gives {gbps:.1} Gbps, expected ~22"
        );
    }

    #[test]
    fn cpu_is_charged_on_both_sides() {
        let mut p = pair(TcpConfig::default(), 0.0);
        p.b.on_message(Rc::new(|_s, _c, _m, _l| {}));
        let conn = p.a.connect(1);
        p.a.send(&mut p.sim, conn, 1, 100_000);
        p.sim.run();
        assert!(p.a.cpu_busy() > Nanos::ZERO);
        assert!(p.b.cpu_busy() > Nanos::ZERO);
        // ~24 segments, each costing ~500-900ns per side.
        assert!(p.a.cpu_busy() > Nanos::from_micros(10));
    }

    #[test]
    fn many_streams_inflate_cost_factor() {
        let mut p = pair(TcpConfig::default(), 0.0);
        p.b.on_message(Rc::new(|_s, _c, _m, _l| {}));
        let conns: Vec<ConnKey> = (0..50).map(|_| p.a.connect(1)).collect();
        for (i, c) in conns.iter().enumerate() {
            p.a.send(&mut p.sim, *c, i as u64, 50_000);
        }
        {
            let inner = p.a.inner.borrow();
            assert!(inner.active_streams() >= 50);
        }
        p.sim.run_until(Nanos::from_millis(50));
        assert_eq!(p.b.stats().msgs_delivered, 50);
    }

    #[test]
    fn single_segment_messages_survive_loss() {
        // Regression: a resend used to carry msg_len = 0, so a
        // single-segment message whose only original packet was lost
        // could never complete reassembly at the receiver.
        let cfg = TcpConfig {
            rto: Nanos::from_millis(1),
            ..Default::default()
        };
        let mut p = pair(cfg, 0.2);
        let delivered = Rc::new(Cell::new(0u64));
        let d = delivered.clone();
        p.b.on_message(Rc::new(move |_s, _c, _m, _len| d.set(d.get() + 1)));
        let conn = p.a.connect(1);
        for m in 0..50 {
            p.a.send(&mut p.sim, conn, m, 100);
        }
        p.sim.run_until(Nanos::from_secs(2));
        assert_eq!(delivered.get(), 50, "every 1-segment message must deliver");
        assert!(p.a.stats().retransmits > 0, "20% loss must retransmit");
    }

    #[test]
    fn accepted_conn_sends_before_receiving() {
        let mut p = pair(TcpConfig::default(), 0.0);
        let got = Rc::new(Cell::new(0u64));
        let g = got.clone();
        p.a.on_message(Rc::new(move |_s, _c, _m, len| g.set(len)));
        // Host 0 dials host 1; host 1 pre-registers the reverse path
        // and speaks first.
        let conn = p.a.connect(1);
        p.b.accept(conn, 0);
        p.b.send(&mut p.sim, conn, 9, 4_000);
        p.sim.run();
        assert_eq!(got.get(), 4_000);
    }

    #[test]
    fn send_on_unknown_conn_panics() {
        let mut p = pair(TcpConfig::default(), 0.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.a.send(&mut p.sim, 999, 1, 10);
        }));
        assert!(result.is_err());
    }
}
