//! Property-based tests over the core data structures and protocol
//! invariants, per the DESIGN.md testing strategy.

use proptest::prelude::*;

use snap_repro::isolation::{AdmissionController, QuotaPolicy};
use snap_repro::nic::crc::{crc32c, crc32c_append};
use snap_repro::shm::account::CpuAccountant;
use snap_repro::pony::flow::{Accept, Flow};
use snap_repro::pony::timely::{Timely, TimelyConfig};
use snap_repro::pony::wire::{OpFrame, PonyPacket};
use snap_repro::shm::account::MemoryAccountant;
use snap_repro::shm::pool::BufferPool;
use snap_repro::shm::spsc::SpscRing;
use snap_repro::sim::codec::{Reader, Writer};
use snap_repro::sim::{Histogram, Nanos};

proptest! {
    /// The SPSC ring behaves exactly like a bounded FIFO queue.
    #[test]
    fn spsc_ring_matches_model(
        capacity in 1usize..64,
        ops in proptest::collection::vec(proptest::option::of(0u64..1000), 1..200)
    ) {
        let (p, c) = SpscRing::with_capacity::<u64>(capacity);
        let real_cap = capacity.max(2).next_power_of_two();
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    let pushed = p.push(v).is_ok();
                    let model_pushed = model.len() < real_cap;
                    prop_assert_eq!(pushed, model_pushed, "push acceptance diverged");
                    if model_pushed {
                        model.push_back(v);
                    }
                }
                None => {
                    prop_assert_eq!(c.pop(), model.pop_front(), "pop diverged");
                }
            }
            prop_assert_eq!(c.len(), model.len());
        }
        // Drain: order fully preserved.
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(c.pop(), Some(expected));
        }
        prop_assert_eq!(c.pop(), None);
    }

    /// The buffer pool never double-allocates a slot and never loses
    /// one.
    #[test]
    fn buffer_pool_slots_are_exclusive(
        count in 1usize..32,
        ops in proptest::collection::vec(any::<bool>(), 1..200)
    ) {
        let pool = BufferPool::new(count, 16, &MemoryAccountant::new(), "prop");
        let mut held = Vec::new();
        for alloc in ops {
            if alloc {
                if let Some(buf) = pool.alloc() {
                    prop_assert!(
                        held.iter().all(|b: &snap_repro::shm::pool::PooledBuf| b.index() != buf.index()),
                        "slot {} handed out twice", buf.index()
                    );
                    held.push(buf);
                }
            } else {
                held.pop();
            }
            prop_assert_eq!(held.len() + pool.available(), count);
        }
    }

    /// CRC32C streaming equals one-shot for every split point.
    #[test]
    fn crc32c_append_equals_whole(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let whole = crc32c(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            prop_assert_eq!(crc32c_append(crc32c(a), b), whole);
        }
    }

    /// Wire packets decode back to themselves for arbitrary field
    /// values.
    #[test]
    fn wire_roundtrip(
        flow in any::<u64>(),
        seq in any::<u64>(),
        cum in any::<u64>(),
        conn in any::<u64>(),
        stream in any::<u32>(),
        msg in any::<u64>(),
        offset in any::<u64>(),
        total in any::<u64>(),
        len in any::<u32>(),
        sacks in proptest::collection::vec(any::<u64>(), 0..16),
        trace in proptest::option::of((any::<u64>(), any::<u32>(), any::<bool>())),
    ) {
        // Trace contexts ride the v6 header; v5 has no field for them.
        let trace = trace.map(|(trace_id, parent_span, sampled)| {
            snap_repro::sim::trace::TraceContext { trace_id, parent_span, sampled }
        });
        let pkt = PonyPacket {
            version: if trace.is_some() { 6 } else { 5 },
            flow,
            seq,
            cum_ack: cum,
            sacks,
            trace,
            frame: OpFrame::MsgChunk { conn, stream, msg, offset, total, len },
        };
        prop_assert_eq!(PonyPacket::decode(&pkt.encode()).unwrap(), pkt);
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn wire_decode_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = PonyPacket::decode(&garbage);
    }

    /// The codec reader rejects or exactly reproduces; never panics.
    #[test]
    fn codec_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..50)) {
        let mut w = Writer::new();
        for v in &vals {
            w.u64(*v);
        }
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        for v in &vals {
            prop_assert_eq!(r.u64().unwrap(), *v);
        }
        prop_assert!(r.is_exhausted());
    }

    /// Reliable-flow invariant: under ANY pattern of packet loss and
    /// reordering, every enqueued frame is delivered to the receiver's
    /// upper layer at least once and duplicates are bounded by the
    /// retransmission count.
    #[test]
    fn flow_delivers_everything_under_loss(
        nframes in 1usize..30,
        drop_pattern in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut tx = Flow::new(1, 5, TimelyConfig::default());
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        for i in 0..nframes {
            tx.enqueue(
                OpFrame::MsgChunk {
                    conn: 1,
                    stream: 0,
                    msg: i as u64,
                    offset: 0,
                    total: 10,
                    len: 10,
                },
                Nanos::ZERO,
            );
        }
        let mut delivered = std::collections::HashSet::new();
        let mut acked = Vec::new();
        let mut drops = drop_pattern.into_iter();
        let mut now = Nanos::ZERO;
        // Drive for bounded virtual time: produce, maybe drop, deliver,
        // ack back, check RTOs.
        for _round in 0..2000 {
            now += Nanos::from_micros(50);
            while let Some(pkt) = tx.produce(now) {
                let dropped = drops.next().unwrap_or(false);
                if dropped {
                    continue;
                }
                if let Accept::Deliver(OpFrame::MsgChunk { msg, .. }) =
                    rx.on_packet_tracked(&pkt, now, &mut acked)
                {
                    delivered.insert(msg);
                }
            }
            // Receiver acks (acks can also be dropped).
            while let Some(ack) = rx.produce(now) {
                if drops.next().unwrap_or(false) {
                    continue;
                }
                tx.on_packet(&ack, now);
            }
            tx.check_rto(now);
            if delivered.len() == nframes && tx.inflight() == 0 && tx.pending_tx() == 0 {
                break;
            }
        }
        prop_assert_eq!(delivered.len(), nframes, "not all frames delivered");
    }

    /// Timely's rate stays within its configured bounds for any RTT
    /// sample sequence.
    #[test]
    fn timely_rate_bounded(rtts in proptest::collection::vec(1_000u64..10_000_000, 1..200)) {
        let cfg = TimelyConfig::default();
        let (min, max) = (cfg.min_rate, cfg.max_rate);
        let mut t = Timely::new(cfg);
        for rtt in rtts {
            t.on_rtt_sample(Nanos(rtt));
            prop_assert!(t.rate() >= min && t.rate() <= max);
        }
    }

    /// Histogram quantiles are monotone and bracketed by min/max for
    /// arbitrary data.
    #[test]
    fn histogram_quantiles_sane(values in proptest::collection::vec(any::<u32>(), 1..300)) {
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v as u64);
        }
        let mut last = 0u64;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            prop_assert!(q >= last, "quantile not monotone");
            prop_assert!(q >= h.min() && q <= h.max());
            last = q;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// Flow upgrade serialization round-trips: a restored flow
    /// retransmits everything unacked and continues the sequence space
    /// without collision.
    #[test]
    fn flow_snapshot_roundtrip(
        nsend in 0usize..20,
        nproduce in 0usize..20,
    ) {
        let mut f = Flow::new(9, 4, TimelyConfig::default());
        for i in 0..nsend {
            f.enqueue(
                OpFrame::MsgChunk {
                    conn: 2,
                    stream: 1,
                    msg: i as u64,
                    offset: 0,
                    total: 5,
                    len: 5,
                },
                Nanos::ZERO,
            );
        }
        let mut produced = 0;
        let mut t = Nanos::ZERO;
        for _ in 0..nproduce.min(nsend) {
            t += Nanos::from_millis(1);
            if f.produce(t).is_some() {
                produced += 1;
            }
        }
        let restored = Flow::deserialize(&f.serialize(), TimelyConfig::default(), t).expect("well-formed snapshot restores");
        // Everything unacked (all produced) + queued is pending again.
        prop_assert_eq!(restored.pending_tx(), nsend);
        prop_assert_eq!(restored.id, 9);
        prop_assert_eq!(restored.version, 4);
        let _ = produced;
    }

    /// Quota invariant: under arbitrary interleavings of charges,
    /// releases, policy resizes and pressure squeezes across several
    /// containers, an admitted charge NEVER pushes usage past the
    /// container's effective hard limit at that moment, the
    /// controller's usage always matches an exact model, and matched
    /// charge/release traffic never trips the accounting-error counter.
    #[test]
    fn admission_never_exceeds_quota(
        ops in proptest::collection::vec(
            (0u8..4, 0usize..3, 1u64..100_000, 0u64..100),
            1..300
        )
    ) {
        let adm = AdmissionController::new(
            snap_repro::shm::account::MemoryAccountant::new(),
            CpuAccountant::new(),
        );
        let names = ["a", "b", "c"];
        // Model state per container: usage, (soft, hard), squeeze.
        let mut usage = [0u64; 3];
        let mut policy = [(u64::MAX, u64::MAX); 3];
        let mut squeeze = [0.0f64; 3];
        // Mirror of the crate's `effective` clamp.
        let eff = |limit: u64, sq: f64| -> u64 {
            if limit == u64::MAX || sq <= 0.0 {
                limit
            } else {
                (limit as f64 * (1.0 - sq.clamp(0.0, 1.0))) as u64
            }
        };
        for (kind, c, bytes, pct) in ops {
            let name = names[c];
            match kind {
                0 => {
                    let admitted = adm.try_charge(name, bytes).is_ok();
                    let hard = eff(policy[c].1, squeeze[c]);
                    if admitted {
                        usage[c] += bytes;
                        prop_assert!(
                            usage[c] <= hard,
                            "admitted past the effective hard limit: {} > {}",
                            usage[c],
                            hard
                        );
                    } else {
                        // A refusal must have been justified.
                        prop_assert!(
                            usage[c].checked_add(bytes).map(|n| n > hard).unwrap_or(true),
                            "refused a charge that fit: {} + {} <= {}",
                            usage[c],
                            bytes,
                            hard
                        );
                    }
                }
                1 => {
                    // Only release what the model knows was charged, so
                    // the accountant never sees an unmatched release.
                    let r = bytes.min(usage[c]);
                    if r > 0 {
                        adm.release(name, r);
                        usage[c] -= r;
                    }
                }
                2 => {
                    let hard = bytes.saturating_mul(2);
                    adm.set_policy(name, QuotaPolicy::with_mem(bytes, hard));
                    policy[c] = (bytes, hard);
                }
                _ => {
                    let f = pct as f64 / 100.0;
                    adm.apply_pressure(name, f);
                    squeeze[c] = f.clamp(0.0, 1.0);
                }
            }
            prop_assert_eq!(adm.usage(name), usage[c], "usage diverged from model");
        }
        prop_assert_eq!(adm.accounting_errors(), 0);
    }
}
