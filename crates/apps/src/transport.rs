//! The facade's transport abstraction and its two backends.
//!
//! A [`Transport`] moves opaque *chunks* (seq-numbered, length-modeled)
//! between connection endpoints. The sockets layer cuts byte streams
//! into chunks, hands them here, and reassembles in seq order on the
//! far side; real payload bytes ride a side ledger shared between the
//! two facade endpoints, because both underlying stacks model payloads
//! by length only.
//!
//! Backend mapping:
//! - **Pony**: each chunk is a two-sided [`PonyCommand::Send`] whose
//!   *stream id is the chunk seq* (message 0 of its own stream). Stream
//!   ids are the one per-message identifier the engine echoes to the
//!   receiver that is assigned by the app rather than by admission, so
//!   a quota `Busy` rejection (which happens before message-id
//!   assignment) can be retried under the same identity without
//!   desyncing the seq space — exactly-once is preserved end to end.
//!   Chunks are capped at the engine's small-message size, so shared
//!   per-connection credits flow-control them and over-commit lands in
//!   the engine's held queue (back-pressure, never loss).
//! - **Tcp**: each chunk is one `TcpHost` message with `msg_id` = seq.
//!   A host runs a single kernel stack, so one [`TcpRouter`] per host
//!   demuxes the stack's delivery callback to per-app sinks by
//!   connection. TCP reassembly can complete messages out of order;
//!   the sockets layer's reorder buffer restores stream order.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::cell::RefCell;
use std::rc::Rc;

use snap_pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_sim::hash::HashMap;
use snap_sim::{Nanos, Sim};
use snap_tcp::stack::TcpHost;

/// Which stack carries an app's facade traffic. Chosen per app at
/// testbed construction; both ends of a connection must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The kernel-TCP cost model (`snap_tcp`).
    Tcp,
    /// The Pony Express engine client (`snap_pony`).
    Pony,
}

impl Backend {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Tcp => "tcp",
            Backend::Pony => "pony",
        }
    }
}

/// Largest chunk the facade submits in one transport op. Matches the
/// Pony engine's small-message bound so chunks ride shared credits
/// (self-clocking flow control) and the kernel model's TCP segment
/// size, keeping the two backends' unit of work comparable.
pub const CHUNK_BYTES: usize = 4096;

/// What a backend reports back to the sockets layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// Chunk `seq` on `conn` fully arrived at this endpoint.
    Delivered {
        /// Connection id.
        conn: u64,
        /// Chunk sequence number.
        seq: u64,
    },
    /// The local engine refused chunk `seq` with back-pressure
    /// (`OpStatus::Busy`); nothing entered the transport, retry later.
    SendBusy {
        /// Connection id.
        conn: u64,
        /// Chunk sequence number.
        seq: u64,
    },
    /// Chunk `seq` was accepted end to end (sender-side ack).
    SendDone {
        /// Connection id.
        conn: u64,
        /// Chunk sequence number.
        seq: u64,
    },
    /// The transport failed the chunk terminally.
    SendFailed {
        /// Connection id.
        conn: u64,
        /// Chunk sequence number.
        seq: u64,
    },
}

/// A chunk transport backend. Object-safe; the sockets layer owns one
/// per facade host.
pub trait Transport {
    /// The backend flavor, for mismatch checks and reports.
    fn backend(&self) -> Backend;
    /// Tells the backend about a connection it will carry (the dial
    /// handshake is testbed-mediated).
    fn register_conn(&mut self, conn: u64);
    /// Submits chunk `seq` of `len` bytes on `conn`.
    fn send_chunk(&mut self, sim: &mut Sim, conn: u64, seq: u64, len: u64);
    /// Drains backend completions into `out`.
    fn poll(&mut self, now: Nanos, out: &mut Vec<TransportEvent>);
}

/// Pony backend: one engine session per facade host.
pub struct PonyTransport {
    client: PonyClient,
    /// Outstanding send ops: op id -> (conn, chunk seq).
    ops: HashMap<u64, (u64, u64)>,
}

impl PonyTransport {
    /// Wraps an open session (created by the testbed via
    /// `PonyModule::open_session`, which also wires tracing).
    pub fn new(client: PonyClient) -> Self {
        PonyTransport {
            client,
            ops: HashMap::default(),
        }
    }
}

impl Transport for PonyTransport {
    fn backend(&self) -> Backend {
        Backend::Pony
    }

    fn register_conn(&mut self, _conn: u64) {}

    fn send_chunk(&mut self, sim: &mut Sim, conn: u64, seq: u64, len: u64) {
        // Chunk seq as stream id: message 0 of stream `seq`. See the
        // module docs for why this survives Busy retries.
        let op = self.client.submit(
            sim,
            PonyCommand::Send {
                conn,
                stream: seq as u32,
                len,
            },
        );
        self.ops.insert(op, (conn, seq));
    }

    fn poll(&mut self, now: Nanos, out: &mut Vec<TransportEvent>) {
        self.client.poll_at(now);
        for c in self.client.take_completions_at(now) {
            match c {
                PonyCompletion::RecvMsg { conn, stream, .. } => {
                    out.push(TransportEvent::Delivered {
                        conn,
                        seq: stream as u64,
                    });
                }
                PonyCompletion::OpDone { op, status, .. } => {
                    let Some((conn, seq)) = self.ops.remove(&op) else {
                        continue;
                    };
                    out.push(match status {
                        OpStatus::Ok => TransportEvent::SendDone { conn, seq },
                        OpStatus::Busy => TransportEvent::SendBusy { conn, seq },
                        _ => TransportEvent::SendFailed { conn, seq },
                    });
                }
            }
        }
    }
}

type Sink = Rc<RefCell<Vec<TransportEvent>>>;

/// Demuxes one host's kernel-TCP stack across facade apps. The stack
/// has a single delivery callback; the router fans deliveries out to
/// per-app sinks by connection id.
#[derive(Clone)]
pub struct TcpRouter {
    tcp: TcpHost,
    sinks: Rc<RefCell<HashMap<u64, Sink>>>,
}

impl TcpRouter {
    /// Wraps `tcp` and takes over its delivery callback.
    pub fn new(tcp: TcpHost) -> Self {
        let sinks: Rc<RefCell<HashMap<u64, Sink>>> = Rc::default();
        let by_conn = sinks.clone();
        tcp.on_message(Rc::new(move |_sim, conn, msg_id, _len| {
            if let Some(sink) = by_conn.borrow().get(&conn) {
                sink.borrow_mut()
                    .push(TransportEvent::Delivered { conn, seq: msg_id });
            }
        }));
        TcpRouter { tcp, sinks }
    }

    /// The wrapped stack (for dialing: `connect` / `accept`).
    pub fn tcp(&self) -> &TcpHost {
        &self.tcp
    }
}

/// TCP backend: one per facade app, sharing the host's [`TcpRouter`].
pub struct TcpTransport {
    router: TcpRouter,
    sink: Sink,
}

impl TcpTransport {
    /// An app-side endpoint over the host's shared router.
    pub fn new(router: TcpRouter) -> Self {
        TcpTransport {
            router,
            sink: Rc::new(RefCell::new(Vec::new())),
        }
    }
}

impl Transport for TcpTransport {
    fn backend(&self) -> Backend {
        Backend::Tcp
    }

    fn register_conn(&mut self, conn: u64) {
        self.router
            .sinks
            .borrow_mut()
            .insert(conn, self.sink.clone());
    }

    fn send_chunk(&mut self, sim: &mut Sim, conn: u64, seq: u64, len: u64) {
        // Kernel TCP applies its own window; chunks queue in-stack.
        // Delivery acks are implicit (reliable byte stream), so a
        // SendDone is synthesized immediately to release the facade
        // window — loss recovery is the stack's job, not the facade's.
        self.router.tcp.send(sim, conn, seq, len);
        self.sink
            .borrow_mut()
            .push(TransportEvent::SendDone { conn, seq });
    }

    fn poll(&mut self, _now: Nanos, out: &mut Vec<TransportEvent>) {
        out.append(&mut self.sink.borrow_mut());
    }
}
