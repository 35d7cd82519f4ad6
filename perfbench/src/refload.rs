//! The host-speed reference: a small fixed workload timed alongside the
//! simulator, so that wall rates can be stated at one reference speed.
//!
//! The host this benchmark was tuned on changes speed by up to 2× in
//! phases of seconds to minutes, and code like the simulator's (a
//! timer heap, scattered per-flow state, short copies) slows down with
//! it. The reference does the same kind of work in a fixed amount: it
//! pops and pushes a timer heap and copies short runs between per-flow
//! regions of a 1 MiB table. It never allocates after it is built and
//! uses no hashing with per-process keys, so its running time depends
//! only on how fast the host runs such code at that moment, not on the
//! program under test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Flows, and `u64` words of state per flow (1 MiB in all).
const FLOWS: usize = 512;
const WORDS: usize = 256;
/// Heap operations in one timed chunk (0.3 to 0.6 ms on the tuning
/// host).
pub const CHUNK_OPS: u32 = 4_000;
/// Chunks per measurement. The first runs with caches that the
/// simulator left cold, so a measurement takes the median.
pub const CHUNKS: usize = 5;
/// A chunk's nominal time, s: wall rates are stated at the speed at
/// which a chunk takes this long. Never change it, or rates stop being
/// comparable with earlier runs.
pub const NOMINAL_S: f64 = 0.0006;

/// The reference workload's state; build once per process.
pub struct Reference {
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<u64>,
    x: u64,
    /// Folded results, so the work cannot be optimised away.
    pub sink: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the table and the timer heap.
    pub fn new() -> Reference {
        let mut timers = BinaryHeap::with_capacity(FLOWS + 1);
        for f in 0..FLOWS as u32 {
            timers.push(Reverse((u64::from(f), f)));
        }
        let state = (0..(FLOWS * WORDS) as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Reference {
            timers,
            state,
            x: 0x2545_F491_4F6C_DD1D,
            sink: 0,
        }
    }

    /// Runs one chunk of [`CHUNK_OPS`] operations; returns its wall
    /// time, s.
    pub fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..CHUNK_OPS {
            let Reverse((now, f)) = self.timers.pop().expect("the heap never empties");
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let x = self.x;
            let len = 8 + (x & 31) as usize;
            let from = f as usize * WORDS + (x >> 8) as usize % (WORDS - len);
            let to_flow = (x >> 24) as usize % FLOWS;
            let to = to_flow * WORDS + (x >> 40) as usize % (WORDS - len);
            self.state.copy_within(from..from + len, to);
            self.state[to] ^= x;
            self.sink = self.sink.wrapping_add(self.state[to + len / 2]);
            self.timers
                .push(Reverse((now + 1 + (x & 255), to_flow as u32)));
        }
        t.elapsed().as_secs_f64()
    }

    /// The host's slowness relative to the reference speed: the median
    /// time of [`CHUNKS`] chunks ÷ [`NOMINAL_S`] (2.0 means it runs half
    /// as fast).
    pub fn slowness(&mut self) -> f64 {
        let mut times = [0.0; CHUNKS];
        for t in &mut times {
            *t = self.chunk();
        }
        times.sort_by(f64::total_cmp);
        times[CHUNKS / 2] / NOMINAL_S
    }
}

thread_local! {
    static REFERENCE: std::cell::RefCell<Reference> = std::cell::RefCell::new(Reference::new());
}

/// Times this thread's reference workload: the host's slowness now
/// (see [`Reference::slowness`]).
pub fn slowness() -> f64 {
    REFERENCE.with(|r| r.borrow_mut().slowness())
}
