//! Engine groups and the three engine-scheduling modes (§2.4).
//!
//! "Snap accommodates each of these cases with support for bundling
//! engines into groups with a specific scheduling mode, which dictates
//! a scheduling algorithm and CPU resource constraints."
//!
//! * **Dedicating cores** — engines pinned to dedicated hyperthreads,
//!   spin-polling; CPU does not scale with load but latency is minimal.
//!   When CPU constrained (more engines than cores) the runtime
//!   fair-shares by multiplexing engines round-robin on the workers.
//! * **Spreading engines** — one thread per engine; blocks on
//!   interrupt notification when idle and wakes through the MicroQuanta
//!   class with priority. Best tail latency given enough cores, at the
//!   cost of per-wake interrupt/context-switch overhead.
//! * **Compacting engines** — work collapses onto as few cores as
//!   possible; a rebalancer polls engine queueing delays (estimated
//!   Shenango-style from the age of the oldest pending item) and scales
//!   out when the delay exceeds the latency SLO, migrating engines back
//!   and compacting when load subsides.
//!
//! The runtime here is simulator-driven: workers are virtual threads
//! whose wakeups, slices, and spin time are charged against the shared
//! [`snap_sched::Machine`] and metered for the Fig. 6(b) CPU curves.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_shm::account::CpuAccountant;
use snap_sim::costs;
use snap_sim::stats::Histogram;
use snap_sim::{Nanos, Sim};

use snap_sched::classes::{MicroQuantaBudget, SchedClass};
use snap_sched::machine::{CoreId, Machine};

use crate::engine::{Engine, EngineId, RunReport, VacantEngine};
use crate::module::ControlError;

/// Shared machine handle (matches `snap_sched::antagonist::MachineHandle`).
pub type MachineHandle = Rc<RefCell<Machine>>;

/// Depth-1 control work executed on an engine's worker before its next
/// pass (the engine mailbox, §2.3).
pub type MailboxWork = Box<dyn FnOnce(&mut dyn Engine)>;

/// Completion callback of a backoff-retried mailbox RPC; fires exactly
/// once with the post outcome.
pub type PostResult = Box<dyn FnOnce(&mut Sim, Result<(), ControlError>)>;

/// The scheduling mode of an engine group (§2.4, Fig. 3).
#[derive(Debug, Clone)]
pub enum SchedulingMode {
    /// Pin engines to dedicated spinning hyperthreads.
    Dedicated {
        /// Cores granted to this group; engines are distributed
        /// round-robin and fair-shared when outnumbering cores.
        cores: Vec<CoreId>,
    },
    /// One interrupt-driven MicroQuanta thread per engine.
    Spreading,
    /// Collapse onto few cores; scale by queueing-delay SLO.
    Compacting {
        /// Queueing-delay SLO that triggers scale-out.
        slo: Nanos,
        /// Rebalancer polling interval (non-preemptive polling is the
        /// latency floor of this mode, §2.4).
        rebalance_poll: Nanos,
        /// Idle time after which the last spinning worker blocks, to
        /// "scale down to less than a full core".
        idle_block: Nanos,
    },
}

impl SchedulingMode {
    /// The default compacting configuration used in the evaluation.
    pub fn compacting_default() -> SchedulingMode {
        SchedulingMode::Compacting {
            slo: Nanos::from_micros(50),
            rebalance_poll: Nanos::from_micros(10),
            idle_block: Nanos::from_micros(100),
        }
    }
}

/// Group construction parameters.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Group name (dashboards, upgrade logs).
    pub name: String,
    /// Scheduling mode.
    pub mode: SchedulingMode,
    /// Kernel scheduling class for the group's worker threads; `None`
    /// picks the mode's default (FIFO for dedicated cores, MicroQuanta
    /// otherwise). Fig. 6(d) sets `Some(Cfs { nice: -20 })` to compare
    /// MicroQuanta against the best CFS can do.
    pub class: Option<SchedClass>,
}

impl GroupConfig {
    /// Config with the mode's default scheduling class.
    pub fn new(name: impl Into<String>, mode: SchedulingMode) -> Self {
        GroupConfig {
            name: name.into(),
            mode,
            class: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum WorkerState {
    /// Spin-polling with no work; `since` starts the idle-spin clock.
    SpinningIdle { since: Nanos },
    /// Parked on interrupt notification.
    Blocked,
    /// A wakeup or run pass is already scheduled.
    Scheduled,
}

struct Worker {
    engines: Vec<EngineId>,
    state: WorkerState,
    core: CoreId,
    /// Spinning workers burn their core while idle; blocked workers
    /// pay a wake cost instead.
    spins: bool,
    budget: Option<MicroQuantaBudget>,
    /// Cancels the pending "block after idling" event, if any.
    idle_block_event: Option<snap_sim::EventHandle>,
}

struct Slot {
    engine: Box<dyn Engine>,
    worker: usize,
    /// Depth-1 deferred control work (the engine mailbox, §2.3),
    /// executed on the engine's worker at the start of its next pass.
    mailbox: Option<MailboxWork>,
    last_report: RunReport,
    /// When the engine last completed a run pass — the progress
    /// heartbeat sampled by the supervisor for wedge detection.
    last_pass: Nanos,
}

/// A supervisor-facing snapshot of one engine's liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHealth {
    /// Items the engine reports pending (0 for a crashed engine — its
    /// state is gone).
    pub pending: u64,
    /// Virtual time of the engine's last completed run pass.
    pub last_pass: Nanos,
    /// True once [`GroupHandle::kill_engine`] destroyed the engine.
    pub crashed: bool,
    /// True while the engine is suspended (upgrade/restart in flight).
    pub suspended: bool,
}

/// Aggregated CPU consumption of a group.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCpu {
    /// CPU spent inside engine passes (useful work + poll passes).
    pub engine: Nanos,
    /// CPU burned spin-polling while idle.
    pub spin: Nanos,
    /// Interrupt + context-switch overhead of blocked-thread wakeups.
    pub wake_overhead: Nanos,
}

impl GroupCpu {
    /// Total CPU across all categories.
    pub fn total(&self) -> Nanos {
        self.engine + self.spin + self.wake_overhead
    }
}

/// CPU this group consumed on one core, split by category — the
/// per-core attribution behind the paper's Table 1 / Fig. 5 efficiency
/// comparison. Every nanosecond in [`GroupCpu`] is simultaneously
/// charged to exactly one core, so summing [`CoreCpu::total`] across
/// [`GroupHandle::core_cpu`] reproduces [`GroupCpu::total`] exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCpu {
    /// CPU spent inside engine passes on this core.
    pub busy: Nanos,
    /// CPU burned spin-polling (idle spin + poll-waits) on this core.
    pub spin: Nanos,
    /// Interrupt + context-switch overhead paid on this core.
    pub wake_overhead: Nanos,
}

impl CoreCpu {
    /// Total CPU across all categories on this core.
    pub fn total(&self) -> Nanos {
        self.busy + self.spin + self.wake_overhead
    }
}

/// An engine group plus its scheduling runtime state.
pub struct EngineGroup {
    name: String,
    mode: SchedulingMode,
    class_override: Option<SchedClass>,
    slots: Vec<Option<Slot>>,
    workers: Vec<Worker>,
    machine: MachineHandle,
    cpu: GroupCpu,
    /// Per-core split of `cpu`: every accrual lands in both, keyed by
    /// the core it was charged on (deterministic iteration).
    core_cpu: BTreeMap<CoreId, CoreCpu>,
    /// Cumulative engine-pass CPU per engine slot (slowdown-inflated,
    /// like the group totals). Sums to `cpu.engine`.
    engine_cpu: Vec<Nanos>,
    accountant: CpuAccountant,
    next_core: usize,
    started: bool,
    /// Set by [`GroupHandle::stop`]; ends the rebalancer loop so a
    /// drained simulation can terminate.
    stopped: bool,
    /// Engines currently detached for upgrade are not scheduled.
    suspended: Vec<bool>,
    /// Engines destroyed by fault injection ([`GroupHandle::kill_engine`]).
    crashed: Vec<bool>,
    /// Wedged engines make no progress until this virtual time.
    stalled_until: Vec<Nanos>,
    /// Per-engine CPU inflation factor (gray-failure model: a
    /// slow-degrading engine burns `factor`× CPU per pass, stretching
    /// its dequeue latency without ever crashing). 1.0 = healthy.
    slowdown: Vec<f64>,
    /// Seeded jitter stream for mailbox-retry backoff, so concurrent
    /// retriers against the same busy mailbox don't synchronize into
    /// waves (they'd otherwise collide forever at identical delays).
    retry_rng: snap_sim::Rng,
    /// Scheduling delay of every wake that had to schedule a worker:
    /// spin pickup for a spinning worker, interrupt wake latency for a
    /// blocked one. The per-mode distribution behind the trace layer's
    /// engine-dequeue gap and Fig. 3's latency/CPU trade-off.
    sched_delay: Histogram,
    /// Reusable copy of a worker's engine ids for one pass, so the pass
    /// allocates nothing (a nested pass finds it taken and uses its own).
    pass_ids: Vec<EngineId>,
}

impl EngineGroup {
    fn sched_class(&self) -> SchedClass {
        if let Some(class) = self.class_override {
            return class;
        }
        match self.mode {
            SchedulingMode::Dedicated { .. } => SchedClass::Fifo,
            _ => SchedClass::microquanta_default(),
        }
    }
}

/// Cloneable handle to a shared [`EngineGroup`]; the public API.
#[derive(Clone)]
pub struct GroupHandle {
    inner: Rc<RefCell<EngineGroup>>,
}

impl GroupHandle {
    /// Creates an empty group on `machine`.
    pub fn new(cfg: GroupConfig, machine: MachineHandle, accountant: CpuAccountant) -> Self {
        GroupHandle {
            inner: Rc::new(RefCell::new(EngineGroup {
                name: cfg.name,
                mode: cfg.mode,
                class_override: cfg.class,
                slots: Vec::new(),
                workers: Vec::new(),
                machine,
                cpu: GroupCpu::default(),
                core_cpu: BTreeMap::new(),
                engine_cpu: Vec::new(),
                accountant,
                next_core: 0,
                started: false,
                stopped: false,
                suspended: Vec::new(),
                crashed: Vec::new(),
                stalled_until: Vec::new(),
                slowdown: Vec::new(),
                retry_rng: snap_sim::Rng::new(0x6261_636b).stream(0x6f_6666),
                sched_delay: Histogram::new(),
                pass_ids: Vec::new(),
            })),
        }
    }

    /// Group name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Adds an engine; returns its id. May be called before or after
    /// [`GroupHandle::start`].
    pub fn add_engine(&self, engine: Box<dyn Engine>) -> EngineId {
        let mut g = self.inner.borrow_mut();
        let id = EngineId(g.slots.len() as u32);
        let worker = match g.mode {
            SchedulingMode::Dedicated { ref cores } => {
                // One spinning worker per granted core; engines beyond
                // the core count fair-share existing workers.
                let wi = g.slots.len() % cores.len().max(1);
                if g.workers.len() <= wi {
                    let core = cores.get(wi).copied().unwrap_or(0);
                    g.machine.borrow_mut().set_spinning(core, true);
                    g.workers.push(Worker {
                        engines: Vec::new(),
                        state: WorkerState::SpinningIdle { since: Nanos::ZERO },
                        core,
                        spins: true,
                        budget: None,
                        idle_block_event: None,
                    });
                }
                wi
            }
            SchedulingMode::Spreading => {
                // One blocked worker per engine, MicroQuanta bandwidth.
                let core = g.next_core;
                let num_cores = g.machine.borrow().num_cores();
                g.next_core = (g.next_core + 1) % num_cores;
                g.workers.push(Worker {
                    engines: Vec::new(),
                    state: WorkerState::Blocked,
                    core,
                    spins: false,
                    budget: Some(MicroQuantaBudget::default_engine()),
                    idle_block_event: None,
                });
                g.workers.len() - 1
            }
            SchedulingMode::Compacting { .. } => {
                // All engines start on the primary spinning worker.
                if g.workers.is_empty() {
                    g.machine.borrow_mut().set_spinning(0, true);
                    g.workers.push(Worker {
                        engines: Vec::new(),
                        state: WorkerState::SpinningIdle { since: Nanos::ZERO },
                        core: 0,
                        spins: true,
                        budget: Some(MicroQuantaBudget::default_engine()),
                        idle_block_event: None,
                    });
                }
                0
            }
        };
        g.workers[worker].engines.push(id);
        g.slots.push(Some(Slot {
            engine,
            worker,
            mailbox: None,
            last_report: RunReport::default(),
            last_pass: Nanos::ZERO,
        }));
        g.suspended.push(false);
        g.crashed.push(false);
        g.stalled_until.push(Nanos::ZERO);
        g.slowdown.push(1.0);
        g.engine_cpu.push(Nanos::ZERO);
        id
    }

    /// Starts the group runtime (rebalancer for compacting mode).
    pub fn start(&self, sim: &mut Sim) {
        let (rebalance, started) = {
            let mut g = self.inner.borrow_mut();
            let started = g.started;
            g.started = true;
            match g.mode {
                SchedulingMode::Compacting { rebalance_poll, .. } => {
                    (Some(rebalance_poll), started)
                }
                _ => (None, started),
            }
        };
        if started {
            return;
        }
        if let Some(poll) = rebalance {
            let handle = self.clone();
            snap_sim::event::every(sim, sim.now() + poll, poll, move |sim| {
                if handle.inner.borrow().stopped {
                    return false;
                }
                handle.rebalance(sim);
                true
            });
        }
    }

    /// Overrides the kernel scheduling class for this group's workers
    /// (Fig. 6d compares MicroQuanta against CFS nice -20).
    pub fn set_class_override(&self, class: SchedClass) {
        self.inner.borrow_mut().class_override = Some(class);
    }

    /// Stops the group's background rebalancer (compacting mode); the
    /// simulation can then drain. Engines already scheduled finish
    /// their work.
    pub fn stop(&self) {
        self.inner.borrow_mut().stopped = true;
    }

    /// Engine ids currently in the group.
    pub fn engine_ids(&self) -> Vec<EngineId> {
        let g = self.inner.borrow();
        (0..g.slots.len() as u32)
            .map(EngineId)
            .filter(|id| g.slots[id.0 as usize].is_some())
            .collect()
    }

    /// Returns a cloneable wake callback for an engine, safe to invoke
    /// from any simulator event (it defers through the event queue, so
    /// calling it from inside a pass cannot re-enter the runtime).
    pub fn wake_handle(&self, id: EngineId) -> Rc<dyn Fn(&mut Sim)> {
        let handle = self.clone();
        Rc::new(move |sim: &mut Sim| {
            let handle = handle.clone();
            sim.schedule_at(sim.now(), move |sim| handle.wake(sim, id));
        })
    }

    /// Signals that an engine has new work (packet arrival, command
    /// submission, timer). Schedules its worker if necessary.
    pub fn wake(&self, sim: &mut Sim, id: EngineId) {
        let now = sim.now();
        let (worker_idx, action) = {
            let mut g = self.inner.borrow_mut();
            if g.suspended[id.0 as usize]
                || g.crashed[id.0 as usize]
                || g.slots[id.0 as usize].is_none()
            {
                return;
            }
            let wi = g.slots[id.0 as usize].as_ref().expect("checked above").worker;
            let class = g.sched_class();
            let w = &mut g.workers[wi];
            match w.state {
                WorkerState::Scheduled => (wi, None),
                WorkerState::SpinningIdle { since } => {
                    if let Some(ev) = w.idle_block_event.take() {
                        ev.cancel();
                    }
                    w.state = WorkerState::Scheduled;
                    let core = w.core;
                    let accrued = now.saturating_sub(since);
                    g.cpu.spin += accrued;
                    g.core_cpu.entry(core).or_default().spin += accrued;
                    (wi, Some(Nanos(costs::SPIN_PICKUP_NS)))
                }
                WorkerState::Blocked => {
                    w.state = WorkerState::Scheduled;
                    let core_hint = Some(wi as u64);
                    let (core, lat) =
                        g.machine.borrow_mut().interrupt_wakeup(now, class, core_hint);
                    let w = &mut g.workers[wi];
                    w.core = core;
                    let overhead = Nanos(costs::INTERRUPT_NS + costs::CONTEXT_SWITCH_NS);
                    g.cpu.wake_overhead += overhead;
                    g.core_cpu.entry(core).or_default().wake_overhead += overhead;
                    (wi, Some(lat))
                }
            }
        };
        if let Some(delay) = action {
            self.inner.borrow_mut().sched_delay.record_nanos(delay);
            let handle = self.clone();
            sim.schedule_at(now + delay, move |sim| handle.run_worker(sim, worker_idx));
        }
    }

    /// One worker scheduling pass: service mailboxes, run each assigned
    /// engine once, charge CPU, and reschedule or go idle.
    fn run_worker(&self, sim: &mut Sim, worker_idx: usize) {
        // Collect the engines to run without holding the borrow across
        // `Engine::run` (engines may transmit packets, which schedules
        // fabric events; those only fire later, but they may also call
        // wake handles which defer through the event queue).
        let engine_ids = {
            let g = &mut *self.inner.borrow_mut();
            let Some(w) = g.workers.get(worker_idx) else { return };
            let mut ids = std::mem::take(&mut g.pass_ids);
            ids.clear();
            ids.extend_from_slice(&w.engines);
            ids
        };
        let now = sim.now();
        let mut total_cpu = Nanos::ZERO;
        let mut any_work = false;
        let mut any_pending = false;
        for id in &engine_ids {
            // Take the engine out of the slot to run it borrow-free.
            let taken = {
                let mut g = self.inner.borrow_mut();
                if g.suspended[id.0 as usize]
                    || g.crashed[id.0 as usize]
                    || g.stalled_until[id.0 as usize] > now
                {
                    continue;
                }
                let factor = g.slowdown[id.0 as usize];
                g.slots[id.0 as usize].as_mut().map(|slot| {
                    let mb = slot.mailbox.take();
                    (
                        std::mem::replace(&mut slot.engine, Box::new(VacantEngine)),
                        mb,
                        factor,
                    )
                })
            };
            let Some((mut engine, mailbox, factor)) = taken else { continue };
            if let Some(work) = mailbox {
                work(engine.as_mut());
            }
            let mut report = engine.run(sim);
            if factor > 1.0 {
                // Gray failure: the same pass burns `factor`× the CPU,
                // which stretches the worker's slice and every queued
                // op's dequeue latency behind it.
                report.cpu = Nanos((report.cpu.as_nanos() as f64 * factor) as u64);
            }
            total_cpu += report.cpu;
            any_work |= report.work_done;
            any_pending |= report.pending > 0;
            let mut g = self.inner.borrow_mut();
            g.accountant
                .charge(engine.container(), report.cpu.as_nanos());
            g.engine_cpu[id.0 as usize] += report.cpu;
            if let Some(slot) = g.slots[id.0 as usize].as_mut() {
                slot.engine = engine;
                slot.last_report = report;
                slot.last_pass = now;
            }
        }

        // Earliest self-timer deadline across this worker's engines:
        // near deadlines are poll-waited (burning spin CPU) instead of
        // paying a block + interrupt-wake cycle per pacing gap.
        let next_deadline = {
            let g = self.inner.borrow();
            engine_ids
                .iter()
                .filter_map(|id| g.slots[id.0 as usize].as_ref())
                .filter_map(|s| s.last_report.next_deadline)
                .min()
        };

        // Charge the machine and decide what happens next.
        let next = {
            let mut g = self.inner.borrow_mut();
            g.cpu.engine += total_cpu;
            let w = &mut g.workers[worker_idx];
            let core = w.core;
            let throttle_start = match w.budget.as_mut() {
                Some(b) if !total_cpu.is_zero() => b.request(now, total_cpu),
                _ => now,
            };
            g.machine.borrow_mut().run_slice(core, throttle_start, total_cpu);
            g.core_cpu.entry(core).or_default().busy += total_cpu;
            let w = &mut g.workers[worker_idx];
            if any_work || any_pending {
                w.state = WorkerState::Scheduled;
                Some(throttle_start + total_cpu)
            } else if let Some(d) = next_deadline.filter(|&d| {
                d.saturating_sub(now) <= Nanos(costs::ENGINE_SPIN_WAIT_NS)
            }) {
                // Poll-wait: stay runnable and burn the gap as spin.
                let resume = d.max(now + Nanos(1));
                w.state = WorkerState::Scheduled;
                g.cpu.spin += resume - now;
                g.core_cpu.entry(core).or_default().spin += resume - now;
                Some(resume)
            } else {
                if w.spins {
                    w.state = WorkerState::SpinningIdle { since: now };
                } else {
                    w.state = WorkerState::Blocked;
                }
                None
            }
        };

        match next {
            Some(at) => {
                let handle = self.clone();
                sim.schedule_at(at.max(now), move |sim| handle.run_worker(sim, worker_idx));
            }
            None => {
                // Far-future self-timer (pacing, shaper refill, RTO):
                // arm a framework wake so a blocked worker resumes at
                // the deadline (a wake of a running worker is a no-op).
                if let (Some(d), Some(&first)) = (next_deadline, engine_ids.first()) {
                    let handle = self.clone();
                    sim.schedule_at(d.max(now), move |sim| handle.wake(sim, first));
                }
                self.maybe_arm_idle_block(sim, worker_idx);
            }
        }
        self.inner.borrow_mut().pass_ids = engine_ids;
    }

    /// For compacting mode: after `idle_block` of idle spinning, the
    /// worker blocks and releases its core ("scale down to less than a
    /// full core").
    fn maybe_arm_idle_block(&self, sim: &mut Sim, worker_idx: usize) {
        let idle_block = {
            let g = self.inner.borrow();
            match g.mode {
                SchedulingMode::Compacting { idle_block, .. } if g.workers[worker_idx].spins => {
                    Some(idle_block)
                }
                _ => None,
            }
        };
        let Some(idle_block) = idle_block else { return };
        let handle = self.clone();
        let ev = sim.schedule_cancellable_in(idle_block, move |sim| {
            let mut g = handle.inner.borrow_mut();
            let now = sim.now();
            let w = &mut g.workers[worker_idx];
            if let WorkerState::SpinningIdle { since } = w.state {
                w.state = WorkerState::Blocked;
                w.spins = false;
                let core = w.core;
                g.machine.borrow_mut().set_spinning(core, false);
                g.cpu.spin += now.saturating_sub(since);
                g.core_cpu.entry(core).or_default().spin += now.saturating_sub(since);
            }
        });
        self.inner.borrow_mut().workers[worker_idx].idle_block_event = Some(ev);
    }

    /// The compacting rebalancer (§2.4): scale out on SLO violation,
    /// migrate back and compact when load subsides.
    fn rebalance(&self, sim: &mut Sim) {
        let now = sim.now();
        let slo = {
            let g = self.inner.borrow();
            match g.mode {
                SchedulingMode::Compacting { slo, .. } => slo,
                _ => return,
            }
        };

        // Scale out: find an overloaded worker with more than one
        // engine and move its most-delayed engine to an idle worker.
        let mut move_plan: Option<(usize, EngineId)> = None;
        {
            let g = self.inner.borrow();
            'outer: for (wi, w) in g.workers.iter().enumerate() {
                if w.engines.len() <= 1 {
                    continue;
                }
                let mut worst: Option<(EngineId, Nanos)> = None;
                for id in &w.engines {
                    if let Some(slot) = g.slots[id.0 as usize].as_ref() {
                        let age = slot.engine.oldest_pending_age(now);
                        if age > slo && worst.map(|(_, a)| age > a).unwrap_or(true) {
                            worst = Some((*id, age));
                        }
                    }
                }
                if let Some((id, _)) = worst {
                    move_plan = Some((wi, id));
                    break 'outer;
                }
            }
        }
        if let Some((from, id)) = move_plan {
            self.scale_out(sim, from, id);
            return; // one action per poll, like the paper's rebalancer
        }

        // Compact: merge an entirely idle secondary worker back into
        // the primary.
        let mut merge_plan: Option<usize> = None;
        {
            let g = self.inner.borrow();
            for (wi, w) in g.workers.iter().enumerate().skip(1) {
                if w.engines.is_empty() {
                    continue;
                }
                let all_idle = w.engines.iter().all(|id| {
                    g.slots[id.0 as usize]
                        .as_ref()
                        .map(|s| s.engine.pending_work() == 0)
                        .unwrap_or(true)
                });
                let primary_ok = g.workers[0].engines.iter().all(|id| {
                    g.slots[id.0 as usize]
                        .as_ref()
                        .map(|s| s.engine.oldest_pending_age(now) < slo / 2)
                        .unwrap_or(true)
                });
                if all_idle && primary_ok {
                    merge_plan = Some(wi);
                    break;
                }
            }
        }
        if let Some(wi) = merge_plan {
            let mut g = self.inner.borrow_mut();
            let engines = std::mem::take(&mut g.workers[wi].engines);
            for id in &engines {
                if let Some(slot) = g.slots[id.0 as usize].as_mut() {
                    slot.worker = 0;
                }
            }
            g.workers[0].engines.extend(engines);
            let w = &mut g.workers[wi];
            let spin_accrued = match w.state {
                WorkerState::SpinningIdle { since } => now.saturating_sub(since),
                _ => Nanos::ZERO,
            };
            let core = w.core;
            w.state = WorkerState::Blocked;
            w.spins = false;
            g.cpu.spin += spin_accrued;
            g.core_cpu.entry(core).or_default().spin += spin_accrued;
            g.machine.borrow_mut().set_spinning(core, false);
        }
    }

    /// Moves engine `id` from worker `from` to a fresh (or re-used
    /// blocked) worker and wakes it there.
    fn scale_out(&self, sim: &mut Sim, from: usize, id: EngineId) {
        {
            let mut g = self.inner.borrow_mut();
            let w = &mut g.workers[from];
            w.engines.retain(|e| *e != id);
            // Reuse a blocked empty worker or create one.
            let target = g
                .workers
                .iter()
                .position(|w| w.engines.is_empty() && w.state == WorkerState::Blocked);
            let ti = match target {
                Some(t) => t,
                None => {
                    let cores = g.machine.borrow().num_cores();
                    let core = g.next_core % cores;
                    g.next_core += 1;
                    g.workers.push(Worker {
                        engines: Vec::new(),
                        state: WorkerState::Blocked,
                        core,
                        spins: false,
                        budget: Some(MicroQuantaBudget::default_engine()),
                        idle_block_event: None,
                    });
                    g.workers.len() - 1
                }
            };
            g.workers[ti].engines.push(id);
            if let Some(slot) = g.slots[id.0 as usize].as_mut() {
                slot.worker = ti;
            }
        }
        self.wake(sim, id);
    }

    /// Posts depth-1 control work to run on the engine's worker before
    /// its next pass (the engine mailbox, §2.3). Fails with
    /// [`ControlError::Busy`] if work is already pending and
    /// [`ControlError::Unavailable`] if the engine slot is gone.
    pub fn post_to_engine(
        &self,
        sim: &mut Sim,
        id: EngineId,
        work: MailboxWork,
    ) -> Result<(), ControlError> {
        {
            let mut g = self.inner.borrow_mut();
            let slot = g
                .slots
                .get_mut(id.0 as usize)
                .and_then(|s| s.as_mut())
                .ok_or_else(|| {
                    ControlError::Unavailable(format!("engine {} removed", id.0))
                })?;
            if slot.mailbox.is_some() {
                return Err(ControlError::Busy(format!(
                    "engine {} mailbox occupied",
                    id.0
                )));
            }
            slot.mailbox = Some(work);
        }
        self.wake(sim, id);
        Ok(())
    }

    /// True when `other` is a handle to the *same* underlying group —
    /// engine ids are only meaningful within one group, so callers that
    /// key work by `(group, EngineId)` (the supervisor's quarantine
    /// path) need identity, not name equality.
    pub fn same_group(&self, other: &GroupHandle) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Runs `f` against an engine synchronously. In the real system
    /// this is a mailbox call that blocks the *control* thread only; in
    /// the simulator the control plane and engines share one thread, so
    /// it executes immediately.
    pub fn with_engine<R>(&self, id: EngineId, f: impl FnOnce(&mut dyn Engine) -> R) -> R {
        let mut g = self.inner.borrow_mut();
        let slot = g.slots[id.0 as usize]
            .as_mut()
            .expect("engine exists");
        f(slot.engine.as_mut())
    }

    /// Fallible [`GroupHandle::with_engine`]: a missing slot or a
    /// crashed/suspended engine becomes [`ControlError::Unavailable`]
    /// instead of a panic, so control RPCs racing a fault or an
    /// in-flight upgrade get a typed error the caller can retry on.
    pub fn try_with_engine<R>(
        &self,
        id: EngineId,
        f: impl FnOnce(&mut dyn Engine) -> R,
    ) -> Result<R, ControlError> {
        let mut g = self.inner.borrow_mut();
        let idx = id.0 as usize;
        if g.slots.get(idx).is_none_or(|s| s.is_none()) {
            return Err(ControlError::Unavailable(format!("engine {} removed", id.0)));
        }
        if g.crashed[idx] {
            return Err(ControlError::Unavailable(format!("engine {} crashed", id.0)));
        }
        if g.suspended[idx] {
            return Err(ControlError::Unavailable(format!(
                "engine {} suspended for upgrade",
                id.0
            )));
        }
        let slot = g.slots[idx].as_mut().expect("checked above");
        Ok(f(slot.engine.as_mut()))
    }

    /// Posts mailbox work with a retry loop: an occupied mailbox is
    /// retried with capped exponential backoff
    /// ([`costs::CONTROL_RETRY_BASE_NS`] doubling up to
    /// [`costs::CONTROL_RETRY_CAP_NS`]) until it lands or the
    /// [`costs::CONTROL_RPC_TIMEOUT_NS`] budget runs out. `on_result`
    /// fires exactly once with the outcome; `Ok` means the work is
    /// queued (it runs before the engine's next pass, which for a
    /// crashed engine is after the supervisor restarts it).
    pub fn post_with_backoff(
        &self,
        sim: &mut Sim,
        id: EngineId,
        work: MailboxWork,
        on_result: PostResult,
    ) {
        let deadline = sim.now() + Nanos(costs::CONTROL_RPC_TIMEOUT_NS);
        self.post_attempt(
            sim,
            id,
            work,
            on_result,
            deadline,
            Nanos(costs::CONTROL_RETRY_BASE_NS),
        );
    }

    fn post_attempt(
        &self,
        sim: &mut Sim,
        id: EngineId,
        work: MailboxWork,
        on_result: PostResult,
        deadline: Nanos,
        delay: Nanos,
    ) {
        enum Post {
            Gone,
            Busy,
            Landed,
        }
        let mut work = Some(work);
        let status = {
            let mut g = self.inner.borrow_mut();
            match g.slots.get_mut(id.0 as usize).and_then(|s| s.as_mut()) {
                None => Post::Gone,
                Some(slot) if slot.mailbox.is_some() => Post::Busy,
                Some(slot) => {
                    slot.mailbox = work.take();
                    Post::Landed
                }
            }
        };
        match status {
            Post::Gone => on_result(
                sim,
                Err(ControlError::Unavailable(format!("engine {} removed", id.0))),
            ),
            Post::Landed => {
                self.wake(sim, id);
                on_result(sim, Ok(()));
            }
            Post::Busy => {
                // Equal jitter on the backoff step: sleep a seeded
                // uniform draw from [delay/2, delay] so concurrent
                // retriers against the same busy mailbox decorrelate
                // instead of colliding in lockstep waves. The draw
                // comes from the group's own deterministic stream, so
                // runs stay bit-reproducible.
                let half = Nanos(delay.as_nanos() / 2);
                let jittered = {
                    let mut g = self.inner.borrow_mut();
                    half + Nanos(g.retry_rng.below(half.as_nanos() + 1))
                };
                if sim.now() + jittered > deadline {
                    on_result(
                        sim,
                        Err(ControlError::Timeout(format!(
                            "mailbox for engine {} still busy",
                            id.0
                        ))),
                    );
                    return;
                }
                let handle = self.clone();
                let Some(work) = work.take() else { return };
                let next_delay = (delay * 2).min(Nanos(costs::CONTROL_RETRY_CAP_NS));
                sim.schedule_in(jittered, move |sim| {
                    handle.post_attempt(sim, id, work, on_result, deadline, next_delay);
                });
            }
        }
    }

    /// Suspends an engine (upgrade blackout start): it is no longer
    /// scheduled and its detach hook runs (dropping NIC filters).
    pub fn suspend_engine(&self, sim: &mut Sim, id: EngineId) {
        let engine = {
            let mut g = self.inner.borrow_mut();
            if g.slots[id.0 as usize].is_none() {
                return;
            }
            g.suspended[id.0 as usize] = true;
            std::mem::replace(
                &mut g.slots[id.0 as usize].as_mut().expect("checked").engine,
                Box::new(VacantEngine),
            )
        };
        // Detach outside the borrow: the hook may drive the simulator.
        let mut engine = engine;
        engine.detach(sim);
        let mut g = self.inner.borrow_mut();
        g.slots[id.0 as usize].as_mut().expect("checked").engine = engine;
    }

    /// Replaces a suspended engine with its new-version successor and
    /// resumes scheduling (upgrade blackout end). Also clears any crash
    /// or stall flag, so the same path serves supervisor recovery.
    pub fn resume_engine(&self, sim: &mut Sim, id: EngineId, engine: Box<dyn Engine>) {
        let mut engine = engine;
        // Re-attach outside the borrow: the hook may drive the NIC.
        engine.attach(sim);
        {
            let mut g = self.inner.borrow_mut();
            let slot = g.slots[id.0 as usize].as_mut().expect("engine exists");
            slot.engine = engine;
            g.suspended[id.0 as usize] = false;
            g.crashed[id.0 as usize] = false;
            g.stalled_until[id.0 as usize] = Nanos::ZERO;
            // A restart replaces the degraded process: healthy again.
            g.slowdown[id.0 as usize] = 1.0;
        }
        self.wake(sim, id);
    }

    /// Destroys an engine in place — the fault-injection model of an
    /// engine panicking or its worker thread dying. Its in-memory state
    /// is lost (the slot holds a dead placeholder) and it is never
    /// scheduled again until [`GroupHandle::resume_engine`] installs a
    /// successor rebuilt from a checkpoint.
    pub fn kill_engine(&self, id: EngineId) {
        let mut g = self.inner.borrow_mut();
        // Ids that were never allocated are a no-op, so over-approximate
        // (e.g. randomized) fault plans can't panic the group.
        if g.slots.get(id.0 as usize).is_some_and(|s| s.is_some()) {
            g.crashed[id.0 as usize] = true;
            let slot = g.slots[id.0 as usize].as_mut().expect("checked");
            // Drop the engine: a crash loses all in-memory state.
            slot.engine = Box::new(VacantEngine);
            slot.mailbox = None;
        }
    }

    /// Degrades an engine's efficiency by `factor` (>= 1.0): every pass
    /// burns `factor`× the CPU, the gray-failure model of a process
    /// that is alive and making progress but pathologically slow (lock
    /// contention, a sick core, thermal throttling). Unlike a wedge the
    /// engine still heartbeats, so only latency-based health scoring —
    /// not liveness checks — can see it. `factor <= 1.0` heals.
    /// Unknown ids are a no-op so over-approximate fault plans can't
    /// panic the group.
    pub fn slow_engine(&self, id: EngineId, factor: f64) {
        let mut g = self.inner.borrow_mut();
        if let Some(f) = g.slowdown.get_mut(id.0 as usize) {
            *f = factor.max(1.0);
        }
    }

    /// The engine's current slowdown factor (1.0 = healthy), or `None`
    /// for an unknown id.
    pub fn slowdown_factor(&self, id: EngineId) -> Option<f64> {
        self.inner.borrow().slowdown.get(id.0 as usize).copied()
    }

    /// Wedges an engine for `duration`: it stays resident but makes no
    /// progress (models a livelock or a stuck syscall). Pending work
    /// accumulates and its heartbeat stops, which is what supervisor
    /// wedge detection keys on. The engine resumes by itself when the
    /// stall lifts unless the supervisor restarts it first.
    pub fn stall_engine(&self, sim: &mut Sim, id: EngineId, duration: Nanos) {
        let until = sim.now() + duration;
        {
            let mut g = self.inner.borrow_mut();
            if g.slots.get(id.0 as usize).is_none_or(|s| s.is_none()) {
                return;
            }
            let slot = &mut g.stalled_until[id.0 as usize];
            *slot = (*slot).max(until);
        }
        // Self-resume once the wedge clears (a real livelock may break).
        let handle = self.clone();
        sim.schedule_at(until, move |sim| handle.wake(sim, id));
    }

    /// A liveness snapshot of one engine, or `None` if the slot was
    /// removed. Crashed engines report zero pending work because their
    /// state is gone; the `crashed` flag is the signal.
    pub fn engine_health(&self, id: EngineId) -> Option<EngineHealth> {
        let g = self.inner.borrow();
        let slot = g.slots.get(id.0 as usize)?.as_ref()?;
        Some(EngineHealth {
            pending: if g.crashed[id.0 as usize] {
                0
            } else {
                slot.engine.pending_work() as u64
            },
            last_pass: slot.last_pass,
            crashed: g.crashed[id.0 as usize],
            suspended: g.suspended[id.0 as usize],
        })
    }

    /// Takes a suspended engine out entirely (for state serialization
    /// by the upgrade orchestrator). The slot stays reserved.
    pub fn take_engine(&self, id: EngineId) -> Option<Box<dyn Engine>> {
        let mut g = self.inner.borrow_mut();
        assert!(
            g.suspended[id.0 as usize],
            "taking a running engine; suspend it first"
        );
        g.slots[id.0 as usize]
            .take()
            .map(|s| {
                g.slots[id.0 as usize] = Some(Slot {
                    engine: Box::new(VacantEngine),
                    worker: s.worker,
                    mailbox: None,
                    last_report: s.last_report.clone(),
                    last_pass: s.last_pass,
                });
                s.engine
            })
    }

    /// CPU consumption snapshot, flushing idle-spin accrual up to `now`.
    pub fn cpu(&self, now: Nanos) -> GroupCpu {
        let inner = &mut *self.inner.borrow_mut();
        let core_cpu = &mut inner.core_cpu;
        let mut accrued = Nanos::ZERO;
        for w in &mut inner.workers {
            if let WorkerState::SpinningIdle { since } = w.state {
                if now > since {
                    accrued += now - since;
                    core_cpu.entry(w.core).or_default().spin += now - since;
                    w.state = WorkerState::SpinningIdle { since: now };
                }
            }
        }
        inner.cpu.spin += accrued;
        inner.cpu
    }

    /// Per-core CPU split (busy / spin / wake) up to `now`, flushing
    /// idle-spin accrual first. Deterministic order (ascending core id).
    /// Invariant: summing [`CoreCpu::total`] over the result equals
    /// [`GroupHandle::cpu`]`.total()` exactly — every nanosecond the
    /// group burns is charged to exactly one core.
    pub fn core_cpu(&self, now: Nanos) -> Vec<(CoreId, CoreCpu)> {
        let _ = self.cpu(now); // flush spin accrual into the per-core map
        self.inner
            .borrow()
            .core_cpu
            .iter()
            .map(|(&c, &v)| (c, v))
            .collect()
    }

    /// Cumulative engine-pass CPU per engine slot (slowdown-inflated,
    /// like the group totals). Sums exactly to [`GroupCpu::engine`].
    pub fn engine_cpu(&self) -> Vec<(EngineId, Nanos)> {
        self.inner
            .borrow()
            .engine_cpu
            .iter()
            .enumerate()
            .map(|(i, &ns)| (EngineId(i as u32), ns))
            .collect()
    }

    /// Total CPU-time the MicroQuanta budgets deferred across all
    /// workers (zero in dedicated mode, which runs unbudgeted).
    pub fn throttled_total(&self) -> Nanos {
        self.inner
            .borrow()
            .workers
            .iter()
            .filter_map(|w| w.budget.as_ref())
            .map(|b| b.throttled_total)
            .fold(Nanos::ZERO, |a, b| a + b)
    }

    /// Number of workers currently spinning or scheduled (≈ cores in
    /// active use); diagnostic for the compacting scheduler tests.
    pub fn active_workers(&self) -> usize {
        self.inner
            .borrow()
            .workers
            .iter()
            .filter(|w| w.state != WorkerState::Blocked)
            .count()
    }

    /// Total workers ever created.
    pub fn worker_count(&self) -> usize {
        self.inner.borrow().workers.len()
    }

    /// Snapshot of the group's scheduling-delay histogram: one sample
    /// per wake that had to schedule a worker (spin pickup vs interrupt
    /// wake latency). Cumulative; diff two snapshots for an interval.
    pub fn sched_delay_histogram(&self) -> Histogram {
        self.inner.borrow().sched_delay.clone()
    }

    /// Stable label of the group's scheduling mode, for metric keys.
    pub fn mode_label(&self) -> &'static str {
        match self.inner.borrow().mode {
            SchedulingMode::Dedicated { .. } => "dedicated",
            SchedulingMode::Spreading => "spreading",
            SchedulingMode::Compacting { .. } => "compacting",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CountingEngine;

    fn machine() -> MachineHandle {
        Rc::new(RefCell::new(Machine::new(8, 1)))
    }

    fn counting_group(mode: SchedulingMode) -> (GroupHandle, EngineId) {
        let g = GroupHandle::new(
            GroupConfig {
                name: "test".into(),
                mode,
                class: None,
            },
            machine(),
            CpuAccountant::new(),
        );
        let id = g.add_engine(Box::new(CountingEngine::new("e0", Nanos(500))));
        (g, id)
    }

    fn inject(g: &GroupHandle, id: EngineId, now: Nanos, n: usize) {
        g.with_engine(id, |e| {
            let e = e
                .as_any()
                .downcast_mut::<CountingEngine>()
                .expect("tests only build CountingEngine");
            for _ in 0..n {
                e.inject(now);
            }
        });
    }

    fn processed(g: &GroupHandle, id: EngineId) -> u64 {
        g.with_engine(id, |e| {
            e.as_any()
                .downcast_mut::<CountingEngine>()
                .expect("tests only build CountingEngine")
                .processed
        })
    }

    #[test]
    fn dedicated_mode_processes_work() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
        g.start(&mut sim);
        inject(&g, id, sim.now(), 40);
        g.wake(&mut sim, id);
        sim.run();
        assert_eq!(processed(&g, id), 40);
        let cpu = g.cpu(sim.now());
        assert!(cpu.engine > Nanos(40 * 500), "engine CPU {:?}", cpu);
        assert_eq!(cpu.wake_overhead, Nanos::ZERO, "spinning never pays wakes");
    }

    #[test]
    fn spreading_mode_pays_wake_overhead() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        inject(&g, id, sim.now(), 5);
        g.wake(&mut sim, id);
        sim.run();
        assert_eq!(processed(&g, id), 5);
        let cpu = g.cpu(sim.now());
        assert!(cpu.wake_overhead > Nanos::ZERO);
        assert_eq!(cpu.spin, Nanos::ZERO, "blocked workers never spin");
    }

    #[test]
    fn spreading_gives_each_engine_a_worker() {
        let (g, _) = counting_group(SchedulingMode::Spreading);
        g.add_engine(Box::new(CountingEngine::new("e1", Nanos(100))));
        g.add_engine(Box::new(CountingEngine::new("e2", Nanos(100))));
        assert_eq!(g.worker_count(), 3);
    }

    #[test]
    fn dedicated_fair_shares_when_core_constrained() {
        let mut sim = Sim::new();
        let g = GroupHandle::new(
            GroupConfig {
                name: "fair".into(),
                mode: SchedulingMode::Dedicated { cores: vec![0, 1] },
                class: None,
            },
            machine(),
            CpuAccountant::new(),
        );
        let ids: Vec<EngineId> = (0..4)
            .map(|i| g.add_engine(Box::new(CountingEngine::new(format!("e{i}"), Nanos(100)))))
            .collect();
        assert_eq!(g.worker_count(), 2, "4 engines share 2 cores");
        g.start(&mut sim);
        for id in &ids {
            inject(&g, *id, sim.now(), 10);
            g.wake(&mut sim, *id);
        }
        sim.run();
        for id in &ids {
            assert_eq!(processed(&g, *id), 10);
        }
    }

    #[test]
    fn compacting_starts_on_one_worker_and_scales_out() {
        let mut sim = Sim::new();
        let g = GroupHandle::new(
            GroupConfig {
                name: "compact".into(),
                mode: SchedulingMode::Compacting {
                    slo: Nanos::from_micros(5),
                    rebalance_poll: Nanos::from_micros(10),
                    idle_block: Nanos::from_millis(50),
                },
                class: None,
            },
            machine(),
            CpuAccountant::new(),
        );
        // Two heavy engines on the primary: per-item cost is large so
        // queueing delay blows through the SLO.
        let a = g.add_engine(Box::new(CountingEngine::new("a", Nanos::from_micros(20))));
        let b = g.add_engine(Box::new(CountingEngine::new("b", Nanos::from_micros(20))));
        assert_eq!(g.worker_count(), 1);
        g.start(&mut sim);
        // Sustained load on both engines.
        for round in 0..50u64 {
            let at = Nanos::from_micros(round * 20);
            let (g2, a2, b2) = (g.clone(), a, b);
            sim.schedule_at(at, move |sim| {
                inject(&g2, a2, sim.now(), 8);
                inject(&g2, b2, sim.now(), 8);
                g2.wake(sim, a2);
                g2.wake(sim, b2);
            });
        }
        sim.run_until(Nanos::from_millis(10));
        g.stop();
        sim.run();
        assert!(g.worker_count() >= 2, "rebalancer should have scaled out");
        assert_eq!(processed(&g, a), 400);
        assert_eq!(processed(&g, b), 400);
    }

    #[test]
    fn compacting_blocks_after_idle_and_rewakes() {
        let mut sim = Sim::new();
        let g = GroupHandle::new(
            GroupConfig {
                name: "idle".into(),
                mode: SchedulingMode::Compacting {
                    slo: Nanos::from_micros(50),
                    rebalance_poll: Nanos::from_micros(10),
                    idle_block: Nanos::from_micros(100),
                },
                class: None,
            },
            machine(),
            CpuAccountant::new(),
        );
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(500))));
        g.start(&mut sim);
        inject(&g, id, Nanos::ZERO, 1);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_millis(1));
        // Long idle: the primary should have blocked, capping spin CPU.
        let cpu_at_1ms = g.cpu(sim.now());
        assert!(
            cpu_at_1ms.spin < Nanos::from_micros(300),
            "spin CPU {:?} should be bounded by idle_block",
            cpu_at_1ms.spin
        );
        assert_eq!(g.active_workers(), 0, "worker blocked after idling");
        // Work arrives again: the blocked worker wakes and processes.
        inject(&g, id, sim.now(), 3);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_millis(2));
        assert_eq!(processed(&g, id), 4);
    }

    #[test]
    fn per_core_attribution_sums_to_group_totals_in_every_mode() {
        let modes = [
            SchedulingMode::Dedicated { cores: vec![0, 1] },
            SchedulingMode::Spreading,
            SchedulingMode::Compacting {
                slo: Nanos::from_micros(5),
                rebalance_poll: Nanos::from_micros(10),
                idle_block: Nanos::from_micros(100),
            },
        ];
        for mode in modes {
            let mut sim = Sim::new();
            let g = GroupHandle::new(
                GroupConfig {
                    name: "attr".into(),
                    mode: mode.clone(),
                    class: None,
                },
                machine(),
                CpuAccountant::new(),
            );
            let a = g.add_engine(Box::new(CountingEngine::new("a", Nanos(800))));
            let b = g.add_engine(Box::new(CountingEngine::new("b", Nanos(800))));
            g.start(&mut sim);
            for round in 0..30u64 {
                let at = Nanos::from_micros(round * 15);
                let (g2, a2, b2) = (g.clone(), a, b);
                sim.schedule_at(at, move |sim| {
                    inject(&g2, a2, sim.now(), 4);
                    inject(&g2, b2, sim.now(), 4);
                    g2.wake(sim, a2);
                    g2.wake(sim, b2);
                });
            }
            sim.run_until(Nanos::from_millis(2));
            g.stop();
            sim.run();
            let now = sim.now();
            let total = g.cpu(now);
            let per_core = g.core_cpu(now);
            let core_sum: Nanos = per_core
                .iter()
                .map(|(_, c)| c.total())
                .fold(Nanos::ZERO, |x, y| x + y);
            assert_eq!(
                core_sum,
                total.total(),
                "{}: per-core CPU must sum to the group total exactly",
                g.mode_label()
            );
            let busy_sum: Nanos = per_core
                .iter()
                .map(|(_, c)| c.busy)
                .fold(Nanos::ZERO, |x, y| x + y);
            assert_eq!(busy_sum, total.engine, "{}: busy split", g.mode_label());
            let engine_sum: Nanos = g
                .engine_cpu()
                .iter()
                .map(|(_, ns)| *ns)
                .fold(Nanos::ZERO, |x, y| x + y);
            assert_eq!(
                engine_sum, total.engine,
                "{}: per-engine CPU must sum to GroupCpu::engine",
                g.mode_label()
            );
            assert_eq!(processed(&g, a), 120, "{}", g.mode_label());
            assert_eq!(processed(&g, b), 120, "{}", g.mode_label());
        }
    }

    #[test]
    fn mailbox_posts_run_before_next_pass() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        g.post_to_engine(
            &mut sim,
            id,
            Box::new(|e: &mut dyn Engine| {
                let e = e
                    .as_any()
                    .downcast_mut::<CountingEngine>()
                    .expect("tests only build CountingEngine");
                e.inject(Nanos::ZERO);
                e.inject(Nanos::ZERO);
            }),
        )
        .unwrap();
        sim.run();
        assert_eq!(processed(&g, id), 2);
    }

    #[test]
    fn post_to_out_of_range_engine_is_unavailable_not_a_panic() {
        let mut sim = Sim::new();
        let (g, _id) = counting_group(SchedulingMode::Spreading);
        let r = g.post_to_engine(&mut sim, EngineId(42), Box::new(|_| {}));
        assert!(matches!(r, Err(ControlError::Unavailable(_))));
    }

    #[test]
    fn mailbox_is_depth_one() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        // Don't start: posts stack up un-serviced.
        let first = g.post_to_engine(&mut sim, id, Box::new(|_| {}));
        assert!(first.is_ok());
        let second = g.post_to_engine(&mut sim, id, Box::new(|_| {}));
        assert!(second.is_err(), "depth-1 mailbox must reject");
    }

    #[test]
    fn busy_mailbox_rpc_retries_until_it_lands() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        // Occupy the mailbox before the group runs, then start the
        // group a while later: the backoff RPC must keep retrying until
        // the first post drains, then land.
        g.post_to_engine(&mut sim, id, Box::new(|_| {})).unwrap();
        let result: Rc<RefCell<Option<Result<(), ControlError>>>> =
            Rc::new(RefCell::new(None));
        let slot = result.clone();
        g.post_with_backoff(
            &mut sim,
            id,
            Box::new(|e: &mut dyn Engine| {
                e.as_any()
                    .downcast_mut::<CountingEngine>()
                    .expect("tests only build CountingEngine")
                    .inject(Nanos::ZERO);
            }),
            Box::new(move |_sim, r| {
                *slot.borrow_mut() = Some(r);
            }),
        );
        assert!(result.borrow().is_none(), "first attempt finds mailbox busy");
        let g2 = g.clone();
        sim.schedule_in(Nanos::from_micros(100), move |sim| g2.start(sim));
        sim.run();
        assert_eq!(*result.borrow(), Some(Ok(())));
        assert_eq!(processed(&g, id), 1, "retried post ran on the engine");
    }

    #[test]
    fn mailbox_rpc_times_out_against_wedged_mailbox() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        // A crashed engine never services its mailbox: the first post
        // wedges it and the second must give up with a typed timeout.
        g.kill_engine(id);
        g.post_to_engine(&mut sim, id, Box::new(|_| {})).unwrap();
        let result: Rc<RefCell<Option<Result<(), ControlError>>>> =
            Rc::new(RefCell::new(None));
        let slot = result.clone();
        g.post_with_backoff(
            &mut sim,
            id,
            Box::new(|_| {}),
            Box::new(move |_sim, r| {
                *slot.borrow_mut() = Some(r);
            }),
        );
        sim.run();
        assert!(
            matches!(*result.borrow(), Some(Err(ControlError::Timeout(_)))),
            "expected timeout, got {:?}",
            result.borrow()
        );
        // Backoff is capped: the whole retry loop fits in the RPC
        // budget plus one capped delay.
        assert!(
            sim.now()
                <= Nanos(costs::CONTROL_RPC_TIMEOUT_NS) + Nanos(costs::CONTROL_RETRY_CAP_NS),
            "retries ran past the budget: {}",
            sim.now()
        );
    }

    #[test]
    fn backoff_retries_are_jittered_and_deterministic() {
        fn giveup_times() -> (Nanos, Nanos) {
            let mut sim = Sim::new();
            let (g, id) = counting_group(SchedulingMode::Spreading);
            g.start(&mut sim);
            // A crashed engine never drains its mailbox: both RPCs
            // retry against permanent Busy until the budget expires.
            g.kill_engine(id);
            g.post_to_engine(&mut sim, id, Box::new(|_| {})).unwrap();
            let t1 = Rc::new(RefCell::new(Nanos::ZERO));
            let t2 = Rc::new(RefCell::new(Nanos::ZERO));
            let (s1, s2) = (t1.clone(), t2.clone());
            g.post_with_backoff(
                &mut sim,
                id,
                Box::new(|_| {}),
                Box::new(move |sim, _| *s1.borrow_mut() = sim.now()),
            );
            g.post_with_backoff(
                &mut sim,
                id,
                Box::new(|_| {}),
                Box::new(move |sim, _| *s2.borrow_mut() = sim.now()),
            );
            sim.run();
            let out = (*t1.borrow(), *t2.borrow());
            out
        }
        let (a1, a2) = giveup_times();
        assert!(!a1.is_zero() && !a2.is_zero(), "both RPCs must conclude");
        // Without jitter two concurrent retriers launched at the same
        // instant walk the identical backoff ladder and give up at the
        // exact same time — the synchronized-wave pathology. Seeded
        // jitter decorrelates them...
        assert_ne!(a1, a2, "jitter must desynchronize concurrent retriers");
        // ...while staying deterministic: a rerun is bit-identical.
        assert_eq!((a1, a2), giveup_times());
    }

    #[test]
    fn slowed_engine_burns_scaled_cpu_and_restart_heals() {
        fn engine_cpu(factor: Option<f64>) -> Nanos {
            let mut sim = Sim::new();
            let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
            if let Some(f) = factor {
                g.slow_engine(id, f);
            }
            g.start(&mut sim);
            inject(&g, id, sim.now(), 20);
            g.wake(&mut sim, id);
            sim.run();
            assert_eq!(processed(&g, id), 20, "slowdown must not drop work");
            g.cpu(sim.now()).engine
        }
        let healthy = engine_cpu(None);
        let slowed = engine_cpu(Some(4.0));
        assert!(
            slowed >= healthy * 3,
            "4x slowdown should inflate engine CPU: healthy {healthy}, slowed {slowed}"
        );

        // A supervisor restart replaces the degraded process: the
        // factor resets to healthy.
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.slow_engine(id, 4.0);
        assert_eq!(g.slowdown_factor(id), Some(4.0));
        g.suspend_engine(&mut sim, id);
        let old = g.take_engine(id).expect("suspended");
        g.resume_engine(&mut sim, id, old);
        assert_eq!(g.slowdown_factor(id), Some(1.0));
        // Unknown ids are a no-op (over-approximate fault plans).
        g.slow_engine(EngineId(99), 7.0);
        assert_eq!(g.slowdown_factor(EngineId(99)), None);
    }

    #[test]
    fn try_with_engine_reports_crashed_and_suspended() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        assert!(g.try_with_engine(id, |e| e.name().to_string()).is_ok());
        g.suspend_engine(&mut sim, id);
        assert!(matches!(
            g.try_with_engine(id, |_| ()),
            Err(ControlError::Unavailable(_))
        ));
        let old = g.take_engine(id).expect("suspended");
        g.resume_engine(&mut sim, id, old);
        assert!(g.try_with_engine(id, |_| ()).is_ok());
        g.kill_engine(id);
        assert!(matches!(
            g.try_with_engine(id, |_| ()),
            Err(ControlError::Unavailable(_))
        ));
    }

    #[test]
    fn fault_ops_on_unknown_engine_ids_are_noops() {
        // Over-approximate fault plans may name engines that were never
        // created; the group must absorb those without panicking.
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        let bogus = EngineId(id.0 + 41);
        g.kill_engine(bogus);
        g.stall_engine(&mut sim, bogus, Nanos::from_millis(1));
        assert!(g.engine_health(bogus).is_none());
        // The real engine is untouched.
        assert!(!g.engine_health(id).expect("real engine").crashed);
        assert!(g.try_with_engine(id, |_| ()).is_ok());
    }

    #[test]
    fn suspend_stops_scheduling_and_resume_restores() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
        g.start(&mut sim);
        g.suspend_engine(&mut sim, id);
        assert!(g.with_engine(id, |e| {
            e.as_any()
                .downcast_mut::<CountingEngine>()
                .expect("tests only build CountingEngine")
                .is_detached()
        }));
        inject(&g, id, sim.now(), 5);
        g.wake(&mut sim, id);
        sim.run();
        assert_eq!(processed(&g, id), 0, "suspended engine must not run");
        // Take state out, build "new version", resume.
        let mut old = g.take_engine(id).expect("suspended engine");
        let _state = old.serialize_state();
        let mut new_engine = CountingEngine::new("e0-v2", Nanos(500));
        for _ in 0..5 {
            new_engine.inject(sim.now());
        }
        g.resume_engine(&mut sim, id, Box::new(new_engine));
        sim.run();
        assert_eq!(processed(&g, id), 5);
    }

    #[test]
    fn killed_engine_stops_and_resume_revives() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
        g.start(&mut sim);
        inject(&g, id, sim.now(), 3);
        g.wake(&mut sim, id);
        sim.run();
        assert_eq!(processed(&g, id), 3);
        g.kill_engine(id);
        let health = g.engine_health(id).expect("slot kept");
        assert!(health.crashed);
        // Work and wakes against the corpse do nothing.
        g.wake(&mut sim, id);
        sim.run();
        assert!(
            g.with_engine(id, |e| e.as_any().is::<VacantEngine>()),
            "crashed engine lost its state"
        );
        // Supervisor-style revival: install a successor and resume.
        let mut revived = CountingEngine::new("e0-r", Nanos(500));
        revived.inject(sim.now());
        g.resume_engine(&mut sim, id, Box::new(revived));
        assert!(!g.engine_health(id).expect("slot kept").crashed);
        sim.run();
        assert_eq!(processed(&g, id), 1);
    }

    #[test]
    fn stalled_engine_stops_heartbeat_then_self_resumes() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
        g.start(&mut sim);
        inject(&g, id, sim.now(), 2);
        g.wake(&mut sim, id);
        sim.run();
        let passed_at = g.engine_health(id).expect("slot").last_pass;
        // Wedge for 1ms, then inject more work mid-stall.
        g.stall_engine(&mut sim, id, Nanos::from_millis(1));
        inject(&g, id, sim.now(), 4);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_micros(500));
        let mid = g.engine_health(id).expect("slot");
        assert_eq!(mid.last_pass, passed_at, "no heartbeat progress while wedged");
        assert!(mid.pending >= 4, "work piles up on a wedged engine");
        assert_eq!(processed(&g, id), 2);
        // Stall lifts: the self-wake drains the backlog.
        sim.run_until(Nanos::from_millis(2));
        sim.run();
        assert_eq!(processed(&g, id), 6);
        assert!(g.engine_health(id).expect("slot").last_pass > passed_at);
    }

    #[test]
    fn wake_handle_defers_and_wakes() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        inject(&g, id, sim.now(), 1);
        let wake = g.wake_handle(id);
        wake(&mut sim);
        sim.run();
        assert_eq!(processed(&g, id), 1);
    }

    #[test]
    fn cpu_charged_to_engine_container() {
        let mut sim = Sim::new();
        let acct = CpuAccountant::new();
        let g = GroupHandle::new(
            GroupConfig {
                name: "acct".into(),
                mode: SchedulingMode::Spreading,
                class: None,
            },
            machine(),
            acct.clone(),
        );
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(500))));
        g.start(&mut sim);
        inject(&g, id, sim.now(), 4);
        g.wake(&mut sim, id);
        sim.run();
        // CountingEngine charges to the default "snap-system" container.
        assert!(acct.usage("snap-system") >= 2_000);
    }
}
