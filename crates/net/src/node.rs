//! One distributed node as a reactor-driven state machine.
//!
//! A node holds only its *footprint*: its own variables plus the remote
//! variables its actions declare as reads, one `i64` per variable. Own
//! values are authoritative; remote values are caches, refreshed only by
//! [`Frame::Update`]/[`Frame::Heartbeat`] frames from their owners. The
//! node never touches shared memory: every byte of cross-node information
//! crosses a socket through the fault-injecting transport.
//!
//! Guards and effects are closures over a full [`State`] indexed by
//! global variable ids, so to evaluate or apply an action the node loads
//! its footprint into a scratch state lent by its shard worker, runs the
//! action there, and stores the footprint back. That is exact under the
//! declared-read contract: an action reads only variables in its
//! `reads()`, which are all in the footprint, and the scratch's other
//! slots are never looked at. (A variable outside every node's declared
//! reads was never refreshed over the wire anyway, since remote readers
//! are derived from the same declarations.)
//!
//! Since the reactor refactor a node is no longer a thread: it is a
//! [`NodeCore`] owned by a shard worker (`crate::reactor`), advanced by
//! two entry points — [`NodeCore::on_frame`] when a frame arrives for it,
//! and [`NodeCore::service`] when a deadline (cooldown expiry, heartbeat,
//! report, delayed-frame flush) comes due. Deadlines are *absolute*
//! ticks derived from wall clock by the reactor, so cadence holds under
//! load instead of stretching with per-iteration sleep drift; the node
//! reports its next deadline via [`NodeCore::next_deadline`] and is left
//! entirely alone between events.

use std::time::Duration;

use nonmask_program::scheduler::RoundRobin;
use nonmask_program::{byzantine_lie_in, ActionKind, Program, Scheduler, State, StepLog, VarId};

use crate::counters::CounterSnapshot;
use crate::fault::{FaultConfig, Injector, PartitionMap};
use crate::wire::Frame;

/// What one node needs to know about the topology (derived from the
/// refinement by the runtime).
#[derive(Debug, Clone)]
pub(crate) struct NodeSpec {
    /// This node's index, already narrowed to the wire's 16-bit id space
    /// by [`crate::runtime`]'s spec construction — the one place node
    /// counts are validated, so no later conversion can panic.
    pub node: u16,
    /// Actions this node executes.
    pub actions: Vec<nonmask_program::ActionId>,
    /// Variables this node owns.
    pub owned: Vec<VarId>,
    /// Owned variables plus the declared reads of `actions`, sorted and
    /// deduplicated: the only variables the node holds.
    pub footprint: Vec<VarId>,
    /// `(peer, owned vars that peer reads)` — one outgoing logical link
    /// per entry.
    pub out_peers: Vec<(usize, Vec<VarId>)>,
    /// Permanently malicious: the node never executes program actions;
    /// at each heartbeat it overwrites its owned variables with the
    /// seeded stateless lie stream and broadcasts the lies.
    pub byzantine: bool,
}

/// Pacing and cadence knobs shared by every node (split out of
/// [`crate::NetConfig`] so the node machinery does not depend on
/// controller-only fields).
#[derive(Debug, Clone)]
pub(crate) struct NodeTiming {
    /// Wall-clock duration of one tick (the unit all deadlines are in).
    pub tick: Duration,
    /// Max actions executed per eligible service.
    pub steps_per_tick: usize,
    /// Ticks a node rests after executing actions (paces the protocol so
    /// report skew stays well below the inter-action gap).
    pub cooldown_ticks: u64,
    /// Heartbeat broadcast period in ticks (`0` disables).
    pub heartbeat_every: u64,
    /// Minimum ticks between state reports (reports are additionally
    /// gated on the state actually having changed).
    pub report_every: u64,
    /// Give up on startup dials/accepts after this long (a peer shard
    /// that died before connecting must not wedge the whole run).
    pub startup_timeout: Duration,
    /// Seed of the stateless lie stream Byzantine nodes draw from
    /// ([`nonmask_program::byzantine_lie_in`], keyed per node by its
    /// heartbeat sequence number — so the malicious message sequence is
    /// invariant under shard count, worker count, and batching).
    pub byzantine_seed: u64,
}

/// One outgoing logical link: the per-link fault injector plus the index
/// of the shard-pair stream (within the owning shard's data connections)
/// that carries its bytes.
#[derive(Debug)]
struct OutLink {
    injector: Injector,
    vars: Vec<VarId>,
    receiver: u16,
    conn: usize,
}

/// The per-node protocol state machine.
#[derive(Debug)]
pub(crate) struct NodeCore<'a> {
    program: &'a Program,
    spec: &'a NodeSpec,
    timing: &'a NodeTiming,
    step_log: Option<StepLog>,
    /// The run's initial state: the base that step-log snapshots overlay
    /// the footprint on.
    initial: &'a State,
    /// One value per [`NodeSpec::footprint`] slot.
    values: Vec<i64>,
    /// Some action is enabled on the current footprint. Recomputed
    /// whenever the footprint changes, so [`NodeCore::next_deadline`]
    /// needs no scratch state.
    enabled: bool,
    /// This node's transport/protocol counters (the report payload).
    pub counters: CounterSnapshot,
    crashed: bool,
    shutting: bool,
    finalized: bool,
    /// The node's daemon over its own actions.
    daemon: RoundRobin,
    /// Earliest tick the node may execute actions again (cooldown).
    next_exec_tick: u64,
    /// Next heartbeat deadline (absolute tick; staggered per node so a
    /// large population does not burst every period boundary at once).
    next_hb_tick: u64,
    /// Tick of the last periodic report.
    last_report_tick: u64,
    /// An authoritative variable changed since the last report.
    dirty: bool,
    data_seq: u64,
    report_seq: u64,
    links: Vec<OutLink>,
}

impl<'a> NodeCore<'a> {
    /// Build the state machine for one node, starting from the footprint
    /// of `initial`. `conn_of_peer` maps a peer node index to the
    /// shard-stream index its frames travel on; `scratch` is the shard's
    /// full-length working state.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        program: &'a Program,
        spec: &'a NodeSpec,
        timing: &'a NodeTiming,
        initial: &'a State,
        faults: &FaultConfig,
        conn_of_peer: impl Fn(usize) -> usize,
        step_log: Option<StepLog>,
        scratch: &mut State,
    ) -> Self {
        let links = spec
            .out_peers
            .iter()
            .map(|(peer, vars)| OutLink {
                injector: Injector::new(usize::from(spec.node), *peer, faults.clone()),
                vars: vars.clone(),
                receiver: *peer as u16,
                conn: conn_of_peer(*peer),
            })
            .collect();
        let next_hb_tick = if timing.heartbeat_every > 0 {
            // Stagger heartbeat phases across nodes: cadence per node is
            // identical, but a 10^4-node population spreads its beats
            // across the period instead of bursting on every boundary.
            u64::from(spec.node) % timing.heartbeat_every
        } else {
            0
        };
        let mut core = NodeCore {
            program,
            spec,
            timing,
            step_log,
            initial,
            values: spec.footprint.iter().map(|&v| initial.get(v)).collect(),
            enabled: false,
            counters: CounterSnapshot::default(),
            crashed: false,
            shutting: false,
            finalized: false,
            daemon: RoundRobin::new(),
            next_exec_tick: 0,
            next_hb_tick,
            last_report_tick: 0,
            dirty: false,
            data_seq: 0,
            report_seq: 0,
            links,
        };
        core.refresh_enabled(scratch);
        core
    }

    /// The footprint slot holding `var`, if the node holds it at all.
    fn slot(&self, var: VarId) -> Option<usize> {
        self.spec.footprint.binary_search(&var).ok()
    }

    /// The slot of a variable the node must hold (owned variables always
    /// are in the footprint).
    fn held(&self, var: VarId) -> usize {
        self.slot(var)
            .expect("owned variables are in the footprint")
    }

    /// Set footprint variable `var` from the wire. Variables outside the
    /// footprint — ones this node never reads, or out-of-range indices a
    /// misbehaving peer might send — are ignored. Returns whether the
    /// held value changed.
    fn apply_var(&mut self, var: u32, value: i64) -> bool {
        match self.slot(VarId::from_index(var as usize)) {
            Some(i) if self.values[i] != value => {
                self.values[i] = value;
                true
            }
            _ => false,
        }
    }

    /// Lend the footprint to `scratch`.
    fn load(&self, scratch: &mut State) {
        for (&v, &x) in self.spec.footprint.iter().zip(&self.values) {
            scratch.set(v, x);
        }
    }

    /// Take the footprint back from `scratch` after an action ran there.
    fn store(&mut self, scratch: &State) {
        for (x, &v) in self.values.iter_mut().zip(&self.spec.footprint) {
            *x = scratch.get(v);
        }
    }

    /// Whether some action is enabled on `scratch`, which holds this
    /// node's footprint.
    fn any_enabled_in(&self, scratch: &State) -> bool {
        self.spec
            .actions
            .iter()
            .any(|&a| self.program.action(a).enabled(scratch))
    }

    fn refresh_enabled(&mut self, scratch: &mut State) {
        self.load(scratch);
        self.enabled = self.any_enabled_in(scratch);
    }

    /// A full state for the step log: the run's initial state overlaid
    /// with the footprint, so the record does not depend on which node
    /// used the scratch last.
    fn snapshot(&self) -> State {
        let mut state = self.initial.clone();
        self.load(&mut state);
        state
    }

    /// Apply one incoming frame. Returns `true` when the node's
    /// *authoritative* state changed (a restart) — the shard bumps its
    /// freshness generation on that signal; cache refreshes from peers do
    /// not count (they never appear in reports).
    pub fn on_frame(&mut self, frame: Frame, scratch: &mut State) -> bool {
        match frame {
            Frame::Update { var, value, .. } => {
                self.counters.received += 1;
                if !self.crashed && self.apply_var(var, value) {
                    self.refresh_enabled(scratch);
                }
                false
            }
            Frame::Heartbeat { vars, .. } => {
                self.counters.received += 1;
                if !self.crashed {
                    let mut changed = false;
                    for (var, value) in vars {
                        changed |= self.apply_var(var, value);
                    }
                    if changed {
                        self.refresh_enabled(scratch);
                    }
                }
                false
            }
            Frame::Crash => {
                self.crashed = true;
                self.counters.crashes += 1;
                false
            }
            Frame::Restart { vars } => {
                // The whole footprint — owned variables and caches —
                // comes back arbitrary: the nonmasking scenario. Large
                // footprints arrive as several chunks; each applies the
                // same way.
                for (var, value) in vars {
                    self.apply_var(var, value);
                }
                self.refresh_enabled(scratch);
                self.crashed = false;
                self.next_exec_tick = 0;
                self.dirty = true;
                true
            }
            Frame::Shutdown => {
                self.shutting = true;
                false
            }
            // Stray frames on the data plane (opener Hellos, misrouted
            // control traffic) are ignored, exactly as the thread runtime
            // ignored them.
            _ => false,
        }
    }

    /// Count one frame the codec rejected on a stream carrying this
    /// node's traffic (corruption caught by CRC, bad tag…).
    pub fn on_rejected(&mut self) {
        self.counters.rejected += 1;
    }

    /// True once the node has seen [`Frame::Shutdown`].
    pub fn is_shutting(&self) -> bool {
        self.shutting
    }

    /// Route `frame` to every link whose receiver reads `w`, through each
    /// link's fault injector, batching wire bytes into the owning shard
    /// stream's out-buffer.
    fn send_to_readers(
        &mut self,
        w: VarId,
        frame: &Frame,
        tick: u64,
        partition: &PartitionMap,
        outs: &mut [Vec<u8>],
    ) {
        for link in &mut self.links {
            if !link.vars.contains(&w) {
                continue;
            }
            let routed = Frame::Routed {
                to: link.receiver,
                frame: Box::new(frame.clone()),
            };
            // Encoding cannot fail here (single-var Update, no nesting);
            // if it ever did, treat it as a dropped frame.
            if link
                .injector
                .admit(
                    &routed,
                    tick,
                    partition,
                    &mut self.counters,
                    &mut outs[link.conn],
                )
                .is_err()
            {
                self.counters.dropped += 1;
            }
        }
    }

    /// Execute enabled actions, round-robin, paced by the cooldown.
    fn try_exec(
        &mut self,
        tick: u64,
        partition: &PartitionMap,
        outs: &mut [Vec<u8>],
        scratch: &mut State,
    ) -> u64 {
        if tick < self.next_exec_tick || !self.enabled {
            return 0;
        }
        self.load(scratch);
        // `program` is copied out of `self`, so the action and its write
        // set borrow nothing of `self` while frames go out.
        let program = self.program;
        let mut changes = 0u64;
        let mut executed = false;
        for _ in 0..self.timing.steps_per_tick {
            let Some(action_id) = self.daemon.select(program, &self.spec.actions, scratch) else {
                break;
            };
            let action = program.action(action_id);
            let before = self.step_log.as_ref().map(|_| self.snapshot());
            action.apply(scratch);
            self.store(scratch);
            if let (Some(log), Some(before)) = (&self.step_log, before) {
                log.push(
                    usize::from(self.spec.node),
                    tick,
                    action_id,
                    before,
                    self.snapshot(),
                );
            }
            self.counters.steps += 1;
            if action.kind() != ActionKind::Closure {
                self.counters.convergence_steps += 1;
            }
            executed = true;
            for &w in action.writes() {
                let value = scratch.get(w);
                self.data_seq += 1;
                let frame = Frame::Update {
                    node: self.spec.node,
                    seq: self.data_seq,
                    var: w.index() as u32,
                    value,
                };
                self.send_to_readers(w, &frame, tick, partition, outs);
                changes += 1;
            }
        }
        self.enabled = self.any_enabled_in(scratch);
        if executed {
            // `max(1)` keeps the event-driven loop from executing an
            // unbounded number of bursts within one tick when
            // cooldown_ticks is 0 (the thread runtime was implicitly
            // bounded to one burst per loop iteration).
            self.next_exec_tick = tick + self.timing.cooldown_ticks.max(1);
            self.dirty = true;
        }
        changes
    }

    /// Drive all due work at `tick`: action execution, heartbeats, the
    /// (dirty-gated) periodic report, and delayed-frame flushes. Returns
    /// the number of authoritative changes made, for the shard's
    /// freshness generation.
    pub fn service(
        &mut self,
        tick: u64,
        partition: &PartitionMap,
        outs: &mut [Vec<u8>],
        control: &mut Vec<u8>,
        scratch: &mut State,
    ) -> u64 {
        if self.finalized || self.shutting {
            return 0;
        }
        let mut changes = 0u64;
        if !self.crashed {
            if !self.spec.byzantine {
                changes += self.try_exec(tick, partition, outs, scratch);
            }

            // Heartbeats: re-broadcast owned values to each reader.
            if self.timing.heartbeat_every > 0
                && tick >= self.next_hb_tick
                && !self.links.is_empty()
            {
                // A Byzantine node refreshes its owned variables from
                // the stateless lie stream before broadcasting: lies
                // travel as ordinary heartbeats, keyed by the heartbeat
                // sequence number — not the tick — so the k-th lie is
                // identical for every shard count and batching.
                if self.spec.byzantine {
                    let k = self.counters.heartbeats;
                    let spec = self.spec;
                    for &v in &spec.owned {
                        let lie = byzantine_lie_in(
                            self.program.var(v).domain(),
                            self.timing.byzantine_seed,
                            u64::from(self.spec.node),
                            v.index() as u64,
                            k,
                        );
                        let slot = self.held(v);
                        self.values[slot] = lie;
                    }
                    self.dirty = true;
                    changes += 1;
                }
                self.counters.heartbeats += 1;
                for i in 0..self.links.len() {
                    let vars: Vec<(u32, i64)> = self.links[i]
                        .vars
                        .iter()
                        .map(|&v| (v.index() as u32, self.values[self.held(v)]))
                        .collect();
                    self.data_seq += 1;
                    let routed = Frame::Routed {
                        to: self.links[i].receiver,
                        frame: Box::new(Frame::Heartbeat {
                            node: self.spec.node,
                            seq: self.data_seq,
                            vars,
                        }),
                    };
                    let link = &mut self.links[i];
                    if link
                        .injector
                        .admit(
                            &routed,
                            tick,
                            partition,
                            &mut self.counters,
                            &mut outs[link.conn],
                        )
                        .is_err()
                    {
                        self.counters.dropped += 1;
                    }
                }
                // Absolute cadence: skip missed beats rather than burst.
                while self.next_hb_tick <= tick {
                    self.next_hb_tick += self.timing.heartbeat_every;
                }
            }

            // Report authoritative values to the controller — only when
            // something changed (the controller already holds the initial
            // state, and re-sending identical values at 10^4 nodes would
            // drown the control plane).
            if self.timing.report_every > 0
                && self.dirty
                && tick >= self.last_report_tick + self.timing.report_every
            {
                self.emit_report(false, control);
                self.last_report_tick = tick;
                self.dirty = false;
            }
        }

        // Deliver delayed frames whose tick has come (in-flight frames
        // belong to the network, so this runs even while crashed).
        for link in &mut self.links {
            link.injector
                .flush_due(tick, &mut self.counters, &mut outs[link.conn]);
        }
        changes
    }

    /// The earliest tick at which this node needs service again, or
    /// `None` when it is fully event-driven idle (nothing due until a
    /// frame arrives).
    pub fn next_deadline(&self) -> Option<u64> {
        if self.finalized || self.shutting {
            return None;
        }
        let mut due: Option<u64> = None;
        let mut consider = |t: u64| due = Some(due.map_or(t, |d: u64| d.min(t)));
        if !self.crashed {
            if !self.spec.byzantine && self.enabled {
                consider(self.next_exec_tick);
            }
            if self.timing.heartbeat_every > 0 && !self.links.is_empty() {
                consider(self.next_hb_tick);
            }
            if self.timing.report_every > 0 && self.dirty {
                consider(self.last_report_tick + self.timing.report_every);
            }
        }
        for link in &self.links {
            if let Some(t) = link.injector.next_due() {
                consider(t);
            }
        }
        due
    }

    /// Emit the final (`last = true`) report into the control buffer.
    pub fn finalize(&mut self, control: &mut Vec<u8>) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.emit_report(true, control);
    }

    fn emit_report(&mut self, last: bool, control: &mut Vec<u8>) {
        self.report_seq += 1;
        self.counters.reports += 1;
        let frame = Frame::Report {
            node: self.spec.node,
            seq: self.report_seq,
            last,
            counters: self.counters,
            vars: self
                .spec
                .owned
                .iter()
                .map(|&v| (v.index() as u32, self.values[self.held(v)]))
                .collect(),
        };
        // Reports never exceed MAX_PAYLOAD (validate() bounds per-node
        // owned variables); treat the impossible encode failure as a
        // skipped report rather than a panic.
        let _ = frame.encode_into(control);
    }
}
