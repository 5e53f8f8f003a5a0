//! The controller: launches shard workers that multiplex one node per
//! protocol process, injects scheduled faults, detects stabilization at
//! runtime, and assembles the machine-readable report.
//!
//! Since the reactor refactor the controller no longer owns one socket
//! and two threads per node: it accepts a single control stream per
//! *shard* (see the `reactor` module), drives them all from one poll loop,
//! and addresses individual nodes with [`Frame::Routed`] envelopes.
//! Convergence sampling is freshness-gated: every shard publishes a live
//! generation counter (bumped on each authoritative state change) and
//! pulses the generation it has flushed down its control stream, so the
//! controller knows when its assembled snapshot lags a busy shard and
//! skips the sample instead of risking a premature verdict (with a
//! bounded skip budget, [`DetectorConfig::max_stale_skips`], so sampling
//! can never starve).

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nonmask_obs::{CounterSet, Event, Journal};
use nonmask_program::json::{escape, state_to_json};
use nonmask_program::{Predicate, Program, State, StepLog, VarId};
use nonmask_sim::{RefineError, Refinement};
use polling::{PollFd, READABLE, WRITABLE};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::counters::CounterSnapshot;
use crate::detect::{Detector, DetectorConfig, Episode};
use crate::fault::{FaultConfig, PartitionMap};
use crate::node::{NodeSpec, NodeTiming};
use crate::reactor::{
    effective_shards, flush_buf, raw_fd, run_worker, MeshPlan, ShardPlan, WorkerEnv,
};
use crate::wire::{read_frame, FeedStatus, Frame, FrameBuffer, MAX_PAYLOAD};

/// Most `(var, value)` pairs per Restart frame: a restart of a huge
/// footprint is chunked so no frame exceeds [`MAX_PAYLOAD`].
const RESTART_CHUNK: usize = 4096;

/// A scheduled disturbance.
///
/// Events fire in order, and each waits until the detector has declared
/// the *current* episode converged (and `at_least` has elapsed) — so
/// every episode's convergence latency is measured from a converged
/// baseline, never overlapping the previous recovery.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// Crash `node` (it drops its state and goes silent), then after
    /// `down` restart it with an *arbitrary* state sampled from the run's
    /// RNG — owned variables and cached copies alike, the paper's
    /// nonmasking scenario.
    CrashRestart {
        /// Node to crash.
        node: usize,
        /// Earliest time (since run start) the crash may fire.
        at_least: Duration,
        /// How long the node stays down.
        down: Duration,
    },
    /// Partition the nodes into groups (frames crossing group boundaries
    /// drop), then heal after `heal_after`.
    Partition {
        /// `groups[node]` is the node's group id.
        groups: Vec<usize>,
        /// Earliest time (since run start) the partition may form.
        at_least: Duration,
        /// How long the partition lasts.
        heal_after: Duration,
    },
}

/// Configuration of a [`run`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Seed for restart-state sampling (fault rates seed separately via
    /// [`FaultConfig::seed`]).
    pub seed: u64,
    /// Data-plane fault rates.
    pub faults: FaultConfig,
    /// Wall-clock duration of one node-loop tick.
    pub tick: Duration,
    /// Max actions a node executes per eligible tick.
    pub steps_per_tick: usize,
    /// Ticks a node rests after executing (paces the protocol below the
    /// report cadence so assembled snapshots are near-consistent).
    pub cooldown_ticks: u64,
    /// Heartbeat period in ticks (`0` disables; heartbeats are what heal
    /// caches after lost updates, so disable only with a lossless net).
    pub heartbeat_every: u64,
    /// Report period in ticks.
    pub report_every: u64,
    /// Worker shards multiplexing the nodes (`0` = auto from available
    /// parallelism). Physical transport only: the logical per-link fault
    /// streams are shard-count-invariant.
    pub shards: usize,
    /// Stabilization-detector thresholds.
    pub detector: DetectorConfig,
    /// Abort the run (unconverged) after this much wall-clock time.
    pub timeout: Duration,
    /// Scheduled disturbances.
    pub events: Vec<NetEvent>,
    /// Permanently malicious nodes: each never executes program actions
    /// and instead broadcasts seeded arbitrary values for its owned
    /// variables at every heartbeat, forever (the fault never heals). A
    /// run with Byzantine nodes should be given a goal that reads only
    /// variables *outside* their influence region (e.g. a protocol's
    /// safe-region goal) — a goal pinning a liar's own variables can
    /// never stabilize.
    pub byzantine: Vec<usize>,
    /// Seed of the Byzantine lie stream
    /// ([`nonmask_program::byzantine_lie_in`]); independent of
    /// [`NetConfig::seed`] so sim and net runs can share one adversary.
    pub byzantine_seed: u64,
    /// Structured event journal for the controller: fault injections,
    /// detector episodes, control frames, and final per-node counters.
    /// Defaults to [`Journal::disabled`] (no overhead).
    pub journal: Journal,
    /// Record every action a node executes — node index, node-local tick,
    /// and the node's state before/after (the initial state overlaid with
    /// the node's footprint) — for differential conformance checking
    /// (`crates/conform`). Off by default; recording builds two full
    /// states per step and appends them under a shared lock.
    pub step_log: Option<StepLog>,
    /// Test hook: panic the given shard worker during startup, to
    /// exercise the [`NetError::ControlLoopFailed`] path.
    #[doc(hidden)]
    pub sabotage_worker: Option<usize>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            seed: 0,
            faults: FaultConfig::default(),
            tick: Duration::from_micros(200),
            steps_per_tick: 1,
            cooldown_ticks: 16,
            heartbeat_every: 4,
            report_every: 1,
            shards: 0,
            detector: DetectorConfig::default(),
            timeout: Duration::from_secs(30),
            events: Vec::new(),
            byzantine: Vec::new(),
            byzantine_seed: 0,
            journal: Journal::disabled(),
            step_log: None,
            sabotage_worker: None,
        }
    }
}

/// Why a run could not start or finish.
#[derive(Debug)]
pub enum NetError {
    /// The program is not refinable into per-process nodes.
    Refine(RefineError),
    /// Arbitrary restart states require bounded domains.
    Unbounded,
    /// More processes than the wire's 16-bit node ids.
    TooManyNodes(usize),
    /// One node's owned variables do not fit a single report frame.
    TooManyVars(usize),
    /// An event references a node outside the process range.
    BadEvent(String),
    /// Socket setup failed.
    Io(io::Error),
    /// A shard worker thread died (panicked) instead of running its
    /// nodes; carries the panic payload's message.
    ControlLoopFailed(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Refine(e) => write!(f, "not refinable: {e}"),
            NetError::Unbounded => {
                write!(
                    f,
                    "arbitrary restart states require bounded variable domains"
                )
            }
            NetError::TooManyNodes(n) => write!(f, "{n} processes exceed 16-bit node ids"),
            NetError::TooManyVars(n) => {
                write!(
                    f,
                    "{n} owned variables do not fit one frame ({MAX_PAYLOAD} byte payload cap)"
                )
            }
            NetError::BadEvent(msg) => write!(f, "bad event: {msg}"),
            NetError::Io(e) => write!(f, "socket setup failed: {e}"),
            NetError::ControlLoopFailed(msg) => {
                write!(f, "a node worker thread died: {msg}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<RefineError> for NetError {
    fn from(e: RefineError) -> Self {
        NetError::Refine(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// One node's slice of the final report.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// The node's final counters (from its last report).
    pub counters: CounterSnapshot,
}

/// Journals each node's counters under a per-node scope
/// (`"net-node:<index>"`), so one journal distinguishes every node's
/// final figures.
impl CounterSet for NodeReport {
    fn scope(&self) -> String {
        format!("net-node:{}", self.node)
    }

    fn fields(&self) -> Vec<(&'static str, u64)> {
        self.counters.fields()
    }
}

/// The machine-readable outcome of a [`run`].
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Every episode converged and the run did not time out.
    pub converged: bool,
    /// The run hit [`NetConfig::timeout`].
    pub timed_out: bool,
    /// Convergence episodes with wall-clock latencies.
    pub episodes: Vec<Episode>,
    /// Total wall-clock duration of the run.
    pub wall: Duration,
    /// Name of the goal predicate.
    pub goal: String,
    /// Final assembled (god's-eye) state.
    pub final_state: State,
    /// Per-node counters.
    pub nodes: Vec<NodeReport>,
}

fn dur_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl NetReport {
    /// Render as a JSON object (counters, episodes, and final state all
    /// machine-readable).
    pub fn to_json(&self) -> String {
        let episodes: Vec<String> = self
            .episodes
            .iter()
            .map(|e| {
                let converged = e
                    .converged_at
                    .map_or("null".to_owned(), |c| format!("{:.3}", dur_ms(c)));
                let latency = e
                    .latency()
                    .map_or("null".to_owned(), |l| format!("{:.3}", dur_ms(l)));
                format!(
                    "{{\"label\":\"{}\",\"started_ms\":{:.3},\"converged_ms\":{},\"latency_ms\":{}}}",
                    escape(&e.label),
                    dur_ms(e.started_at),
                    converged,
                    latency
                )
            })
            .collect();
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"node\":{},\"counters\":{}}}",
                    n.node,
                    n.counters.to_json()
                )
            })
            .collect();
        format!(
            "{{\"converged\":{},\"timed_out\":{},\"wall_ms\":{:.3},\"goal\":\"{}\",\"episodes\":[{}],\"final_state\":{},\"nodes\":[{}]}}",
            self.converged,
            self.timed_out,
            dur_ms(self.wall),
            escape(&self.goal),
            episodes.join(","),
            state_to_json(&self.final_state),
            nodes.join(",")
        )
    }

    /// Render as a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "converged: {}  (wall {:.1} ms, goal `{}`)\n",
            self.converged,
            dur_ms(self.wall),
            self.goal
        ));
        for e in &self.episodes {
            match e.latency() {
                Some(l) => out.push_str(&format!("  {}: {:.1} ms\n", e.label, dur_ms(l))),
                None => out.push_str(&format!("  {}: did not converge\n", e.label)),
            }
        }
        for n in &self.nodes {
            let c = n.counters;
            out.push_str(&format!(
                "  node {}: sent {} recv {} dropped {} corrupted {} dup {} delayed {} rejected {} steps {} (conv {}) hb {} reports {} crashes {}\n",
                n.node,
                c.sent,
                c.received,
                c.dropped,
                c.corrupted,
                c.duplicated,
                c.delayed,
                c.rejected,
                c.steps,
                c.convergence_steps,
                c.heartbeats,
                c.reports,
                c.crashes
            ));
        }
        out
    }
}

/// An internal scheduled follow-up to a fired event.
enum PendingAction {
    Restart { node: usize },
    Heal,
}

/// Derive per-node topology specs. Node indices are narrowed to the
/// wire's 16-bit id space here, once — the only conversion site, so an
/// oversized process count surfaces as [`NetError::TooManyNodes`] before
/// any socket or thread exists instead of panicking inside a node.
fn build_specs(refinement: &Refinement, byzantine: &[usize]) -> Result<Vec<NodeSpec>, NetError> {
    let n = refinement.process_count();
    let mut specs: Vec<NodeSpec> = (0..n)
        .map(|p| {
            Ok(NodeSpec {
                node: u16::try_from(p).map_err(|_| NetError::TooManyNodes(n))?,
                actions: refinement.actions_of(p).to_vec(),
                owned: refinement.vars_of(p).to_vec(),
                footprint: refinement.footprint_of(p).to_vec(),
                out_peers: Vec::new(),
                byzantine: byzantine.contains(&p),
            })
        })
        .collect::<Result<_, NetError>>()?;
    for spec in &mut specs {
        let mut peer_vars: Vec<(usize, Vec<VarId>)> = Vec::new();
        for &v in &spec.owned {
            for &q in refinement.remote_readers_of(v) {
                match peer_vars.iter_mut().find(|(peer, _)| *peer == q) {
                    Some((_, vars)) => vars.push(v),
                    None => peer_vars.push((q, vec![v])),
                }
            }
        }
        peer_vars.sort_by_key(|(peer, _)| *peer);
        spec.out_peers = peer_vars;
    }
    Ok(specs)
}

fn validate(
    program: &Program,
    refinement: &Refinement,
    config: &NetConfig,
) -> Result<(), NetError> {
    if !program.is_bounded() {
        return Err(NetError::Unbounded);
    }
    let n = refinement.process_count();
    if n > usize::from(u16::MAX) {
        return Err(NetError::TooManyNodes(n));
    }
    // Per-node bound: a report frame carries every variable the node
    // owns (12 bytes each, plus headers and counters). Restart frames
    // carry the whole footprint but are chunked, so only the per-node
    // owned set needs to fit one frame.
    for p in 0..n {
        let owned = refinement.vars_of(p).len();
        if owned * 12 + 128 > MAX_PAYLOAD {
            return Err(NetError::TooManyVars(owned));
        }
    }
    for event in &config.events {
        match event {
            NetEvent::CrashRestart { node, .. } if *node >= n => {
                return Err(NetError::BadEvent(format!(
                    "crash-restart of node {node}, but only {n} nodes"
                )));
            }
            NetEvent::Partition { groups, .. } if groups.len() != n => {
                return Err(NetError::BadEvent(format!(
                    "partition lists {} groups for {n} nodes",
                    groups.len()
                )));
            }
            _ => {}
        }
    }
    for &b in &config.byzantine {
        if b >= n {
            return Err(NetError::BadEvent(format!(
                "byzantine node {b}, but only {n} nodes"
            )));
        }
    }
    Ok(())
}

/// Launch `program` as one node per process — multiplexed onto shard
/// workers over TCP loopback — drive it from `initial` until the goal
/// predicate stabilizes (and every scheduled event has played out), and
/// return the observability report.
///
/// # Errors
///
/// See [`NetError`].
pub fn run(
    program: &Program,
    initial: &State,
    goal: &Predicate,
    config: &NetConfig,
) -> Result<NetReport, NetError> {
    let specs = {
        let _span = config.journal.span("net.build_specs");
        let refinement = Refinement::new(program)?;
        validate(program, &refinement, config)?;
        build_specs(&refinement, &config.byzantine)?
    };
    for &b in &config.byzantine {
        config.journal.emit_with(|| Event::Fault {
            kind: "byzantine".to_string(),
            detail: format!("node {b} (seed {})", config.byzantine_seed),
        });
    }
    let n = specs.len();
    let plan = ShardPlan::new(n, effective_shards(config.shards, n));
    let s_count = plan.shard_count();
    let mesh = MeshPlan::new(&specs, &plan);
    // Socket count is O(shards^2), far under default limits; raising the
    // soft fd cap is opportunistic headroom for user-chosen shard counts.
    let _ = polling::raise_nofile_limit();

    // Bind every listener before any worker dials anything.
    let mut shard_listeners = Vec::with_capacity(s_count);
    let mut shard_addrs = Vec::with_capacity(s_count);
    for _ in 0..s_count {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        shard_addrs.push(listener.local_addr()?);
        shard_listeners.push(listener);
    }
    let controller_listener = TcpListener::bind("127.0.0.1:0")?;
    let controller_addr = controller_listener.local_addr()?;

    let partition = PartitionMap::new();
    let timing = NodeTiming {
        tick: config.tick,
        steps_per_tick: config.steps_per_tick,
        cooldown_ticks: config.cooldown_ticks,
        heartbeat_every: config.heartbeat_every,
        report_every: config.report_every,
        startup_timeout: config.timeout,
        byzantine_seed: config.byzantine_seed,
    };
    let generations: Vec<AtomicU64> = (0..s_count).map(|_| AtomicU64::new(0)).collect();
    let env = WorkerEnv {
        program,
        specs: &specs,
        plan: &plan,
        mesh: &mesh,
        timing: &timing,
        faults: &config.faults,
        partition: &partition,
        initial,
        step_log: config.step_log.clone(),
        generations: &generations,
        sabotage: config.sabotage_worker,
    };

    let (ctrl_result, worker_panic) = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_listeners
            .into_iter()
            .enumerate()
            .map(|(shard, listener)| {
                let env = &env;
                let shard_addrs = &shard_addrs;
                scope.spawn(move || {
                    // Worker I/O failures leave the shard silent; the
                    // controller times out and reports non-convergence.
                    // Panics are caught at join and become
                    // `ControlLoopFailed`.
                    run_worker(env, shard, listener, shard_addrs, controller_addr)
                })
            })
            .collect();
        let result = control_loop(
            program,
            initial,
            goal,
            config,
            &partition,
            controller_listener,
            &plan,
            &generations,
            &specs,
        );
        // The control loop has shut its sockets down (or errored out and
        // dropped them), so every worker sees EOF and exits; joining here
        // cannot hang and surfaces worker panics.
        let mut panic_msg: Option<String> = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                    .unwrap_or_else(|| "worker panicked without a message".to_string());
                panic_msg.get_or_insert(msg);
            }
        }
        (result, panic_msg)
    });
    match worker_panic {
        // A dead worker explains (and outranks) whatever secondary error
        // the controller hit while waiting on it.
        Some(msg) => Err(NetError::ControlLoopFailed(msg)),
        None => ctrl_result,
    }
}

/// One shard's control connection, with incremental decode and batched
/// writes.
struct CtrlConn {
    stream: TcpStream,
    inbuf: FrameBuffer,
    outbuf: Vec<u8>,
    outpos: usize,
    stalled: bool,
    eof: bool,
}

impl CtrlConn {
    fn new(stream: TcpStream) -> Self {
        CtrlConn {
            stream,
            inbuf: FrameBuffer::new(),
            outbuf: Vec::new(),
            outpos: 0,
            stalled: false,
            eof: false,
        }
    }

    fn has_pending_out(&self) -> bool {
        self.outpos > 0 || !self.outbuf.is_empty()
    }
}

/// Controller-side view of the cluster's telemetry.
struct Telemetry {
    assembled: State,
    node_counters: Vec<CounterSnapshot>,
    node_done: Vec<bool>,
    /// Generation carried by the last Pulse drained from each shard.
    seen_gen: Vec<u64>,
    /// When that Pulse arrived.
    last_pulse: Vec<Instant>,
    hellos: usize,
}

/// Poll every live control connection and feed whatever is readable.
fn poll_conns(conns: &mut [CtrlConn], timeout: Duration) -> io::Result<()> {
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let mut idx: Vec<usize> = Vec::with_capacity(conns.len());
    for (i, c) in conns.iter().enumerate() {
        let mut interest = 0u16;
        if !c.eof {
            interest |= READABLE;
            if c.stalled {
                interest |= WRITABLE;
            }
        }
        if interest != 0 {
            fds.push(PollFd::new(raw_fd(&c.stream), interest));
            idx.push(i);
        }
    }
    if fds.is_empty() {
        std::thread::sleep(timeout.min(Duration::from_millis(5)));
        return Ok(());
    }
    polling::poll(&mut fds, Some(timeout))?;
    for (fd, &i) in fds.iter().zip(&idx) {
        let c = &mut conns[i];
        if fd.is_writable() {
            c.stalled = false;
        }
        if fd.is_readable() {
            match c.inbuf.feed(&mut c.stream) {
                Ok(FeedStatus::Eof) | Err(_) => c.eof = true,
                Ok(_) => {}
            }
        }
    }
    Ok(())
}

/// Decode and apply every frame buffered on the control connections.
fn drain_frames(
    conns: &mut [CtrlConn],
    telemetry: &mut Telemetry,
    program: &Program,
    journal: &Journal,
    n: usize,
) {
    for (shard, conn) in conns.iter_mut().enumerate() {
        while let Some(res) = conn.inbuf.pop() {
            let Ok(frame) = res else {
                // The control plane is not fault-injected; a decode error
                // here means a worker died mid-write. Drop the remains.
                continue;
            };
            match frame {
                Frame::Hello { node } if telemetry.hellos < n => {
                    telemetry.hellos += 1;
                    journal.emit_with(|| Event::Frame {
                        node: u64::from(node),
                        kind: "hello".to_string(),
                    });
                }
                Frame::Hello { .. } => {}
                Frame::Pulse { generation, .. } => {
                    telemetry.seen_gen[shard] = generation;
                    telemetry.last_pulse[shard] = Instant::now();
                }
                Frame::Report {
                    node,
                    last,
                    counters,
                    vars,
                    ..
                } => {
                    let node = usize::from(node);
                    if node < n {
                        telemetry.node_counters[node] = counters;
                        telemetry.node_done[node] |= last;
                        // Only final reports are journaled: at the default
                        // cadence the periodic ones arrive thousands of
                        // times per second.
                        if last {
                            journal.emit_with(|| Event::Frame {
                                node: node as u64,
                                kind: "report".to_string(),
                            });
                        }
                        for (var, value) in vars {
                            if (var as usize) < program.var_count() {
                                telemetry
                                    .assembled
                                    .set(VarId::from_index(var as usize), value);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// The Restart frames resurrecting a node with an arbitrary state. All
/// variables are drawn in index order, as a full-state restart would draw
/// them, so the RNG stream — and every value the node can ever observe —
/// is independent of footprint sizes; only the node's footprint travels,
/// chunked by [`RESTART_CHUNK`] (always at least one frame).
fn restart_frames(program: &Program, footprint: &[VarId], rng: &mut StdRng) -> Vec<Frame> {
    let mut wanted = footprint.iter().peekable();
    let mut vars = Vec::with_capacity(footprint.len());
    for v in program.var_ids() {
        let value = program.var(v).domain().sample(rng);
        if wanted.next_if_eq(&&v).is_some() {
            vars.push((v.index() as u32, value));
        }
    }
    if vars.is_empty() {
        return vec![Frame::Restart { vars }];
    }
    vars.chunks(RESTART_CHUNK)
        .map(|chunk| Frame::Restart {
            vars: chunk.to_vec(),
        })
        .collect()
}

/// Queue a control frame for `node` on its shard's stream.
fn send_to_node(conns: &mut [CtrlConn], plan: &ShardPlan, node: usize, frame: Frame) {
    let conn = &mut conns[plan.shard_of[node]];
    if conn.eof {
        return;
    }
    let routed = Frame::Routed {
        to: node as u16,
        frame: Box::new(frame),
    };
    // Control frames are always well-formed and under the payload cap
    // (restarts are pre-chunked); an encode failure cannot happen.
    let _ = routed.encode_into(&mut conn.outbuf);
}

/// Flush every connection's batched output as far as the sockets allow.
fn flush_conns(conns: &mut [CtrlConn]) {
    for c in conns.iter_mut() {
        if c.eof || !c.has_pending_out() {
            continue;
        }
        match flush_buf(&mut c.stream, &mut c.outbuf, &mut c.outpos) {
            Ok(true) => c.stalled = false,
            Ok(false) => c.stalled = true,
            // A write failure means the worker died; reads on the same
            // socket are done too.
            Err(_) => c.eof = true,
        }
    }
}

/// Accept all shard control connections, run the event/detector loop,
/// and assemble the report.
#[allow(clippy::too_many_arguments)]
fn control_loop(
    program: &Program,
    initial: &State,
    goal: &Predicate,
    config: &NetConfig,
    partition: &PartitionMap,
    controller_listener: TcpListener,
    plan: &ShardPlan,
    generations: &[AtomicU64],
    specs: &[NodeSpec],
) -> Result<NetReport, NetError> {
    let journal = &config.journal;
    let s_count = plan.shard_count();
    let n = specs.len();

    // Startup, up to the moment every node has said hello: the workers
    // build their stream mesh and node cores meanwhile.
    let hello_barrier = journal.span("net.hello_barrier");

    // Each shard worker dials in and greets with Pulse{shard, 0}; the
    // accept loop is deadlined so a worker that died during startup
    // cannot block the run forever (on bail-out, dropping the listener
    // and accepted streams gives every worker EOF, so they all unwind).
    controller_listener.set_nonblocking(true)?;
    let startup_deadline = Instant::now() + config.timeout;
    let mut slots: Vec<Option<CtrlConn>> = (0..s_count).map(|_| None).collect();
    let mut accepted = 0usize;
    while accepted < s_count {
        match controller_listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nodelay(true)?;
                stream.set_nonblocking(false)?;
                let remaining = startup_deadline
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                stream.set_read_timeout(Some(remaining))?;
                let shard = match read_frame(&mut stream)? {
                    Some(Ok(Frame::Pulse { shard, .. })) => usize::from(shard),
                    other => {
                        return Err(NetError::Io(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("expected shard greeting on control connection, got {other:?}"),
                        )))
                    }
                };
                if shard >= s_count || slots[shard].is_some() {
                    return Err(NetError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bogus shard greeting {shard}"),
                    )));
                }
                stream.set_read_timeout(None)?;
                stream.set_nonblocking(true)?;
                slots[shard] = Some(CtrlConn::new(stream));
                accepted += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > startup_deadline {
                    return Err(NetError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "a shard worker never connected to the controller",
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    drop(controller_listener);
    let mut conns: Vec<CtrlConn> = slots
        .into_iter()
        .map(|c| c.expect("all accepted"))
        .collect();

    let mut telemetry = Telemetry {
        assembled: initial.clone(),
        node_counters: vec![CounterSnapshot::default(); n],
        node_done: vec![false; n],
        seen_gen: vec![0; s_count],
        last_pulse: vec![Instant::now(); s_count],
        hellos: 0,
    };

    // Startup barrier: every node announces itself once its shard's mesh
    // is fully connected; the convergence clock starts only then, so
    // episode latencies never include connection setup.
    while telemetry.hellos < n {
        if Instant::now() > startup_deadline {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "a node never announced itself to the controller",
            )));
        }
        poll_conns(&mut conns, Duration::from_millis(1))?;
        drain_frames(&mut conns, &mut telemetry, program, journal, n);
        if conns.iter().all(|c| c.eof) {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "every shard worker hung up before the run started",
            )));
        }
    }

    drop(hello_barrier);
    let start = Instant::now();
    let mut detector = Detector::new(config.detector.clone(), "initial convergence");
    journal.emit_with(|| Event::EpisodeStarted {
        label: "initial convergence".to_string(),
    });
    let mut queue: VecDeque<NetEvent> = config.events.iter().cloned().collect();
    let mut pending: Vec<(Duration, PendingAction)> = Vec::new();
    // The controller's event stream must not share seed material with the
    // per-node link streams derived from the same config seed.
    let mut rng = StdRng::seed_from_u64(rand::split_seed(config.seed, 0xD15E_A5ED));
    let mut timed_out = false;
    // A shard is "fresh" when the controller has drained a Pulse for its
    // latest generation, or when one arrived so recently that the lag is
    // ordinary pipeline skew rather than a stall.
    let pulse_window = (config.detector.stable_for / 4).max(Duration::from_millis(5));

    loop {
        poll_conns(&mut conns, Duration::from_micros(500))?;
        drain_frames(&mut conns, &mut telemetry, program, journal, n);
        let now = start.elapsed();

        // Fire due follow-ups (restarts, heals) unconditionally.
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 <= now {
                let (_, action) = pending.swap_remove(i);
                match action {
                    PendingAction::Restart { node } => {
                        for frame in restart_frames(program, &specs[node].footprint, &mut rng) {
                            send_to_node(&mut conns, plan, node, frame);
                        }
                        detector.start_episode(now, format!("crash-restart node {node}"));
                        journal.emit_with(|| Event::Fault {
                            kind: "restart".to_string(),
                            detail: format!("node {node} with arbitrary state"),
                        });
                        journal.emit_with(|| Event::EpisodeStarted {
                            label: format!("crash-restart node {node}"),
                        });
                    }
                    PendingAction::Heal => {
                        partition.heal();
                        detector.start_episode(now, "partition heal");
                        journal.emit_with(|| Event::Fault {
                            kind: "heal".to_string(),
                            detail: "partition healed".to_string(),
                        });
                        journal.emit_with(|| Event::EpisodeStarted {
                            label: "partition heal".to_string(),
                        });
                    }
                }
            } else {
                i += 1;
            }
        }

        // Fire the next scheduled event once the system is converged.
        if pending.is_empty() && detector.idle() {
            let due = matches!(
                queue.front(),
                Some(NetEvent::CrashRestart { at_least, .. } | NetEvent::Partition { at_least, .. })
                    if *at_least <= now
            );
            if due {
                match queue.pop_front().expect("checked front") {
                    NetEvent::CrashRestart { node, down, .. } => {
                        send_to_node(&mut conns, plan, node, Frame::Crash);
                        journal.emit_with(|| Event::Fault {
                            kind: "crash".to_string(),
                            detail: format!("node {node} down for {down:?}"),
                        });
                        pending.push((now + down, PendingAction::Restart { node }));
                    }
                    NetEvent::Partition {
                        groups, heal_after, ..
                    } => {
                        journal.emit_with(|| Event::Fault {
                            kind: "partition".to_string(),
                            detail: format!("groups {groups:?}"),
                        });
                        partition.set(groups);
                        pending.push((now + heal_after, PendingAction::Heal));
                    }
                }
            }
        }

        // Freshness-gated sampling: skip the observation when some shard
        // has state the controller provably has not assembled yet — but
        // never skip more than the configured budget in a row, because a
        // protocol that is always active (closure actions) keeps its
        // generation perpetually hot.
        let fresh = (0..s_count).all(|s| {
            telemetry.seen_gen[s] == generations[s].load(Ordering::Acquire)
                || telemetry.last_pulse[s].elapsed() <= pulse_window
        });
        if (fresh || detector.note_stale())
            && detector.observe(now, goal.holds(&telemetry.assembled))
        {
            if let Some(episode) = detector.episodes().last() {
                journal.emit_with(|| Event::EpisodeConverged {
                    label: episode.label.clone(),
                    micros: episode.latency().unwrap_or_default().as_micros() as u64,
                });
            }
        }

        flush_conns(&mut conns);

        if queue.is_empty() && pending.is_empty() && detector.idle() {
            break;
        }
        if conns.iter().all(|c| c.eof) {
            break;
        }
        if now > config.timeout {
            timed_out = true;
            break;
        }
    }

    // Shut everything down and collect final reports: each node gets a
    // routed Shutdown; workers quiesce (in-flight data still counts),
    // emit final reports, and hang up.
    let teardown = journal.span("net.teardown");
    for node in 0..n {
        send_to_node(&mut conns, plan, node, Frame::Shutdown);
    }
    let grace = Instant::now();
    while !telemetry.node_done.iter().all(|&d| d) && grace.elapsed() < Duration::from_secs(5) {
        flush_conns(&mut conns);
        if conns.iter().all(|c| c.eof) && !conns.iter().any(CtrlConn::has_pending_out) {
            break;
        }
        poll_conns(&mut conns, Duration::from_millis(5))?;
        drain_frames(&mut conns, &mut telemetry, program, journal, n);
    }
    for c in &conns {
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
    }
    drop(conns);
    drop(teardown);

    let converged = detector.all_converged() && !timed_out;
    let report = NetReport {
        converged,
        timed_out,
        episodes: detector.episodes().to_vec(),
        wall: start.elapsed(),
        goal: goal.name().to_owned(),
        final_state: telemetry.assembled,
        nodes: telemetry
            .node_counters
            .into_iter()
            .enumerate()
            .map(|(node, counters)| NodeReport { node, counters })
            .collect(),
    };
    for node in &report.nodes {
        node.emit(journal);
    }
    journal.flush();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, ProcessId};
    use nonmask_protocols::token_ring::TokenRing;
    use rand::RngCore;

    /// Every `(var, value)` pair the frames carry, in order.
    fn restart_pairs(frames: &[Frame]) -> Vec<(u32, i64)> {
        frames
            .iter()
            .flat_map(|f| match f {
                Frame::Restart { vars } => vars.clone(),
                other => panic!("not a restart frame: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_restart_sends_the_footprint_slice_of_the_full_draw() {
        let n = 10_000;
        let ring = TokenRing::new(n, n as i64);
        let program = ring.program();
        let specs = build_specs(&Refinement::new(program).unwrap(), &[]).unwrap();

        // What a restart of the whole state would have drawn.
        let mut full_rng = StdRng::seed_from_u64(42);
        let full: Vec<i64> = program
            .var_ids()
            .map(|v| program.var(v).domain().sample(&mut full_rng))
            .collect();

        let mut rng = StdRng::seed_from_u64(42);
        let node = n / 3;
        let footprint = &specs[node].footprint;
        let frames = restart_frames(program, footprint, &mut rng);
        // Two footprint pairs fit one frame; the whole 10^4-variable
        // state needed three.
        assert_eq!(frames.len(), footprint.len().div_ceil(RESTART_CHUNK));
        assert_eq!(frames.len(), 1);
        let expected: Vec<(u32, i64)> = footprint
            .iter()
            .map(|v| (v.index() as u32, full[v.index()]))
            .collect();
        assert_eq!(restart_pairs(&frames), expected);
        // The stream continues exactly where the full draw left it, so
        // later restarts see the same values too.
        assert_eq!(rng.next_u64(), full_rng.next_u64());
    }

    #[test]
    fn a_large_footprint_restarts_in_chunks() {
        // Process 0 reads 5000 variables owned by other processes.
        let mut b = Program::builder("wide");
        let x = b.var_of("x", Domain::range(0, 3), ProcessId(0));
        let mut reads = vec![x];
        for p in 1..=5000 {
            reads.push(b.var_of(format!("y.{p}"), Domain::Bool, ProcessId(p)));
        }
        b.closure_action("watch", reads, [x], |_| false, |_| {});
        let program = b.build();
        let specs = build_specs(&Refinement::new(&program).unwrap(), &[]).unwrap();

        let frames = restart_frames(&program, &specs[0].footprint, &mut StdRng::seed_from_u64(7));
        assert_eq!(frames.len(), 5001usize.div_ceil(RESTART_CHUNK));
        let pairs = restart_pairs(&frames);
        assert_eq!(pairs.len(), 5001);
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "index order");
        // A reader-less process restarts only its own variable.
        let frames = restart_frames(&program, &specs[1].footprint, &mut StdRng::seed_from_u64(7));
        assert_eq!(restart_pairs(&frames).len(), 1);
        // An empty footprint still sends one (empty) frame: the restart
        // itself is the signal.
        let frames = restart_frames(&program, &[], &mut StdRng::seed_from_u64(7));
        assert_eq!(frames.len(), 1);
        assert!(restart_pairs(&frames).is_empty());
    }
}
