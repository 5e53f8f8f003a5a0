//! The readiness-driven core: shard workers multiplexing many nodes over
//! a few sockets.
//!
//! The thread-per-node runtime needed `O(n^2)` sockets and `3n+1`
//! threads — at 10^4 nodes that is past any fd limit and far past what
//! one machine schedules sensibly. The reactor keeps the *logical*
//! topology (every directed link still has its own fault injector and
//! deterministic fault stream) but changes the *physical* one: nodes are
//! partitioned into contiguous shards, each owned by one worker thread,
//! and all logical links from shard `A` to shard `B` share a single
//! directed TCP stream carrying [`Frame::Routed`] envelopes. Socket count
//! is `O(shards^2)`, independent of `n`.
//!
//! Each worker runs one poll(2) loop (via the vendored `polling` shim):
//! it feeds readable streams into incremental [`FrameBuffer`] decoders,
//! dispatches decoded frames to its [`NodeCore`]s, services nodes whose
//! absolute-tick deadlines (cooldown expiry, heartbeat, report, delayed
//! flush) have come due — deadlines live in a min-heap, so idle nodes
//! cost nothing — and batch-flushes the accumulated wire bytes with one
//! write per stream per round instead of one syscall per frame.
//!
//! Every byte between nodes still crosses a real socket (a shard's
//! self-links dial the shard's own listener), so the transport stays
//! honestly message-passing; and because fault decisions moved send-side
//! into [`crate::fault::Injector`] with a fixed per-link RNG draw order,
//! the injected fault pattern is bit-identical to the thread runtime's
//! regardless of sharding or batching.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nonmask_program::{Program, State, StepLog};
use polling::{PollFd, READABLE, WRITABLE};

use crate::fault::{FaultConfig, PartitionMap};
use crate::node::{NodeCore, NodeSpec, NodeTiming};
use crate::wire::{FeedStatus, Frame, FrameBuffer};

/// How nodes map onto shard workers: contiguous, near-equal ranges.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    /// `ranges[s]` is the node index range owned by shard `s`.
    pub ranges: Vec<Range<usize>>,
    /// `shard_of[p]` is the shard owning node `p`.
    pub shard_of: Vec<usize>,
}

impl ShardPlan {
    /// Split `n` nodes into `shards` contiguous ranges differing in size
    /// by at most one.
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        let base = n / shards;
        let rem = n % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut shard_of = vec![0usize; n];
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < rem);
            ranges.push(start..start + len);
            for owner in &mut shard_of[start..start + len] {
                *owner = s;
            }
            start += len;
        }
        ShardPlan { ranges, shard_of }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }
}

/// Resolve a configured shard count (`0` = auto) against the node count.
pub(crate) fn effective_shards(requested: usize, n: usize) -> usize {
    let s = if requested == 0 {
        // Auto: enough workers to overlap protocol work with socket I/O,
        // bounded so a single-core box is not drowned in context switches.
        std::thread::available_parallelism()
            .map_or(2, usize::from)
            .clamp(2, 8)
    } else {
        requested
    };
    s.clamp(1, n.max(1))
}

/// Which shard-pair streams exist, derived from the logical topology: a
/// stream `A → B` exists iff some node in `A` has an outgoing link to a
/// node in `B`. Both endpoints derive this from the same specs, so the
/// dial and accept counts always agree.
#[derive(Debug, Clone)]
pub(crate) struct MeshPlan {
    /// `out_shards[s]`: sorted destination shards `s` dials.
    pub out_shards: Vec<Vec<usize>>,
    /// `in_count[s]`: how many inbound streams `s` must accept.
    pub in_count: Vec<usize>,
}

impl MeshPlan {
    /// Derive the stream mesh from per-node topology specs.
    pub fn new(specs: &[NodeSpec], plan: &ShardPlan) -> Self {
        let s = plan.shard_count();
        let mut links = vec![false; s * s];
        for (p, spec) in specs.iter().enumerate() {
            for (q, _) in &spec.out_peers {
                links[plan.shard_of[p] * s + plan.shard_of[*q]] = true;
            }
        }
        let out_shards: Vec<Vec<usize>> = (0..s)
            .map(|a| (0..s).filter(|&b| links[a * s + b]).collect())
            .collect();
        let in_count = (0..s)
            .map(|b| (0..s).filter(|&a| links[a * s + b]).count())
            .collect();
        MeshPlan {
            out_shards,
            in_count,
        }
    }
}

/// The raw fd the poll shim wants (on non-unix the shim ignores fds and
/// reports everything ready, so the value is moot).
#[cfg(unix)]
pub(crate) fn raw_fd(stream: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn raw_fd(_stream: &TcpStream) -> i32 {
    -1
}

/// Write as much of `buf[*pos..]` as the socket accepts right now.
/// Returns `Ok(true)` when fully flushed (buffer cleared), `Ok(false)` on
/// `WouldBlock` (flushed prefix dropped, remainder kept).
pub(crate) fn flush_buf(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    pos: &mut usize,
) -> io::Result<bool> {
    while *pos < buf.len() {
        match stream.write(&buf[*pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => *pos += k,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                buf.drain(..*pos);
                *pos = 0;
                return Ok(false);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    buf.clear();
    *pos = 0;
    Ok(true)
}

/// Dial `addr`, retrying until `deadline` (listeners are all bound before
/// workers spawn, so connects normally land in the backlog first try).
pub(crate) fn dial(addr: SocketAddr, deadline: Instant) -> io::Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() > deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
}

fn timeout_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, what.to_string())
}

/// Everything a shard worker borrows from the run (shared, read-only
/// except the atomics).
pub(crate) struct WorkerEnv<'a> {
    pub program: &'a Program,
    pub specs: &'a [NodeSpec],
    pub plan: &'a ShardPlan,
    pub mesh: &'a MeshPlan,
    pub timing: &'a NodeTiming,
    pub faults: &'a FaultConfig,
    pub partition: &'a PartitionMap,
    /// The run's initial state: each node's starting footprint, and the
    /// initial contents of the shard's scratch state.
    pub initial: &'a State,
    pub step_log: Option<StepLog>,
    /// `generations[s]`: shard `s`'s live freshness counter, bumped on
    /// every authoritative state change; the controller compares it with
    /// the generation of the last [`Frame::Pulse`] it drained to know
    /// whether its assembled snapshot is stale.
    pub generations: &'a [AtomicU64],
    /// Test hook: this shard's worker panics on startup, exercising the
    /// `NetError::ControlLoopFailed` path.
    pub sabotage: Option<usize>,
}

/// What a poll slot refers to.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Control,
    In(usize),
    Out(usize),
}

/// Run shard `shard`: build the stream mesh, then drive every owned node
/// until the controller shuts the run down.
pub(crate) fn run_worker(
    env: &WorkerEnv<'_>,
    shard: usize,
    listener: TcpListener,
    shard_addrs: &[SocketAddr],
    controller_addr: SocketAddr,
) -> io::Result<()> {
    if env.sabotage == Some(shard) {
        panic!("net worker {shard} sabotaged by test hook");
    }
    let deadline = Instant::now() + env.timing.startup_timeout;
    let range = env.plan.ranges[shard].clone();

    // Control plane first: greet with our shard id so the controller can
    // route crash/restart/shutdown envelopes to the right stream.
    let mut control = dial(controller_addr, deadline)?;
    control.set_nodelay(true)?;
    let mut greeting = Vec::new();
    Frame::Pulse {
        shard: shard as u16,
        generation: 0,
    }
    .encode_into(&mut greeting)
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    control.write_all(&greeting)?;

    // Data plane: dial one stream per destination shard (self included —
    // a shard's self-links go through a real socket too), then accept one
    // per source shard. Dial-before-accept cannot deadlock: connects are
    // completed by the peer's listener backlog, not its accept calls.
    let out_shards = &env.mesh.out_shards[shard];
    let mut out_streams = Vec::with_capacity(out_shards.len());
    for &t in out_shards {
        let s = dial(shard_addrs[t], deadline)?;
        s.set_nodelay(true)?;
        out_streams.push(s);
    }
    listener.set_nonblocking(true)?;
    let mut in_streams: Vec<TcpStream> = Vec::with_capacity(env.mesh.in_count[shard]);
    while in_streams.len() < env.mesh.in_count[shard] {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nodelay(true)?;
                in_streams.push(s);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(timeout_err("peer shard never dialed in"));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(e),
        }
    }
    drop(listener);

    let mut conn_of_shard = vec![usize::MAX; shard_addrs.len()];
    for (i, &t) in out_shards.iter().enumerate() {
        conn_of_shard[t] = i;
    }
    // The one full-length state of the shard: every node lends its
    // footprint to it to evaluate or apply an action.
    let mut scratch = env.initial.clone();
    let mut nodes: Vec<NodeCore<'_>> = range
        .clone()
        .map(|p| {
            NodeCore::new(
                env.program,
                &env.specs[p],
                env.timing,
                env.initial,
                env.faults,
                |q| conn_of_shard[env.plan.shard_of[q]],
                env.step_log.clone(),
                &mut scratch,
            )
        })
        .collect();

    // Mesh is up: announce every owned node. The controller's startup
    // barrier is "all n Hellos seen", exactly as in the thread runtime.
    let mut hellos = Vec::new();
    for p in range.clone() {
        Frame::Hello {
            node: env.specs[p].node,
        }
        .encode_into(&mut hellos)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    }
    control.write_all(&hellos)?;

    control.set_nonblocking(true)?;
    for s in &out_streams {
        s.set_nonblocking(true)?;
    }
    for s in &in_streams {
        s.set_nonblocking(true)?;
    }

    worker_loop(
        env,
        shard,
        range,
        &mut nodes,
        &mut scratch,
        &mut control,
        &mut out_streams,
        &mut in_streams,
    )?;
    let _ = control.shutdown(std::net::Shutdown::Both);
    Ok(())
}

/// The steady-state poll loop (split out of [`run_worker`] so startup and
/// steady state read separately).
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn worker_loop(
    env: &WorkerEnv<'_>,
    shard: usize,
    range: Range<usize>,
    nodes: &mut [NodeCore<'_>],
    scratch: &mut State,
    control: &mut TcpStream,
    out_streams: &mut [TcpStream],
    in_streams: &mut [TcpStream],
) -> io::Result<()> {
    let tick_ns = env.timing.tick.as_nanos().max(1);
    let epoch = Instant::now();
    let tick_of = |at: Instant| -> u64 { ((at - epoch).as_nanos() / tick_ns) as u64 };

    let mut control_in = FrameBuffer::new();
    let mut control_out: Vec<u8> = Vec::new();
    let mut control_pos = 0usize;
    let mut control_stalled = false;
    let mut control_eof = false;
    let mut in_bufs: Vec<FrameBuffer> = in_streams.iter().map(|_| FrameBuffer::new()).collect();
    let mut in_eof: Vec<bool> = vec![false; in_streams.len()];
    // Attribution for codec rejects on a muxed stream: the last node a
    // good frame on that stream routed to (best effort — the corrupted
    // envelope hides its own destination).
    let mut last_routed: Vec<usize> = vec![0; in_streams.len()];
    let mut out_bufs: Vec<Vec<u8>> = out_streams.iter().map(|_| Vec::new()).collect();
    let mut out_pos: Vec<usize> = vec![0; out_streams.len()];
    let mut out_stalled: Vec<bool> = vec![false; out_streams.len()];
    let mut out_dead: Vec<bool> = vec![false; out_streams.len()];

    // Absolute-tick deadlines, lazily deduplicated: duplicate entries are
    // harmless because servicing is idempotent at a given tick.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, node) in nodes.iter().enumerate() {
        if let Some(t) = node.next_deadline() {
            heap.push(Reverse((t, i)));
        }
    }
    let mut touched: Vec<bool> = vec![false; nodes.len()];
    let mut svc: Vec<usize> = Vec::with_capacity(nodes.len());

    let gen = &env.generations[shard];
    let mut gen_local = 0u64;
    let mut last_pulsed = 0u64;
    let mut quiet_rounds = 0u32;
    let mut finalized = false;

    loop {
        // --- wait for readiness or the next deadline ---
        let now_tick = tick_of(Instant::now());
        let all_shutting = nodes.iter().all(NodeCore::is_shutting);
        let timeout = if finalized || all_shutting {
            Duration::from_millis(1)
        } else {
            match heap.peek() {
                Some(&Reverse((t, _))) if t <= now_tick => Duration::ZERO,
                Some(&Reverse((t, _))) => {
                    let due = epoch + Duration::from_nanos((u128::from(t) * tick_ns) as u64);
                    due.saturating_duration_since(Instant::now())
                        .min(Duration::from_millis(10))
                }
                None => Duration::from_millis(10),
            }
        };
        let mut fds: Vec<PollFd> = Vec::with_capacity(1 + in_streams.len() + out_streams.len());
        let mut slots: Vec<Slot> = Vec::with_capacity(fds.capacity());
        if !control_eof {
            let mut interest = READABLE;
            if control_stalled {
                interest |= WRITABLE;
            }
            fds.push(PollFd::new(raw_fd(control), interest));
            slots.push(Slot::Control);
        }
        for (i, s) in in_streams.iter().enumerate() {
            if !in_eof[i] && !in_bufs[i].is_dead() {
                fds.push(PollFd::new(raw_fd(s), READABLE));
                slots.push(Slot::In(i));
            }
        }
        for (i, s) in out_streams.iter().enumerate() {
            if out_stalled[i] && !out_dead[i] {
                fds.push(PollFd::new(raw_fd(s), WRITABLE));
                slots.push(Slot::Out(i));
            }
        }
        polling::poll(&mut fds, Some(timeout))?;

        // --- read everything readable ---
        let mut data_bytes = 0usize;
        for (fd, &slot) in fds.iter().zip(&slots) {
            match slot {
                Slot::Control => {
                    if fd.is_writable() {
                        control_stalled = false;
                    }
                    if fd.is_readable() {
                        match control_in.feed(control) {
                            Ok(FeedStatus::Eof) | Err(_) => control_eof = true,
                            Ok(_) => {}
                        }
                    }
                }
                Slot::In(i) => {
                    if fd.is_readable() {
                        let before = in_bufs[i].pending_bytes();
                        match in_bufs[i].feed(&mut in_streams[i]) {
                            Ok(FeedStatus::Eof) => in_eof[i] = true,
                            Ok(_) => {}
                            // A dead peer stream loses that shard's links,
                            // not this shard's nodes (old runtime: a dead
                            // pump thread behaved the same way).
                            Err(_) => in_eof[i] = true,
                        }
                        data_bytes += in_bufs[i].pending_bytes() - before;
                    }
                }
                Slot::Out(i) => {
                    if fd.is_writable() {
                        out_stalled[i] = false;
                    }
                }
            }
        }

        // --- dispatch decoded frames to nodes ---
        svc.clear();
        let mark = |touched: &mut [bool], svc: &mut Vec<usize>, local: usize| {
            if !touched[local] {
                touched[local] = true;
                svc.push(local);
            }
        };
        while let Some(res) = control_in.pop() {
            if let Ok(Frame::Routed { to, frame }) = res {
                let p = usize::from(to);
                if range.contains(&p) {
                    let local = p - range.start;
                    if nodes[local].on_frame(*frame, scratch) {
                        gen_local += 1;
                    }
                    mark(&mut touched, &mut svc, local);
                }
            }
            // Control traffic is not fault-injected; anything else
            // (stray frame, impossible decode error) is ignored.
        }
        for i in 0..in_bufs.len() {
            while let Some(res) = in_bufs[i].pop() {
                match res {
                    Ok(Frame::Routed { to, frame }) => {
                        let p = usize::from(to);
                        if range.contains(&p) {
                            let local = p - range.start;
                            last_routed[i] = local;
                            if nodes[local].on_frame(*frame, scratch) {
                                gen_local += 1;
                            }
                            mark(&mut touched, &mut svc, local);
                        }
                    }
                    // Un-routed frames never travel the data plane; a
                    // decoded one survived a CRC collision — drop it.
                    Ok(_) => {}
                    Err(_) => nodes[last_routed[i]].on_rejected(),
                }
            }
        }

        // --- service nodes whose deadlines are due or that got frames ---
        let now_tick = tick_of(Instant::now());
        while let Some(&Reverse((t, i))) = heap.peek() {
            if t > now_tick {
                break;
            }
            heap.pop();
            mark(&mut touched, &mut svc, i);
        }
        for &i in &svc {
            touched[i] = false;
            gen_local += nodes[i].service(
                now_tick,
                env.partition,
                &mut out_bufs,
                &mut control_out,
                scratch,
            );
            if let Some(t) = nodes[i].next_deadline() {
                heap.push(Reverse((t.max(now_tick + 1), i)));
            }
        }

        // --- publish freshness ---
        if gen_local > last_pulsed {
            gen.store(gen_local, Ordering::Release);
            let _ = Frame::Pulse {
                shard: shard as u16,
                generation: gen_local,
            }
            .encode_into(&mut control_out);
            last_pulsed = gen_local;
        }

        // --- quiescent shutdown ---
        // Once every owned node has seen Shutdown, nodes stop producing
        // but keep *counting* arrivals; the final counter snapshots are
        // taken only after two consecutive quiet rounds with all output
        // flushed, so in-flight frames from slower shards still land in
        // `received` and a faultless run balances sent == received
        // exactly.
        if all_shutting && !finalized {
            if data_bytes == 0 {
                quiet_rounds += 1;
            } else {
                quiet_rounds = 0;
            }
            let outs_flushed = out_bufs.iter().all(Vec::is_empty);
            if quiet_rounds >= 2 && outs_flushed {
                for node in nodes.iter_mut() {
                    node.finalize(&mut control_out);
                }
                finalized = true;
            }
        }

        // --- flush batched output ---
        if !control_out.is_empty() || control_pos > 0 {
            match flush_buf(control, &mut control_out, &mut control_pos) {
                Ok(true) => control_stalled = false,
                Ok(false) => control_stalled = true,
                // Control write failure means the controller is gone:
                // the run is over for this shard.
                Err(_) => control_eof = true,
            }
        }
        for i in 0..out_streams.len() {
            if out_dead[i] || out_bufs[i].is_empty() {
                continue;
            }
            match flush_buf(&mut out_streams[i], &mut out_bufs[i], &mut out_pos[i]) {
                Ok(true) => out_stalled[i] = false,
                Ok(false) => out_stalled[i] = true,
                Err(_) => {
                    out_dead[i] = true;
                    out_bufs[i].clear();
                    out_pos[i] = 0;
                }
            }
        }

        if control_eof || (finalized && control_out.is_empty() && control_pos == 0) {
            // Controller hung up (normal end: it saw our final reports;
            // abnormal: it errored out), or everything this shard owed the
            // run has been flushed. Either way nothing is left to do.
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_is_contiguous_and_balanced() {
        let plan = ShardPlan::new(10, 4);
        assert_eq!(plan.shard_count(), 4);
        let sizes: Vec<usize> = plan.ranges.iter().map(ExactSizeIterator::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
        let mut next = 0;
        for (s, r) in plan.ranges.iter().enumerate() {
            assert_eq!(r.start, next, "ranges are contiguous");
            next = r.end;
            for p in r.clone() {
                assert_eq!(plan.shard_of[p], s);
            }
        }
    }

    #[test]
    fn shard_plan_clamps_to_node_count() {
        let plan = ShardPlan::new(3, 16);
        assert_eq!(plan.shard_count(), 3);
        assert!(plan.ranges.iter().all(|r| r.len() == 1));
        assert_eq!(effective_shards(16, 3), 3);
        assert_eq!(effective_shards(1, 100), 1);
        assert!(effective_shards(0, 100) >= 2);
    }

    #[test]
    fn mesh_plan_dial_and_accept_counts_agree() {
        // A 4-node ring over 2 shards: 0→1, 1→2, 2→3, 3→0 becomes
        // shard links 0→0 (via 0→1), 0→1, 1→1, 1→0.
        let specs: Vec<NodeSpec> = (0..4u16)
            .map(|p| NodeSpec {
                node: p,
                actions: Vec::new(),
                owned: Vec::new(),
                footprint: Vec::new(),
                out_peers: vec![(usize::from((p + 1) % 4), Vec::new())],
                byzantine: false,
            })
            .collect();
        let plan = ShardPlan::new(4, 2);
        let mesh = MeshPlan::new(&specs, &plan);
        assert_eq!(mesh.out_shards[0], vec![0, 1]);
        assert_eq!(mesh.out_shards[1], vec![0, 1]);
        assert_eq!(mesh.in_count, vec![2, 2]);
        // Global dial count equals global accept count.
        let dials: usize = mesh.out_shards.iter().map(Vec::len).sum();
        let accepts: usize = mesh.in_count.iter().sum();
        assert_eq!(dials, accepts);
    }
}
