//! The length-prefixed wire codec.
//!
//! Every frame travels as a 4-byte big-endian payload length followed by
//! the payload; the payload is a 1-byte tag, the tag-specific body in
//! fixed-width little-endian fields, and a trailing CRC-32 (IEEE) of the
//! tag and body. CRC-32 detects every single-bit error and every burst of
//! up to 32 bits, so the fault injector's bit flips are *always* caught —
//! a corrupted frame is rejected and counted, never silently applied.
//!
//! Stream framing survives payload corruption because the injector (and
//! any single-frame fault) leaves the length prefix intact; only an
//! [`WireError::Oversized`] length is unrecoverable mid-stream, and
//! readers treat it as fatal for the connection.
//!
//! Two frames exist purely for the reactor's shard-multiplexed transport:
//! [`Frame::Routed`] wraps any non-routed frame with the index of the
//! destination node so many logical links can share one shard-pair TCP
//! stream, and [`Frame::Pulse`] carries a shard's freshness generation to
//! the controller so the global detector never declares convergence from a
//! stale assembly.

use std::io::{self, Read, Write};

use crate::counters::CounterSnapshot;

/// Hard ceiling on payload size (tag + body + checksum), in bytes.
///
/// Large enough for a [`Frame::Report`] over thousands of variables,
/// small enough that a corrupted-on-the-wire length cannot make a reader
/// allocate gigabytes.
pub const MAX_PAYLOAD: usize = 1 << 16;

/// Bytes of checksum at the end of every payload.
const CRC_LEN: usize = 4;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the advertised structure was complete.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`] (fatal for a stream: the
    /// frame boundary itself is untrustworthy).
    Oversized {
        /// The advertised payload length.
        len: usize,
    },
    /// Unknown frame tag.
    BadTag(u8),
    /// The CRC-32 over tag + body did not match (bit corruption).
    BadChecksum {
        /// Checksum carried by the frame.
        found: u32,
        /// Checksum recomputed over the received bytes.
        computed: u32,
    },
    /// The payload is longer than the decoded structure (framing slip).
    Trailing {
        /// Unconsumed byte count.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, have {have}"
                )
            }
            WireError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes exceeds {MAX_PAYLOAD}")
            }
            WireError::BadTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::BadChecksum { found, computed } => {
                write!(
                    f,
                    "checksum mismatch: frame says {found:#010x}, computed {computed:#010x}"
                )
            }
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after frame body"),
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), bitwise.
///
/// Frames are small and sends are paced, so the table-free form is plenty
/// fast and keeps the codec dependency- and allocation-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A protocol frame.
///
/// `Update`/`Heartbeat` flow node → node over the fault-injected data
/// plane; `Report` flows node → controller and `Crash`/`Restart`/
/// `Shutdown` controller → node over the reliable instrumentation plane;
/// `Hello` opens every connection. On shard-multiplexed streams every
/// per-node frame rides inside a [`Frame::Routed`] envelope, and
/// [`Frame::Pulse`] carries shard-level freshness to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection opener: identifies the dialing node.
    Hello {
        /// Index of the dialing node.
        node: u16,
    },
    /// One authoritative variable changed at `node`.
    Update {
        /// Writing node.
        node: u16,
        /// Per-link send sequence number (diagnostic; receivers tolerate
        /// loss, duplication, and reordering without it).
        seq: u64,
        /// Variable index (`VarId::index()`).
        var: u32,
        /// New value.
        value: i64,
    },
    /// Periodic re-broadcast of every variable `node` owns, refreshing
    /// caches that missed dropped updates.
    Heartbeat {
        /// Broadcasting node.
        node: u16,
        /// Per-link send sequence number.
        seq: u64,
        /// `(variable index, value)` pairs.
        vars: Vec<(u32, i64)>,
    },
    /// Node → controller observability report.
    Report {
        /// Reporting node.
        node: u16,
        /// Report sequence number.
        seq: u64,
        /// True on the final report sent while shutting down.
        last: bool,
        /// The node's counters at the time of the report.
        counters: CounterSnapshot,
        /// Authoritative `(variable index, value)` pairs for owned vars.
        vars: Vec<(u32, i64)>,
    },
    /// Controller → node: crash now (drop state, go silent).
    Crash,
    /// Controller → node: restart with this (arbitrary) footprint — the
    /// node's owned variables plus the remote variables its actions read.
    ///
    /// A footprint larger than one frame holds is split across several
    /// `Restart` frames (each under [`MAX_PAYLOAD`]); the node applies
    /// every chunk and leaves the crashed state on the first.
    Restart {
        /// `(variable index, value)` pairs covering the node's footprint
        /// — owned variables *and* caches come back arbitrary.
        vars: Vec<(u32, i64)>,
    },
    /// Controller → node: send a final report and exit.
    Shutdown,
    /// Shard-stream envelope: deliver `frame` to node `to`.
    ///
    /// The outer CRC covers the envelope and the inner frame together (the
    /// inner frame is carried without its own CRC), so a single bit flip
    /// anywhere — including in `to` — rejects the whole frame. Nesting a
    /// `Routed` inside a `Routed` is a codec error.
    Routed {
        /// Destination node index.
        to: u16,
        /// The wrapped frame (never itself `Routed`).
        frame: Box<Frame>,
    },
    /// Shard → controller freshness beacon: every state change the shard
    /// has made up to `generation` has been flushed to the controller
    /// stream ahead of this frame.
    Pulse {
        /// Reporting shard index.
        shard: u16,
        /// The shard's change generation at flush time.
        generation: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_REPORT: u8 = 4;
const TAG_CRASH: u8 = 5;
const TAG_RESTART: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_ROUTED: u8 = 8;
const TAG_PULSE: u8 = 9;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_vars(out: &mut Vec<u8>, vars: &[(u32, i64)]) -> Result<(), WireError> {
    let count = u16::try_from(vars.len()).map_err(|_| WireError::Oversized {
        len: vars.len() * 12,
    })?;
    put_u16(out, count);
    for &(var, value) in vars {
        put_u32(out, var);
        put_i64(out, value);
    }
    Ok(())
}

/// A cursor over a received payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.bytes.len() - self.pos;
        if have < n {
            return Err(WireError::Truncated { needed: n, have });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn vars(&mut self) -> Result<Vec<(u32, i64)>, WireError> {
        let count = self.u16()? as usize;
        let mut vars = Vec::with_capacity(count.min(MAX_PAYLOAD / 12));
        for _ in 0..count {
            let var = self.u32()?;
            let value = self.i64()?;
            vars.push((var, value));
        }
        Ok(vars)
    }
}

impl Frame {
    /// Append tag + body (no CRC, no length prefix) to `payload`.
    ///
    /// `allow_routed` is false when encoding the inner frame of a
    /// [`Frame::Routed`] envelope: nesting envelopes is a codec error
    /// (it would also allow unbounded decode recursion).
    fn encode_body(&self, payload: &mut Vec<u8>, allow_routed: bool) -> Result<(), WireError> {
        match self {
            Frame::Hello { node } => {
                payload.push(TAG_HELLO);
                put_u16(payload, *node);
            }
            Frame::Update {
                node,
                seq,
                var,
                value,
            } => {
                payload.push(TAG_UPDATE);
                put_u16(payload, *node);
                put_u64(payload, *seq);
                put_u32(payload, *var);
                put_i64(payload, *value);
            }
            Frame::Heartbeat { node, seq, vars } => {
                payload.push(TAG_HEARTBEAT);
                put_u16(payload, *node);
                put_u64(payload, *seq);
                put_vars(payload, vars)?;
            }
            Frame::Report {
                node,
                seq,
                last,
                counters,
                vars,
            } => {
                payload.push(TAG_REPORT);
                put_u16(payload, *node);
                put_u64(payload, *seq);
                payload.push(u8::from(*last));
                for word in counters.to_words() {
                    put_u64(payload, word);
                }
                put_vars(payload, vars)?;
            }
            Frame::Crash => payload.push(TAG_CRASH),
            Frame::Restart { vars } => {
                payload.push(TAG_RESTART);
                put_vars(payload, vars)?;
            }
            Frame::Shutdown => payload.push(TAG_SHUTDOWN),
            Frame::Routed { to, frame } => {
                if !allow_routed {
                    return Err(WireError::BadTag(TAG_ROUTED));
                }
                payload.push(TAG_ROUTED);
                put_u16(payload, *to);
                frame.encode_body(payload, false)?;
            }
            Frame::Pulse { shard, generation } => {
                payload.push(TAG_PULSE);
                put_u16(payload, *shard);
                put_u64(payload, *generation);
            }
        }
        Ok(())
    }

    /// Decode one tag + body from the cursor (CRC already verified).
    fn decode_body(c: &mut Cursor<'_>, allow_routed: bool) -> Result<Frame, WireError> {
        let frame = match c.u8()? {
            TAG_HELLO => Frame::Hello { node: c.u16()? },
            TAG_UPDATE => Frame::Update {
                node: c.u16()?,
                seq: c.u64()?,
                var: c.u32()?,
                value: c.i64()?,
            },
            TAG_HEARTBEAT => Frame::Heartbeat {
                node: c.u16()?,
                seq: c.u64()?,
                vars: c.vars()?,
            },
            TAG_REPORT => {
                let node = c.u16()?;
                let seq = c.u64()?;
                let last = c.u8()? != 0;
                let mut words = [0u64; CounterSnapshot::WORDS];
                for word in &mut words {
                    *word = c.u64()?;
                }
                Frame::Report {
                    node,
                    seq,
                    last,
                    counters: CounterSnapshot::from_words(words),
                    vars: c.vars()?,
                }
            }
            TAG_CRASH => Frame::Crash,
            TAG_RESTART => Frame::Restart { vars: c.vars()? },
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_ROUTED if allow_routed => Frame::Routed {
                to: c.u16()?,
                frame: Box::new(Frame::decode_body(c, false)?),
            },
            TAG_PULSE => Frame::Pulse {
                shard: c.u16()?,
                generation: c.u64()?,
            },
            tag => return Err(WireError::BadTag(tag)),
        };
        Ok(frame)
    }

    /// Encode the full wire form: length prefix, tag, body, CRC-32.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] if the frame does not fit [`MAX_PAYLOAD`]
    /// (a variable list too long for one frame);
    /// [`WireError::BadTag`] for a `Routed` nested inside a `Routed`.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut wire = Vec::with_capacity(36);
        self.encode_into(&mut wire)?;
        Ok(wire)
    }

    /// Append the full wire form (length prefix, tag, body, CRC-32) to
    /// `out`, leaving `out` untouched on error. This is the batching form:
    /// the reactor accumulates many frames into one buffer and flushes
    /// them with a single `write` per readiness cycle.
    ///
    /// # Errors
    ///
    /// As for [`Frame::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = out.len();
        out.extend_from_slice(&[0u8; 4]); // length placeholder
        if let Err(e) = self.encode_body(out, true) {
            out.truncate(start);
            return Err(e);
        }
        let crc = crc32(&out[start + 4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        let payload_len = out.len() - start - 4;
        if payload_len > MAX_PAYLOAD {
            out.truncate(start);
            return Err(WireError::Oversized { len: payload_len });
        }
        let len_bytes = u32::try_from(payload_len).expect("bounded").to_be_bytes();
        out[start..start + 4].copy_from_slice(&len_bytes);
        Ok(())
    }

    /// Decode a payload (the bytes after the length prefix).
    ///
    /// # Errors
    ///
    /// See [`WireError`]; notably [`WireError::BadChecksum`] for any
    /// single-bit corruption anywhere in the payload.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        if payload.len() < 1 + CRC_LEN {
            return Err(WireError::Truncated {
                needed: 1 + CRC_LEN,
                have: payload.len(),
            });
        }
        if payload.len() > MAX_PAYLOAD {
            return Err(WireError::Oversized { len: payload.len() });
        }
        let (body, crc_bytes) = payload.split_at(payload.len() - CRC_LEN);
        let found = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let computed = crc32(body);
        if found != computed {
            return Err(WireError::BadChecksum { found, computed });
        }
        let mut c = Cursor {
            bytes: body,
            pos: 0,
        };
        let frame = Frame::decode_body(&mut c, true)?;
        if c.pos != body.len() {
            return Err(WireError::Trailing {
                extra: body.len() - c.pos,
            });
        }
        Ok(frame)
    }
}

/// Write one frame to `w` (length prefix included).
///
/// # Errors
///
/// I/O errors from the writer; an unencodable frame surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let wire = frame
        .encode()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    w.write_all(&wire)
}

/// Fill `buf` completely, distinguishing a clean EOF at offset 0 from an
/// EOF that lands mid-read. Returns `Ok(false)` for the clean case.
fn read_full(r: &mut impl Read, buf: &mut [u8], mid_frame: bool) -> io::Result<Option<bool>> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && !mid_frame {
                    return Ok(Some(false)); // clean EOF at a frame boundary
                }
                return Ok(None); // EOF mid-frame
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                if filled == 0 && !mid_frame {
                    return Ok(Some(false));
                }
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(true))
}

/// Read one frame from `r`.
///
/// Returns `Ok(None)` only on a *cleanly* closed connection — an EOF that
/// lands exactly on a frame boundary. An EOF mid-frame (inside the length
/// prefix or inside the payload) is a protocol violation and surfaces as
/// `Ok(Some(Err(WireError::Truncated { .. })))`, never a silent `None`:
/// a peer that dies mid-write must be distinguishable from one that shut
/// down in an orderly way. [`WireError::Oversized`] is fatal for the
/// stream (the caller must stop reading; the boundary is lost); checksum/
/// tag errors are per-frame and the stream remains framed.
///
/// # Errors
///
/// Propagates I/O errors other than EOF.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Result<Frame, WireError>>> {
    let mut len_bytes = [0u8; 4];
    match read_full(r, &mut len_bytes, false)? {
        Some(true) => {}
        Some(false) => return Ok(None),
        None => {
            return Ok(Some(Err(WireError::Truncated {
                needed: len_bytes.len(),
                have: 0,
            })))
        }
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_PAYLOAD {
        return Ok(Some(Err(WireError::Oversized { len })));
    }
    let mut payload = vec![0u8; len];
    match read_full(r, &mut payload, true)? {
        Some(true) => {}
        Some(false) | None => {
            return Ok(Some(Err(WireError::Truncated {
                needed: len,
                have: 0,
            })))
        }
    }
    Ok(Some(Frame::decode(&payload)))
}

/// What a [`FrameBuffer::feed`] observed about the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedStatus {
    /// More bytes may arrive.
    Open,
    /// The reader reported `WouldBlock`: drained for now.
    Drained,
    /// The peer closed the stream (EOF observed).
    Eof,
}

/// Incremental, nonblocking frame decoder for the reactor.
///
/// Bytes are appended in whatever chunks the socket yields; complete
/// frames are popped in order. Frame boundaries, CRC checking, and the
/// EOF-mid-frame rule match [`read_frame`] exactly: after the peer closes,
/// leftover bytes that do not form a whole frame surface as one
/// [`WireError::Truncated`] decode error.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    /// Sticky fatal error: an oversized length prefix destroys framing.
    dead: bool,
    /// EOF seen; at most one trailing Truncated error remains.
    eof: bool,
    eof_error_taken: bool,
}

impl FrameBuffer {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Pull everything currently readable from a nonblocking reader.
    ///
    /// Returns how the read ended: drained (`WouldBlock`), EOF, or still
    /// open (only when `scratch` reads hit an `Interrupted` boundary).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `WouldBlock`/`Interrupted`/EOF.
    pub fn feed(&mut self, r: &mut impl Read) -> io::Result<FeedStatus> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match r.read(&mut scratch) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(FeedStatus::Eof);
                }
                Ok(n) => self.extend(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(FeedStatus::Drained),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Mark the stream closed without reading (e.g. poll reported hangup
    /// and a subsequent read returned 0 elsewhere).
    pub fn mark_eof(&mut self) {
        self.eof = true;
    }

    /// True once a fatal (stream-destroying) error has been returned.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Unconsumed byte count (diagnostic).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Pop the next complete frame, if any.
    ///
    /// `None` means "no complete frame buffered" — either more bytes are
    /// needed, or the stream ended cleanly. After EOF, a partial trailing
    /// frame yields exactly one `Some(Err(Truncated))`. An `Oversized`
    /// length prefix yields `Some(Err(Oversized))` once and kills the
    /// buffer (subsequent pops return `None`).
    pub fn pop(&mut self) -> Option<Result<Frame, WireError>> {
        if self.dead {
            return None;
        }
        let avail = self.buf.len() - self.pos;
        if avail >= 4 {
            let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes");
            let len = u32::from_be_bytes(len_bytes) as usize;
            if len > MAX_PAYLOAD {
                self.dead = true;
                return Some(Err(WireError::Oversized { len }));
            }
            if avail >= 4 + len {
                let payload = &self.buf[self.pos + 4..self.pos + 4 + len];
                let frame = Frame::decode(payload);
                self.pos += 4 + len;
                return Some(frame);
            }
        }
        if self.eof && avail > 0 && !self.eof_error_taken {
            // Peer died mid-frame: same rule as `read_frame`.
            self.eof_error_taken = true;
            return Some(Err(WireError::Truncated {
                needed: if avail >= 4 {
                    u32::from_be_bytes(
                        self.buf[self.pos..self.pos + 4]
                            .try_into()
                            .expect("4 bytes"),
                    ) as usize
                } else {
                    4
                },
                have: avail.saturating_sub(4),
            }));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { node: 3 },
            Frame::Update {
                node: 1,
                seq: 42,
                var: 7,
                value: -5,
            },
            Frame::Heartbeat {
                node: 0,
                seq: 9,
                vars: vec![(0, 1), (4, -9)],
            },
            Frame::Report {
                node: 2,
                seq: 100,
                last: true,
                counters: CounterSnapshot {
                    sent: 1,
                    received: 2,
                    dropped: 3,
                    corrupted: 4,
                    duplicated: 5,
                    delayed: 6,
                    rejected: 7,
                    steps: 8,
                    convergence_steps: 9,
                    heartbeats: 10,
                    reports: 11,
                    crashes: 12,
                },
                vars: vec![(2, 2)],
            },
            Frame::Crash,
            Frame::Restart {
                vars: vec![(0, 3), (1, 0), (2, i64::MIN)],
            },
            Frame::Shutdown,
            Frame::Routed {
                to: 512,
                frame: Box::new(Frame::Update {
                    node: 11,
                    seq: 3,
                    var: 11,
                    value: 8,
                }),
            },
            Frame::Routed {
                to: 0,
                frame: Box::new(Frame::Shutdown),
            },
            Frame::Pulse {
                shard: 7,
                generation: u64::MAX - 1,
            },
        ]
    }

    #[test]
    fn roundtrips() {
        for frame in sample_frames() {
            let wire = frame.encode().unwrap();
            let len = u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize;
            assert_eq!(len, wire.len() - 4);
            assert_eq!(Frame::decode(&wire[4..]).unwrap(), frame);
        }
    }

    #[test]
    fn encode_into_matches_encode_and_batches() {
        let frames = sample_frames();
        let mut batched = Vec::new();
        let mut concat = Vec::new();
        for f in &frames {
            f.encode_into(&mut batched).unwrap();
            concat.extend_from_slice(&f.encode().unwrap());
        }
        assert_eq!(batched, concat);
    }

    #[test]
    fn nested_routed_is_rejected_on_encode() {
        let frame = Frame::Routed {
            to: 1,
            frame: Box::new(Frame::Routed {
                to: 2,
                frame: Box::new(Frame::Crash),
            }),
        };
        assert!(matches!(frame.encode(), Err(WireError::BadTag(8))));
        // And a hand-built nested payload is rejected on decode.
        let mut body = vec![8u8];
        body.extend_from_slice(&1u16.to_le_bytes());
        body.push(8u8);
        body.extend_from_slice(&2u16.to_le_bytes());
        body.push(5u8); // Crash
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(Frame::decode(&body), Err(WireError::BadTag(8))));
    }

    #[test]
    fn routed_bit_flips_reject_whole_envelope() {
        let frame = Frame::Routed {
            to: 9,
            frame: Box::new(Frame::Heartbeat {
                node: 4,
                seq: 77,
                vars: vec![(1, 5)],
            }),
        };
        let wire = frame.encode().unwrap();
        let payload = &wire[4..];
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut bad = payload.to_vec();
                bad[byte] ^= 1 << bit;
                assert!(
                    Frame::decode(&bad).is_err(),
                    "flip of byte {byte} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn stream_roundtrips() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().unwrap().unwrap(), *f);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = Frame::Update {
            node: 1,
            seq: 7,
            var: 3,
            value: 11,
        };
        let wire = frame.encode().unwrap();
        let payload = &wire[4..];
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut bad = payload.to_vec();
                bad[byte] ^= 1 << bit;
                assert!(
                    Frame::decode(&bad).is_err(),
                    "flip of byte {byte} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let frame = Frame::Heartbeat {
            node: 1,
            seq: 2,
            vars: vec![(0, 1), (1, 2), (2, 3)],
        };
        let wire = frame.encode().unwrap();
        let payload = &wire[4..];
        for cut in 0..payload.len() {
            assert!(
                Frame::decode(&payload[..cut]).is_err(),
                "truncation to {cut} bytes slipped through"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_fatal_not_allocated() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut r = &wire[..];
        match read_frame(&mut r).unwrap() {
            Some(Err(WireError::Oversized { len })) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let frame = Frame::Crash;
        let mut wire = frame.encode().unwrap();
        // Rebuild payload with an extra byte, fixing the checksum so only
        // the trailing check can object.
        let mut body = wire[4..wire.len() - CRC_LEN].to_vec();
        body.push(0xAB);
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        wire = body;
        assert!(matches!(
            Frame::decode(&wire),
            Err(WireError::Trailing { extra: 1 })
        ));
    }

    #[test]
    fn too_many_vars_is_oversized() {
        let frame = Frame::Restart {
            vars: (0..70_000).map(|i| (i as u32, 0i64)).collect(),
        };
        assert!(matches!(frame.encode(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn crc_reference_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    // ---- satellite: EOF-mid-frame must be a clean framing error ----

    #[test]
    fn eof_inside_payload_is_truncated_error_not_silent_none() {
        let frame = Frame::Heartbeat {
            node: 1,
            seq: 2,
            vars: vec![(0, 1), (1, 2)],
        };
        let wire = frame.encode().unwrap();
        // Cut the stream after the length prefix + part of the payload.
        for cut in 5..wire.len() {
            let mut r = &wire[..cut];
            match read_frame(&mut r).unwrap() {
                Some(Err(WireError::Truncated { .. })) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn eof_inside_length_prefix_is_truncated_error() {
        let frame = Frame::Crash;
        let wire = frame.encode().unwrap();
        for cut in 1..4 {
            let mut r = &wire[..cut];
            match read_frame(&mut r).unwrap() {
                Some(Err(WireError::Truncated { .. })) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        // Zero bytes is a *clean* close, not an error.
        let mut r: &[u8] = &[];
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn eof_between_frames_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Crash).unwrap();
        let mut r = &buf[..];
        assert!(read_frame(&mut r).unwrap().unwrap().is_ok());
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    // ---- FrameBuffer: the nonblocking decoder obeys the same rules ----

    #[test]
    fn frame_buffer_decodes_across_arbitrary_chunk_boundaries() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire).unwrap();
        }
        for chunk in [1usize, 2, 3, 7, 16, 64, wire.len()] {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                fb.extend(piece);
                while let Some(f) = fb.pop() {
                    got.push(f.unwrap());
                }
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert_eq!(fb.pending_bytes(), 0);
        }
    }

    #[test]
    fn frame_buffer_eof_mid_frame_yields_one_truncated_error() {
        let wire = Frame::Heartbeat {
            node: 1,
            seq: 2,
            vars: vec![(0, 1), (1, 2)],
        }
        .encode()
        .unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend(&wire[..wire.len() - 3]);
        assert!(fb.pop().is_none(), "incomplete frame: wait for more");
        fb.mark_eof();
        match fb.pop() {
            Some(Err(WireError::Truncated { .. })) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(fb.pop().is_none(), "error reported exactly once");
    }

    #[test]
    fn frame_buffer_eof_at_boundary_is_clean() {
        let wire = Frame::Crash.encode().unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        assert!(fb.pop().unwrap().is_ok());
        fb.mark_eof();
        assert!(fb.pop().is_none());
    }

    #[test]
    fn frame_buffer_oversized_is_sticky_fatal() {
        let mut fb = FrameBuffer::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        fb.extend(&bytes);
        assert!(matches!(fb.pop(), Some(Err(WireError::Oversized { .. }))));
        assert!(fb.is_dead());
        assert!(fb.pop().is_none());
        // Even appending a perfectly valid frame cannot revive it: the
        // stream boundary is untrustworthy.
        fb.extend(&Frame::Crash.encode().unwrap());
        assert!(fb.pop().is_none());
    }

    #[test]
    fn frame_buffer_feed_reads_nonblocking_reader() {
        struct Chunked {
            data: Vec<u8>,
            pos: usize,
            would_block_at: usize,
        }
        impl Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos == self.would_block_at && self.pos < self.data.len() {
                    self.would_block_at = usize::MAX;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
                }
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                let n = (self.data.len() - self.pos).min(buf.len()).min(5);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let frames = vec![Frame::Hello { node: 1 }, Frame::Shutdown];
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire).unwrap();
        }
        let mut r = Chunked {
            data: wire,
            pos: 0,
            would_block_at: 5,
        };
        let mut fb = FrameBuffer::new();
        assert_eq!(fb.feed(&mut r).unwrap(), FeedStatus::Drained);
        assert_eq!(fb.feed(&mut r).unwrap(), FeedStatus::Eof);
        let got: Vec<Frame> = std::iter::from_fn(|| fb.pop())
            .map(|f| f.unwrap())
            .collect();
        assert_eq!(got, frames);
    }
}
