//! The event taxonomy and its stable JSON-lines wire format.
//!
//! Every journal line is one flat JSON object: an `"ev"` tag naming the
//! event kind, a `"t_us"` timestamp (microseconds since the journal was
//! opened), and the kind's own fields, all of which are strings or `u64`
//! integers. The format is hand-rolled on both directions (this crate has
//! no dependencies) and locked by round-trip plus golden-file tests — a
//! renamed tag or field is schema drift and fails both the tests and the
//! CI replay gate.

/// One structured observation. See each variant for the producing
/// subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A named phase began (checker pass, net control phase, …).
    SpanOpen {
        /// Phase name, e.g. `"enumerate"` or `"convergence:weakly-fair"`.
        name: String,
    },
    /// The matching phase ended.
    SpanClose {
        /// Phase name (same as the opening event).
        name: String,
        /// Wall-clock duration of the phase in microseconds.
        micros: u64,
    },
    /// A named counter value, scoped to the subsystem that produced it.
    Counter {
        /// Producing scope, e.g. `"checker"` or `"net-node:3"`.
        scope: String,
        /// Counter name, e.g. `"states_decoded"`.
        name: String,
        /// Counter value.
        value: u64,
    },
    /// One phase of the checker's transition build: today one `"fill"`
    /// record for the footprint-table build, with the exact transition
    /// count.
    CsrPhase {
        /// `"fill"` for the table build (`"count"` was the first phase
        /// of the retired two-phase build; it still parses).
        phase: String,
        /// States processed by the phase.
        states: u64,
        /// Transitions known after the phase.
        transitions: u64,
        /// Wall-clock duration of the phase in microseconds.
        micros: u64,
    },
    /// One step of an out-of-core pass over the segment plan; today one
    /// frontier-convergence round. Deliberately carries **no** wall-clock
    /// field: the event sums the round's segments after the merge,
    /// whichever worker swept them, so journals are bit-identical for
    /// every thread count.
    Segment {
        /// Producing pass: `"frontier-round"` for one convergence round
        /// (the only pass that emits this event).
        phase: String,
        /// Round number, from 1.
        index: u64,
        /// States resolved this round.
        states: u64,
        /// Successor evaluations this round.
        transitions: u64,
    },
    /// Progress of one convergence-wave analysis (region build, peel,
    /// residual SCCs) under one fairness assumption.
    Wave {
        /// The daemon assumption, `"unfair"` or `"weakly-fair"`.
        fairness: String,
        /// States in the region `T ∧ ¬S`.
        region: u64,
        /// Region states with no infinite region path (they cannot stay
        /// in the region forever).
        peeled: u64,
        /// Strongly connected components found in the residual.
        sccs: u64,
    },
    /// A constraint of the design does not hold at a replay step.
    ConstraintViolated {
        /// Zero-based step index in the replayed computation.
        step: u64,
        /// Constraint name, e.g. `"x.1>=x.2"`.
        constraint: String,
    },
    /// A constraint was re-established by the action executed at a step.
    ConstraintRepaired {
        /// Zero-based step index in the replayed computation.
        step: u64,
        /// Constraint name.
        constraint: String,
        /// Name of the action whose execution repaired the constraint.
        action: String,
    },
    /// A fault was injected (net runtime or simulator).
    Fault {
        /// Fault kind, e.g. `"crash-restart"`, `"partition"`,
        /// `"corrupt-var"`.
        kind: String,
        /// Free-form detail, e.g. the node index or variable name.
        detail: String,
    },
    /// A control-plane frame was observed by the net runtime.
    Frame {
        /// Reporting node index.
        node: u64,
        /// Frame kind, e.g. `"report"` or `"hello"`.
        kind: String,
    },
    /// The stabilization detector opened a new convergence episode.
    EpisodeStarted {
        /// Episode label, e.g. `"initial"` or `"crash-restart node 2"`.
        label: String,
    },
    /// The stabilization detector declared an episode converged.
    EpisodeConverged {
        /// Episode label.
        label: String,
        /// Convergence latency in microseconds.
        micros: u64,
    },
    /// The simulator reached a globally stable configuration.
    Stabilized {
        /// Rounds executed before stabilization.
        rounds: u64,
    },
    /// One phase of a design-synthesis run (`nonmask-synth`): candidate
    /// enumeration, lattice classification, attribution pruning, oracle
    /// certification, or selection. Deliberately carries **no** wall-clock
    /// field: synthesis events are emitted in constraint/phase order from
    /// the driving thread, so journals are bit-identical for every worker
    /// count and candidate-chunk size.
    Synth {
        /// Pipeline phase: `"grammar"`, `"classify"`, `"prune"`,
        /// `"certify"`, `"select"`, or `"verify"`.
        phase: String,
        /// Free-form detail — the constraint name, layer list, chosen
        /// action, or final verdict.
        detail: String,
        /// Candidates entering the phase.
        candidates: u64,
        /// Candidates surviving the phase.
        survivors: u64,
    },
    /// A conformance verdict from the cross-layer harness
    /// (`crates/conform`): the outcome of differentially replaying one
    /// execution through the checker's step oracle.
    Verdict {
        /// Execution layer the run came from, `"sim"` or `"net"`.
        layer: String,
        /// Protocol instance, e.g. `"token-ring-4x4"`.
        protocol: String,
        /// Seed the run (and its fault schedule) was derived from.
        seed: u64,
        /// Steps validated against the transition relation.
        steps: u64,
        /// `"conforms"` or `"diverged"`.
        verdict: String,
        /// Free-form detail: empty when conforming, the first divergence
        /// otherwise.
        detail: String,
    },
    /// A per-node Byzantine-containment verdict: after a run with
    /// permanently malicious nodes, whether one correct node stabilized
    /// to its legitimate value, keyed by its graph distance to the
    /// nearest liar. The run's containment radius is the largest
    /// `distance` carrying an `"unstable"` verdict (zero when every
    /// correct node stabilized). Deliberately carries **no** wall-clock
    /// field: verdicts are emitted in node order after the run, so
    /// journals are bit-identical for every shard and worker count.
    Containment {
        /// Execution layer the run came from, `"sim"` or `"net"`.
        layer: String,
        /// Protocol instance, e.g. `"bfs-64"`.
        protocol: String,
        /// Seed the run (and its lie streams) was derived from.
        seed: u64,
        /// The judged node's index.
        node: u64,
        /// Hop distance from the node to the nearest Byzantine node.
        distance: u64,
        /// `"stabilized"` or `"unstable"`.
        verdict: String,
    },
}

impl Event {
    /// The `"ev"` tag naming this event kind on the wire.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::SpanOpen { .. } => "span-open",
            Event::SpanClose { .. } => "span-close",
            Event::Counter { .. } => "counter",
            Event::CsrPhase { .. } => "csr-phase",
            Event::Segment { .. } => "segment",
            Event::Wave { .. } => "wave",
            Event::ConstraintViolated { .. } => "constraint-violated",
            Event::ConstraintRepaired { .. } => "constraint-repaired",
            Event::Fault { .. } => "fault",
            Event::Frame { .. } => "frame",
            Event::EpisodeStarted { .. } => "episode-started",
            Event::EpisodeConverged { .. } => "episode-converged",
            Event::Stabilized { .. } => "stabilized",
            Event::Synth { .. } => "synth",
            Event::Verdict { .. } => "verdict",
            Event::Containment { .. } => "containment",
        }
    }

    /// Serialize as one JSON-lines record (no trailing newline), stamped
    /// with `t_us` microseconds.
    pub fn to_json_line(&self, t_us: u64) -> String {
        let mut w = LineWriter::new(self.tag(), t_us);
        match self {
            Event::SpanOpen { name } => w.str_field("name", name),
            Event::SpanClose { name, micros } => {
                w.str_field("name", name);
                w.num_field("micros", *micros);
            }
            Event::Counter { scope, name, value } => {
                w.str_field("scope", scope);
                w.str_field("name", name);
                w.num_field("value", *value);
            }
            Event::CsrPhase {
                phase,
                states,
                transitions,
                micros,
            } => {
                w.str_field("phase", phase);
                w.num_field("states", *states);
                w.num_field("transitions", *transitions);
                w.num_field("micros", *micros);
            }
            Event::Segment {
                phase,
                index,
                states,
                transitions,
            } => {
                w.str_field("phase", phase);
                w.num_field("index", *index);
                w.num_field("states", *states);
                w.num_field("transitions", *transitions);
            }
            Event::Wave {
                fairness,
                region,
                peeled,
                sccs,
            } => {
                w.str_field("fairness", fairness);
                w.num_field("region", *region);
                w.num_field("peeled", *peeled);
                w.num_field("sccs", *sccs);
            }
            Event::ConstraintViolated { step, constraint } => {
                w.num_field("step", *step);
                w.str_field("constraint", constraint);
            }
            Event::ConstraintRepaired {
                step,
                constraint,
                action,
            } => {
                w.num_field("step", *step);
                w.str_field("constraint", constraint);
                w.str_field("action", action);
            }
            Event::Fault { kind, detail } => {
                w.str_field("kind", kind);
                w.str_field("detail", detail);
            }
            Event::Frame { node, kind } => {
                w.num_field("node", *node);
                w.str_field("kind", kind);
            }
            Event::EpisodeStarted { label } => w.str_field("label", label),
            Event::EpisodeConverged { label, micros } => {
                w.str_field("label", label);
                w.num_field("micros", *micros);
            }
            Event::Stabilized { rounds } => w.num_field("rounds", *rounds),
            Event::Synth {
                phase,
                detail,
                candidates,
                survivors,
            } => {
                w.str_field("phase", phase);
                w.str_field("detail", detail);
                w.num_field("candidates", *candidates);
                w.num_field("survivors", *survivors);
            }
            Event::Verdict {
                layer,
                protocol,
                seed,
                steps,
                verdict,
                detail,
            } => {
                w.str_field("layer", layer);
                w.str_field("protocol", protocol);
                w.num_field("seed", *seed);
                w.num_field("steps", *steps);
                w.str_field("verdict", verdict);
                w.str_field("detail", detail);
            }
            Event::Containment {
                layer,
                protocol,
                seed,
                node,
                distance,
                verdict,
            } => {
                w.str_field("layer", layer);
                w.str_field("protocol", protocol);
                w.num_field("seed", *seed);
                w.num_field("node", *node);
                w.num_field("distance", *distance);
                w.str_field("verdict", verdict);
            }
        }
        w.finish()
    }

    /// Parse one JSON-lines record produced by [`Event::to_json_line`].
    ///
    /// # Errors
    ///
    /// [`ParseError`] on malformed JSON, an unknown `"ev"` tag, or a
    /// missing/mistyped field — i.e. on any schema drift.
    pub fn parse_line(line: &str) -> Result<Record, ParseError> {
        let fields = parse_flat_object(line)?;
        let get_str = |key: &'static str| -> Result<String, ParseError> {
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, Value::Str(s))) => Ok(s.clone()),
                Some((_, Value::Num(_))) => {
                    Err(ParseError::new(format!("field `{key}` should be a string")))
                }
                None => Err(ParseError::new(format!("missing field `{key}`"))),
            }
        };
        let get_num = |key: &'static str| -> Result<u64, ParseError> {
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, Value::Num(n))) => Ok(*n),
                Some((_, Value::Str(_))) => {
                    Err(ParseError::new(format!("field `{key}` should be a number")))
                }
                None => Err(ParseError::new(format!("missing field `{key}`"))),
            }
        };
        let tag = get_str("ev")?;
        let t_us = get_num("t_us")?;
        let event = match tag.as_str() {
            "span-open" => Event::SpanOpen {
                name: get_str("name")?,
            },
            "span-close" => Event::SpanClose {
                name: get_str("name")?,
                micros: get_num("micros")?,
            },
            "counter" => Event::Counter {
                scope: get_str("scope")?,
                name: get_str("name")?,
                value: get_num("value")?,
            },
            "csr-phase" => Event::CsrPhase {
                phase: get_str("phase")?,
                states: get_num("states")?,
                transitions: get_num("transitions")?,
                micros: get_num("micros")?,
            },
            "segment" => Event::Segment {
                phase: get_str("phase")?,
                index: get_num("index")?,
                states: get_num("states")?,
                transitions: get_num("transitions")?,
            },
            "wave" => Event::Wave {
                fairness: get_str("fairness")?,
                region: get_num("region")?,
                peeled: get_num("peeled")?,
                sccs: get_num("sccs")?,
            },
            "constraint-violated" => Event::ConstraintViolated {
                step: get_num("step")?,
                constraint: get_str("constraint")?,
            },
            "constraint-repaired" => Event::ConstraintRepaired {
                step: get_num("step")?,
                constraint: get_str("constraint")?,
                action: get_str("action")?,
            },
            "fault" => Event::Fault {
                kind: get_str("kind")?,
                detail: get_str("detail")?,
            },
            "frame" => Event::Frame {
                node: get_num("node")?,
                kind: get_str("kind")?,
            },
            "episode-started" => Event::EpisodeStarted {
                label: get_str("label")?,
            },
            "episode-converged" => Event::EpisodeConverged {
                label: get_str("label")?,
                micros: get_num("micros")?,
            },
            "stabilized" => Event::Stabilized {
                rounds: get_num("rounds")?,
            },
            "synth" => Event::Synth {
                phase: get_str("phase")?,
                detail: get_str("detail")?,
                candidates: get_num("candidates")?,
                survivors: get_num("survivors")?,
            },
            "verdict" => Event::Verdict {
                layer: get_str("layer")?,
                protocol: get_str("protocol")?,
                seed: get_num("seed")?,
                steps: get_num("steps")?,
                verdict: get_str("verdict")?,
                detail: get_str("detail")?,
            },
            "containment" => Event::Containment {
                layer: get_str("layer")?,
                protocol: get_str("protocol")?,
                seed: get_num("seed")?,
                node: get_num("node")?,
                distance: get_num("distance")?,
                verdict: get_str("verdict")?,
            },
            other => return Err(ParseError::new(format!("unknown event tag `{other}`"))),
        };
        Ok(Record { t_us, event })
    }
}

/// A parsed journal record: the event plus its timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Microseconds since the journal was opened.
    pub t_us: u64,
    /// The parsed event.
    pub event: Event,
}

/// A journal line that does not conform to the wire format — malformed
/// JSON, an unknown event tag, or a missing/mistyped field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal schema error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Incremental writer for one flat JSON record.
struct LineWriter {
    out: String,
}

impl LineWriter {
    fn new(tag: &str, t_us: u64) -> Self {
        let mut w = LineWriter {
            out: String::with_capacity(96),
        };
        w.out.push_str("{\"ev\":");
        write_json_string(&mut w.out, tag);
        w.out.push_str(",\"t_us\":");
        w.out.push_str(&t_us.to_string());
        w
    }

    fn str_field(&mut self, key: &str, value: &str) {
        self.out.push(',');
        write_json_string(&mut self.out, key);
        self.out.push(':');
        write_json_string(&mut self.out, value);
    }

    fn num_field(&mut self, key: &str, value: u64) {
        self.out.push(',');
        write_json_string(&mut self.out, key);
        self.out.push(':');
        self.out.push_str(&value.to_string());
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A field value in a flat record: the wire format only has strings and
/// unsigned integers.
enum Value {
    Str(String),
    Num(u64),
}

/// Parse a single-level JSON object of string/u64 fields.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Value)>, ParseError> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err(ParseError::new("expected `{`"));
    }
    loop {
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            Some(',') => {
                chars.next();
                continue;
            }
            _ => return Err(ParseError::new("expected `\"`, `,` or `}`")),
        }
        let key = parse_string(&mut chars)?;
        if chars.next() != Some(':') {
            return Err(ParseError::new(format!("expected `:` after key `{key}`")));
        }
        let value = match chars.peek() {
            Some('"') => Value::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(c) = chars.peek() {
                    let Some(d) = c.to_digit(10) else { break };
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(d as u64))
                        .ok_or_else(|| ParseError::new("number overflows u64"))?;
                    chars.next();
                }
                Value::Num(n)
            }
            _ => {
                return Err(ParseError::new(format!(
                    "expected string or number value for key `{key}`"
                )))
            }
        };
        fields.push((key, value));
    }
    if chars.next().is_some() {
        return Err(ParseError::new("trailing characters after `}`"));
    }
    Ok(fields)
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, ParseError> {
    if chars.next() != Some('"') {
        return Err(ParseError::new("expected `\"`"));
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err(ParseError::new("unterminated string")),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|c| c.to_digit(16))
                            .ok_or_else(|| ParseError::new("bad \\u escape"))?;
                        code = code * 16 + d;
                    }
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| ParseError::new("bad \\u code point"))?,
                    );
                }
                _ => return Err(ParseError::new("unknown escape")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One instance of every event kind, exercising every field type.
    pub(crate) fn one_of_each() -> Vec<Event> {
        vec![
            Event::SpanOpen {
                name: "enumerate".into(),
            },
            Event::SpanClose {
                name: "enumerate".into(),
                micros: 1234,
            },
            Event::Counter {
                scope: "checker".into(),
                name: "states_decoded".into(),
                value: 98765,
            },
            Event::CsrPhase {
                phase: "count".into(),
                states: 3125,
                transitions: 15625,
                micros: 42,
            },
            Event::Segment {
                phase: "frontier-round".into(),
                index: 2,
                states: 4096,
                transitions: 20480,
            },
            Event::Wave {
                fairness: "weakly-fair".into(),
                region: 3120,
                peeled: 3120,
                sccs: 0,
            },
            Event::ConstraintViolated {
                step: 0,
                constraint: "x.1>=x.2".into(),
            },
            Event::ConstraintRepaired {
                step: 3,
                constraint: "x.1>=x.2".into(),
                action: "fix.2".into(),
            },
            Event::Fault {
                kind: "crash-restart".into(),
                detail: "node 2".into(),
            },
            Event::Frame {
                node: 4,
                kind: "report".into(),
            },
            Event::EpisodeStarted {
                label: "initial".into(),
            },
            Event::EpisodeConverged {
                label: "initial".into(),
                micros: 150000,
            },
            Event::Stabilized { rounds: 17 },
            Event::Synth {
                phase: "prune".into(),
                detail: "token-ring".into(),
                candidates: 420,
                survivors: 38,
            },
            Event::Verdict {
                layer: "sim".into(),
                protocol: "token-ring-4x4".into(),
                seed: 11,
                steps: 640,
                verdict: "conforms".into(),
                detail: String::new(),
            },
            Event::Containment {
                layer: "net".into(),
                protocol: "bfs-64".into(),
                seed: 3,
                node: 19,
                distance: 2,
                verdict: "unstable".into(),
            },
        ]
    }

    /// The committed wire format, one line per event kind. Changing any tag
    /// or field name is schema drift: update this golden block *and* every
    /// consumer deliberately.
    const GOLDEN: &str = r#"{"ev":"span-open","t_us":7,"name":"enumerate"}
{"ev":"span-close","t_us":7,"name":"enumerate","micros":1234}
{"ev":"counter","t_us":7,"scope":"checker","name":"states_decoded","value":98765}
{"ev":"csr-phase","t_us":7,"phase":"count","states":3125,"transitions":15625,"micros":42}
{"ev":"segment","t_us":7,"phase":"frontier-round","index":2,"states":4096,"transitions":20480}
{"ev":"wave","t_us":7,"fairness":"weakly-fair","region":3120,"peeled":3120,"sccs":0}
{"ev":"constraint-violated","t_us":7,"step":0,"constraint":"x.1>=x.2"}
{"ev":"constraint-repaired","t_us":7,"step":3,"constraint":"x.1>=x.2","action":"fix.2"}
{"ev":"fault","t_us":7,"kind":"crash-restart","detail":"node 2"}
{"ev":"frame","t_us":7,"node":4,"kind":"report"}
{"ev":"episode-started","t_us":7,"label":"initial"}
{"ev":"episode-converged","t_us":7,"label":"initial","micros":150000}
{"ev":"stabilized","t_us":7,"rounds":17}
{"ev":"synth","t_us":7,"phase":"prune","detail":"token-ring","candidates":420,"survivors":38}
{"ev":"verdict","t_us":7,"layer":"sim","protocol":"token-ring-4x4","seed":11,"steps":640,"verdict":"conforms","detail":""}
{"ev":"containment","t_us":7,"layer":"net","protocol":"bfs-64","seed":3,"node":19,"distance":2,"verdict":"unstable"}"#;

    #[test]
    fn golden_wire_format_is_stable() {
        let rendered: Vec<String> = one_of_each().iter().map(|e| e.to_json_line(7)).collect();
        assert_eq!(rendered.join("\n"), GOLDEN);
    }

    #[test]
    fn every_event_kind_round_trips() {
        for event in one_of_each() {
            let line = event.to_json_line(99);
            let record = Event::parse_line(&line).unwrap_or_else(|e| {
                panic!("round-trip failed for {}: {e}", event.tag());
            });
            assert_eq!(record.t_us, 99);
            assert_eq!(record.event, event, "round-trip for {}", event.tag());
        }
    }

    #[test]
    fn strings_with_specials_round_trip() {
        let event = Event::Fault {
            kind: "quote\" backslash\\ newline\n tab\t".into(),
            detail: "control\u{1} unicode λ".into(),
        };
        let line = event.to_json_line(0);
        assert_eq!(Event::parse_line(&line).unwrap().event, event);
    }

    #[test]
    fn drifted_lines_are_rejected() {
        // Unknown tag.
        assert!(Event::parse_line(r#"{"ev":"new-kind","t_us":0}"#).is_err());
        // Missing field.
        assert!(Event::parse_line(r#"{"ev":"frame","t_us":0,"node":1}"#).is_err());
        // Mistyped field.
        assert!(Event::parse_line(r#"{"ev":"frame","t_us":0,"node":"1","kind":"x"}"#).is_err());
        // Malformed JSON.
        assert!(Event::parse_line(r#"{"ev":"frame""#).is_err());
        assert!(Event::parse_line("").is_err());
        assert!(Event::parse_line(r#"{"ev":"frame","t_us":0}junk"#).is_err());
    }

    #[test]
    fn parse_error_renders() {
        let err = Event::parse_line("nope").unwrap_err();
        assert!(err.to_string().contains("journal schema error"));
    }
}
