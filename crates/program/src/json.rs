//! Minimal JSON serialization for states.
//!
//! The workspace builds offline, so instead of a `serde` feature this
//! module hand-rolls what downstream tooling writes: [`State`] as an array
//! of slot values, and [`escape`] for string literals.

use crate::state::State;

/// Escape `s` as the contents of a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize a [`State`] as a JSON array of its slot values.
pub fn state_to_json(state: &State) -> String {
    let slots: Vec<String> = state.slots().iter().map(|v| v.to_string()).collect();
    format!("[{}]", slots.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_pinned() {
        assert_eq!(state_to_json(&State::new(vec![3, -1, 4])), "[3,-1,4]");
        assert_eq!(state_to_json(&State::new(Vec::<i64>::new())), "[]");
        assert_eq!(
            escape("red \"x\"\\\n\r\t\u{1}é"),
            "red \\\"x\\\"\\\\\\n\\r\\t\\u0001é"
        );
    }
}
