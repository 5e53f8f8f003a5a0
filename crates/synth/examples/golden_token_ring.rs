//! Regenerate the committed token-ring golden design:
//!
//! ```sh
//! cargo run -p nonmask-synth --example golden_token_ring \
//!     > crates/synth/golden/token_ring.txt
//! ```
//!
//! CI re-synthesizes the ring in release mode and diffs against the
//! committed file, so any grammar or selection change must update the
//! golden deliberately.

fn main() {
    let out = nonmask_synth::synthesize(
        &nonmask_synth::specs::token_ring_windowed(4, 3).unwrap(),
        &nonmask_synth::SynthOptions::default(),
        &nonmask_obs::Journal::disabled(),
    )
    .unwrap();
    print!("{}", out.render());
}
