//! Schedulers ("daemons").
//!
//! A computation of a program is a fair, maximal interleaving of enabled
//! actions (Section 2 of the paper). A [`Scheduler`] decides, at every step,
//! which enabled action executes. The paper's fairness requirement ("each
//! action that is continuously enabled is eventually executed") is satisfied
//! by [`RoundRobin`]; [`Random`] is fair with probability 1; [`Adversarial`]
//! deliberately ignores fairness — Section 8 remarks that the derived
//! programs converge even then, which experiment E8 verifies.
//!
//! `select` is every engine's one action pick: the shared-memory
//! [`Executor`](crate::Executor) offers all of a program's actions, the
//! other engines one process's actions, each to a [`RoundRobin`] of its own.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::action::ActionId;
use crate::program::Program;
use crate::state::State;

/// A daemon selecting which enabled action executes next.
pub trait Scheduler {
    /// Choose one of `actions` of program `p` whose guard holds at `state`.
    ///
    /// Returns `None` when none of them is enabled, or when the daemon
    /// declines to pick (a script that ran out); an engine tells the two
    /// apart with [`Program::any_enabled`].
    fn select(&mut self, p: &Program, actions: &[ActionId], state: &State) -> Option<ActionId>;

    /// A short human-readable name, used in reports.
    fn name(&self) -> &str {
        "scheduler"
    }
}

/// Fair round-robin daemon: executes the first enabled action at or after
/// its position in the offered action list, wrapping around.
///
/// Every continuously enabled action is executed within one full rotation,
/// so round-robin computations are fair in the paper's sense. The daemon is
/// a single `u32`, small enough for the fleet's per-tenant record.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    position: u32,
}

impl RoundRobin {
    /// Create a round-robin daemon starting at the first offered action.
    pub fn new() -> Self {
        RoundRobin { position: 0 }
    }
}

impl Scheduler for RoundRobin {
    fn select(&mut self, p: &Program, actions: &[ActionId], state: &State) -> Option<ActionId> {
        let enabled = |a: &ActionId| p.action(*a).enabled(state);
        let start = (self.position as usize).min(actions.len());
        let i = match actions[start..].iter().position(enabled) {
            Some(i) => start + i,
            None => actions[..start].iter().position(enabled)?,
        };
        self.position = i as u32 + 1;
        Some(actions[i])
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// Uniformly random daemon with a seeded RNG (fair with probability 1).
#[derive(Debug, Clone)]
pub struct Random {
    rng: StdRng,
    /// The enabled offered actions of the current step, in offered order;
    /// kept so steps do not allocate.
    enabled: Vec<ActionId>,
}

impl Random {
    /// Create a random daemon from a seed.
    pub fn seeded(seed: u64) -> Self {
        Random {
            rng: StdRng::seed_from_u64(seed),
            enabled: Vec::new(),
        }
    }
}

impl Scheduler for Random {
    fn select(&mut self, p: &Program, actions: &[ActionId], state: &State) -> Option<ActionId> {
        self.enabled.clear();
        self.enabled
            .extend(actions.iter().filter(|a| p.action(**a).enabled(state)));
        if self.enabled.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.enabled.len());
        Some(self.enabled[i])
    }

    fn name(&self) -> &str {
        "random"
    }
}

/// Unfair adversarial daemon: always executes the enabled action with the
/// *highest priority* per a caller-supplied ranking (lower rank = preferred).
///
/// With a ranking that prefers "unhelpful" actions this exercises worst-case
/// schedules; the default ranking (declaration order) starves
/// later-declared actions for as long as earlier ones stay enabled, which
/// already violates fairness.
#[derive(Debug, Clone)]
pub struct Adversarial {
    priority: Vec<u32>,
}

impl Adversarial {
    /// Prefer actions in declaration order (earliest id always wins).
    pub fn by_declaration_order() -> Self {
        Adversarial {
            priority: Vec::new(),
        }
    }

    /// Prefer actions in the order given; unlisted actions come last in
    /// declaration order.
    pub fn with_priority(order: impl IntoIterator<Item = ActionId>) -> Self {
        let order: Vec<ActionId> = order.into_iter().collect();
        let max = order.iter().map(|a| a.0).max().map_or(0, |m| m + 1);
        let mut priority = vec![u32::MAX; max as usize];
        for (rank, a) in order.iter().enumerate() {
            priority[a.0 as usize] = rank as u32;
        }
        Adversarial { priority }
    }

    fn rank(&self, a: ActionId) -> (u32, u32) {
        let explicit = self.priority.get(a.0 as usize).copied().unwrap_or(u32::MAX);
        (explicit, a.0)
    }
}

impl Scheduler for Adversarial {
    fn select(&mut self, p: &Program, actions: &[ActionId], state: &State) -> Option<ActionId> {
        actions
            .iter()
            .copied()
            .filter(|&a| p.action(a).enabled(state))
            .min_by_key(|&a| self.rank(a))
    }

    fn name(&self) -> &str {
        "adversarial"
    }
}

/// Replays a fixed sequence of action ids, skipping entries that are not
/// enabled; stops when the script is exhausted. A scripted id that is not
/// among the offered actions counts as not enabled.
///
/// Useful in tests to force a program down a specific computation.
#[derive(Debug, Clone)]
pub struct Fixed {
    script: std::collections::VecDeque<ActionId>,
    /// Whether a scripted action that is not enabled should be skipped
    /// (`true`) or should end the run (`false`).
    skip_disabled: bool,
}

impl Fixed {
    /// A script whose disabled entries are skipped.
    pub fn skipping(script: impl IntoIterator<Item = ActionId>) -> Self {
        Fixed {
            script: script.into_iter().collect(),
            skip_disabled: true,
        }
    }

    /// A script that ends the run at the first disabled entry.
    pub fn strict(script: impl IntoIterator<Item = ActionId>) -> Self {
        Fixed {
            script: script.into_iter().collect(),
            skip_disabled: false,
        }
    }
}

impl Scheduler for Fixed {
    fn select(&mut self, p: &Program, actions: &[ActionId], state: &State) -> Option<ActionId> {
        while let Some(next) = self.script.pop_front() {
            if actions.contains(&next) && p.action(next).enabled(state) {
                return Some(next);
            }
            if !self.skip_disabled {
                return None;
            }
        }
        None
    }

    fn name(&self) -> &str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    fn a(i: u32) -> ActionId {
        ActionId(i)
    }

    /// Four actions over one `mask` variable: action `i` is enabled iff
    /// bit `i` of the mask is set. Effects are no-ops; only guards matter.
    fn masked() -> Program {
        let mut b = Program::builder("masked");
        let mask = b.var("mask", Domain::range(0, 15));
        for i in 0..4 {
            b.closure_action(
                format!("a{i}"),
                [mask],
                [mask],
                move |s| s.get(mask) >> i & 1 == 1,
                |_| {},
            );
        }
        b.build()
    }

    /// Run `s` once at each mask, offering all four actions.
    fn picks(s: &mut dyn Scheduler, masks: &[i64]) -> Vec<Option<ActionId>> {
        let p = masked();
        let all: Vec<ActionId> = p.action_ids().collect();
        masks
            .iter()
            .map(|&m| s.select(&p, &all, &p.state_from([m]).unwrap()))
            .collect()
    }

    #[test]
    fn round_robin_cycles() {
        let got = picks(&mut RoundRobin::new(), &[0b0111; 4]);
        assert_eq!(got, [Some(a(0)), Some(a(1)), Some(a(2)), Some(a(0))]);
    }

    #[test]
    fn round_robin_skips_disabled() {
        let got = picks(&mut RoundRobin::new(), &[0b1010, 0b1001, 0b0001]);
        assert_eq!(got, [Some(a(1)), Some(a(3)), Some(a(0))]);
    }

    #[test]
    fn round_robin_is_fair() {
        // Every action enabled forever is selected within one rotation.
        let got = picks(&mut RoundRobin::new(), &[0b1111; 4]);
        let seen: std::collections::HashSet<_> = got.into_iter().collect();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn round_robin_walks_the_offered_order() {
        // A process's action list need not be sorted: the position indexes
        // the list, and nothing enabled leaves the position where it was.
        let p = masked();
        let mut s = RoundRobin::new();
        let offered = [a(3), a(1)];
        let every = p.state_from([0b1111]).unwrap();
        let none = p.state_from([0]).unwrap();
        assert_eq!(s.select(&p, &offered, &every), Some(a(3)));
        assert_eq!(s.select(&p, &offered, &none), None);
        assert_eq!(s.select(&p, &offered, &every), Some(a(1)));
        assert_eq!(s.select(&p, &offered, &every), Some(a(3)));
        assert_eq!(s.select(&p, &[], &every), None);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let run = |seed| picks(&mut Random::seeded(seed), &[0b0111; 20]);
        assert!(run(5).iter().all(|&x| matches!(x, Some(ActionId(0..=2)))));
        assert_eq!(run(5), run(5));
        assert_ne!(
            run(5),
            run(6),
            "different seeds should (almost surely) differ"
        );
        assert_eq!(picks(&mut Random::seeded(5), &[0]), [None]);
    }

    #[test]
    fn adversarial_prefers_priority() {
        let mut s = Adversarial::with_priority([a(2), a(0)]);
        let got = picks(&mut s, &[0b0111, 0b0011, 0b0010]);
        assert_eq!(got, [Some(a(2)), Some(a(0)), Some(a(1))]);
    }

    #[test]
    fn adversarial_default_is_declaration_order() {
        let got = picks(&mut Adversarial::by_declaration_order(), &[0b0110]);
        assert_eq!(got, [Some(a(1))]);
    }

    #[test]
    fn fixed_skipping_and_strict() {
        let got = picks(&mut Fixed::skipping([a(1), a(0)]), &[0b0001, 0b0001]);
        assert_eq!(got, [Some(a(0)), None], "a1 skipped, then script exhausted");

        let got = picks(&mut Fixed::strict([a(1), a(0)]), &[0b0001]);
        assert_eq!(got, [None], "strict stops at disabled a1");
    }

    #[test]
    fn fixed_treats_unoffered_ids_as_disabled() {
        // a(9) is not even an action of the program: its guard must never
        // be looked up.
        let p = masked();
        let every = p.state_from([0b1111]).unwrap();
        let mut s = Fixed::skipping([a(9), a(3), a(0)]);
        assert_eq!(s.select(&p, &[a(0), a(1)], &every), Some(a(0)));
        let mut s = Fixed::strict([a(9), a(0)]);
        assert_eq!(s.select(&p, &[a(0), a(1)], &every), None);
    }

    #[test]
    fn names() {
        assert_eq!(RoundRobin::new().name(), "round-robin");
        assert_eq!(Random::seeded(0).name(), "random");
        assert_eq!(Adversarial::by_declaration_order().name(), "adversarial");
        assert_eq!(Fixed::skipping([]).name(), "fixed");
    }
}
