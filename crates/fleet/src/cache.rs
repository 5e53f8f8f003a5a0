//! The checker-verdict cache: one shared, immutable runtime per
//! `(protocol, parameters)` configuration.
//!
//! The first tenant of a configuration pays for exhaustive enumeration
//! and the worst-case-moves bound; every later tenant of the same
//! configuration reads the cached verdict. The cache is why a
//! million-tenant fleet costs millions of *simulation* steps but only a
//! handful of *checker* enumerations — the verdict is a pure function of
//! the configuration (ideal-stabilization reasoning: certification does
//! not depend on which tenant asks).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use nonmask_checker::{worst_case_moves, CheckOptions, StateSpace};
use nonmask_program::{ActionId, Predicate, Program};

use crate::config::FleetProtocol;
use crate::FleetError;

/// The cached checker verdict of one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Reachable states of the configuration (the full state space).
    pub states: u64,
    /// The checker's worst-case convergence bound: the most steps any
    /// execution can take from any state before the goal holds. `None`
    /// means the checker found a cycle or deadlock outside the goal —
    /// the protocol does not converge and no finite bound exists.
    pub bound: Option<u64>,
}

/// The shared immutable runtime of one configuration: program, goal, the
/// action list every tenant's round-robin daemon walks, and the lazily
/// computed [`Verdict`].
#[derive(Debug)]
pub struct ConfigRuntime {
    key: String,
    program: Program,
    goal: Predicate,
    actions: Vec<ActionId>,
    verdict: OnceLock<Result<Verdict, String>>,
}

impl ConfigRuntime {
    fn new(protocol: &FleetProtocol) -> Self {
        let (program, goal) = protocol.build();
        ConfigRuntime {
            key: protocol.key(),
            actions: program.action_ids().collect(),
            program,
            goal,
            verdict: OnceLock::new(),
        }
    }

    /// The cache key of this configuration.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The shared program all tenants of this configuration execute.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The goal predicate (the protocol's invariant).
    pub fn goal(&self) -> &Predicate {
        &self.goal
    }

    /// Every action id of the program, in declaration order.
    pub(crate) fn actions(&self) -> &[ActionId] {
        &self.actions
    }
}

/// The verdict cache over a fleet's configurations.
///
/// Programs and goals are built eagerly (they are cheap and the arena
/// stride needs the widest program); verdicts are computed on first
/// demand behind a `OnceLock`, so concurrent workers asking for the same
/// configuration block until the one enumeration finishes instead of
/// duplicating it.
#[derive(Debug)]
pub struct VerdictCache {
    runtimes: Vec<ConfigRuntime>,
    /// Actual enumerations performed — the cache's miss count. Always
    /// ends at `runtimes.len()` when every configuration was visited.
    enumerations: AtomicU64,
}

impl VerdictCache {
    /// Build the cache for `protocols`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when `protocols` is empty or two
    /// configurations share a key.
    pub fn build(protocols: &[FleetProtocol]) -> Result<Self, FleetError> {
        if protocols.is_empty() {
            return Err(FleetError::Config("no protocol configurations".into()));
        }
        let runtimes: Vec<ConfigRuntime> = protocols.iter().map(ConfigRuntime::new).collect();
        for (i, a) in runtimes.iter().enumerate() {
            if runtimes[..i].iter().any(|b| b.key == a.key) {
                return Err(FleetError::Config(format!(
                    "duplicate configuration {}",
                    a.key
                )));
            }
        }
        Ok(VerdictCache {
            runtimes,
            enumerations: AtomicU64::new(0),
        })
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.runtimes.len()
    }

    /// Whether the cache holds no configurations (never true for a
    /// successfully built cache).
    pub fn is_empty(&self) -> bool {
        self.runtimes.is_empty()
    }

    /// The runtime of configuration `idx`.
    pub fn runtime(&self, idx: usize) -> &ConfigRuntime {
        &self.runtimes[idx]
    }

    /// The arena stride: the widest program's variable count. Every
    /// tenant's state occupies exactly this many `i64` slots.
    pub fn stride(&self) -> usize {
        self.runtimes
            .iter()
            .map(|r| r.program.var_count())
            .max()
            .unwrap_or(0)
    }

    /// The verdict of configuration `idx`, enumerating on first demand.
    ///
    /// Spaces are enumerated single-threaded: the fleet's parallelism is
    /// over slabs, and nesting a checker pool inside a fleet worker
    /// would oversubscribe without speeding anything up.
    ///
    /// # Errors
    ///
    /// [`FleetError::Check`] when enumeration or the bound computation
    /// fails; the error is cached, so every tenant of a broken
    /// configuration sees the same failure.
    pub fn verdict(&self, idx: usize) -> Result<&Verdict, FleetError> {
        let rt = &self.runtimes[idx];
        let computed = rt.verdict.get_or_init(|| {
            self.enumerations.fetch_add(1, Ordering::Relaxed);
            let space = StateSpace::enumerate_with_options(&rt.program, CheckOptions::serial())
                .map_err(|e| format!("{}: enumeration failed: {e}", rt.key))?;
            let bound = worst_case_moves(&space, &rt.program, &Predicate::always_true(), &rt.goal)
                .map_err(|e| format!("{}: bound failed: {e}", rt.key))?;
            Ok(Verdict {
                states: space.len() as u64,
                bound,
            })
        });
        computed.as_ref().map_err(|e| FleetError::Check(e.clone()))
    }

    /// Enumerations actually performed so far (the cache's miss count).
    pub fn enumerations(&self) -> u64 {
        self.enumerations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_lookup_enumerates_rest_hit() {
        let cache = VerdictCache::build(&[FleetProtocol::TokenRing { nodes: 3, k: 3 }]).unwrap();
        assert_eq!(cache.enumerations(), 0, "lazy until first demand");
        let v = cache.verdict(0).unwrap().clone();
        assert_eq!(cache.enumerations(), 1);
        assert_eq!(v.states, 27);
        assert!(v.bound.is_some(), "the 3-ring converges");
        for _ in 0..100 {
            assert_eq!(cache.verdict(0).unwrap(), &v);
        }
        assert_eq!(cache.enumerations(), 1, "hits never re-enumerate");
    }

    #[test]
    fn concurrent_lookups_enumerate_once() {
        let cache = VerdictCache::build(&[FleetProtocol::TokenRing { nodes: 4, k: 4 }]).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        cache.verdict(0).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.enumerations(), 1);
    }

    #[test]
    fn stride_follows_the_widest_program() {
        let cache = VerdictCache::build(&[
            FleetProtocol::TokenRing { nodes: 3, k: 3 },
            FleetProtocol::TokenRing { nodes: 5, k: 5 },
        ])
        .unwrap();
        assert_eq!(cache.stride(), 5);
    }

    #[test]
    fn empty_and_duplicate_configs_rejected() {
        assert!(matches!(
            VerdictCache::build(&[]),
            Err(FleetError::Config(_))
        ));
        let dup = FleetProtocol::TokenRing { nodes: 3, k: 3 };
        assert!(matches!(
            VerdictCache::build(&[dup.clone(), dup]),
            Err(FleetError::Config(_))
        ));
    }
}
