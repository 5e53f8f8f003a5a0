//! The synthesis pipeline: pooled enumeration → implication lattice →
//! attribution prune → work-stealing certification → selection → final
//! verification.
//!
//! Everything downstream of the grammar runs against **one** pooled state
//! space (the base program plus every candidate action), so the whole
//! candidate space costs a single enumeration and a single
//! [`attribute_constraints`] sweep; only the survivors pay per-candidate
//! oracle batteries. The battery is distributed over worker threads with
//! [`steal_tasks`], and every verdict, metric, and journal record is
//! bit-identical across thread counts and chunk sizes: workers only
//! compute, the main thread journals in a fixed phase order, and
//! certification never consults wall-clock state.

use nonmask::{CheckOptions, Design, DesignBuilder, ToleranceReport};
use nonmask_checker::{
    attribute_constraints, preserves_given_bits, steal_tasks, Bitset, StateSpace,
};
use nonmask_graph::{ConstraintRef, Layering, NodePartition};
use nonmask_lang::{compile_def_with_processes, compile_predicate, ProgramDef};
use nonmask_obs::{Event, Journal};
use nonmask_program::{ActionId, Predicate};

use crate::grammar::{self, Candidate, SynthSpec};
use crate::lattice::classify;
use crate::SynthError;

/// How many candidate combinations the final-verification fallback may
/// try before giving up. The selection heuristic picks the right
/// combination on the first attempt for every spec in [`crate::specs`];
/// the odometer exists so a near-miss grammar extension degrades to a
/// slower search instead of a hard failure.
const MAX_ATTEMPTS: usize = 16;

/// Tuning knobs for [`synthesize`]. Neither affects any result bit.
#[derive(Debug, Clone, Copy)]
pub struct SynthOptions {
    /// Worker threads for every sweep; `0` auto-detects.
    pub threads: usize,
    /// Survivors per work-stealing certification task.
    pub chunk: usize,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            threads: 0,
            chunk: 8,
        }
    }
}

/// The synthesized repair for one constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChosenAction {
    /// Constraint name from the spec.
    pub constraint: String,
    /// Name of the synthesized action (`repair.<constraint>`).
    pub action_name: String,
    /// Grammar guard index of the winning candidate.
    pub guard_index: usize,
    /// Grammar effect index of the winning candidate.
    pub effect_index: usize,
    /// States where the repair is enabled beyond the required region —
    /// `0` means the guard is exactly the region convergence demands.
    pub extras: u64,
}

/// Work accounting for the prune-vs-enumerate comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthMetrics {
    /// States in the pooled space.
    pub states: u64,
    /// Candidates the grammar produced.
    pub candidates: u64,
    /// Candidates surviving the attribution prune.
    pub survivors: u64,
    /// Survivors that passed the certification battery.
    pub certified: u64,
    /// Full-space oracle sweeps actually spent on certification.
    pub oracle_calls: u64,
    /// Sweeps the same battery would cost without the attribution prune
    /// (every candidate pays its full battery).
    pub oracle_calls_unpruned: u64,
    /// Attribution sweeps over the pooled space (always 1).
    pub attribution_sweeps: u64,
    /// Final-verification attempts (1 = first selection verified).
    pub verify_attempts: u64,
}

/// A certified design plus everything needed to replay or audit it.
pub struct SynthResult {
    /// Spec name.
    pub spec_name: String,
    /// The synthesized program definition (base + `repair.*` actions).
    pub def: ProgramDef,
    /// The assembled design (partition, constraints, layering).
    pub design: Design,
    /// The checker's certificate for [`SynthResult::design`].
    pub report: ToleranceReport,
    /// Derived hierarchical partition (constraint indices, lowest first).
    pub layers: Vec<Vec<usize>>,
    /// Winning candidate per constraint, in spec order.
    pub chosen: Vec<ChosenAction>,
    /// Ideal-stabilization distance: total extra enabled states across
    /// the chosen repairs (0 = every guard is exactly the required
    /// region).
    pub distance: u64,
    /// Work accounting.
    pub metrics: SynthMetrics,
}

impl SynthResult {
    /// Render the design as parseable surface syntax followed by a
    /// `#`-commented certificate trailer — the golden-file format.
    pub fn render(&self) -> String {
        let mut out = nonmask_lang::pretty(&self.def);
        out.push_str(&format!("# theorem: {}\n", self.report.theorem.name()));
        if let Some(w) = self.report.worst_case_moves {
            out.push_str(&format!("# worst-case moves: {w}\n"));
        }
        out.push_str(&format!("# distance: {}\n", self.distance));
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|l| {
                let names: Vec<&str> = l
                    .iter()
                    .map(|&i| self.chosen[i].constraint.as_str())
                    .collect();
                names.join(" ")
            })
            .collect();
        out.push_str(&format!("# layers: [{}]\n", layers.join(" | ")));
        for ch in &self.chosen {
            out.push_str(&format!(
                "# {} <- {} (guard {}, effect {}, extras {})\n",
                ch.constraint, ch.action_name, ch.guard_index, ch.effect_index, ch.extras
            ));
        }
        out
    }
}

/// Per-survivor battery verdict.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    flat: usize,
    certified: bool,
    extras: u64,
    calls: u64,
}

fn synth_event(phase: &str, detail: String, candidates: u64, survivors: u64) -> Event {
    Event::Synth {
        phase: phase.to_string(),
        detail,
        candidates,
        survivors,
    }
}

/// Derive a certified design for `spec`.
///
/// Progress is journaled as [`Event::Synth`] records in a fixed phase
/// order (`grammar`, `classify`, `prune`, `certify`, `select`,
/// `verify`); the journal's *event sequence* is identical for every
/// `threads`/`chunk` combination.
///
/// # Errors
///
/// See [`SynthError`]; notably [`SynthError::NoCertified`] when the
/// grammar contains no certifiable repair for some constraint.
pub fn synthesize(
    spec: &SynthSpec,
    opts: &SynthOptions,
    journal: &Journal,
) -> Result<SynthResult, SynthError> {
    let k = spec.constraints.len();
    if k == 0 {
        return Err(SynthError::BadSpec {
            message: "spec has no constraints".into(),
        });
    }
    let sopts = CheckOptions {
        threads: opts.threads,
        ..CheckOptions::default()
    };
    let base_count = spec.base.actions.len();

    // Phase 1: grammar.
    let mut flat: Vec<Candidate> = Vec::new();
    let mut per_count = Vec::with_capacity(k);
    for ci in 0..k {
        let cands = grammar::candidates(spec, ci)?;
        per_count.push(cands.len());
        journal.emit_with(|| {
            synth_event(
                "grammar",
                spec.constraints[ci].name.clone(),
                cands.len() as u64,
                cands.len() as u64,
            )
        });
        flat.extend(cands);
    }

    // Pooled program: base + every candidate, one enumeration.
    let mut pooled = spec.base.clone();
    pooled.actions.extend(flat.iter().map(|c| c.action.clone()));
    let pool_prog = compile_def_with_processes(&pooled)?;
    let space = StateSpace::enumerate_with_options(&pool_prog, sopts)?;

    let c_preds: Vec<_> = spec
        .constraints
        .iter()
        .map(|c| compile_predicate(&pool_prog, &pooled, c.name.clone(), &c.expr))
        .collect::<Result<_, _>>()?;
    let s_pred = compile_predicate(&pool_prog, &pooled, "S", &spec.goal)?;
    // One decode pass evaluates every constraint and the goal.
    let mut preds: Vec<&Predicate> = c_preds.iter().collect();
    preds.push(&s_pred);
    let mut c_bits = Bitset::for_predicates(space.index(), &preds, sopts)?;
    let s_bits = c_bits.pop().expect("one cache per predicate");

    // Phase 2: classify extensions into the implication lattice.
    let lat = classify(&c_bits);
    journal.emit_with(|| {
        let rendered: Vec<String> = lat
            .layers
            .iter()
            .map(|l| {
                let names: Vec<&str> = l
                    .iter()
                    .map(|&i| spec.constraints[i].name.as_str())
                    .collect();
                names.join(" ")
            })
            .collect();
        synth_event(
            "classify",
            format!("[{}]", rendered.join(" | ")),
            k as u64,
            lat.layers.len() as u64,
        )
    });
    let lower: Vec<Vec<usize>> = (0..k).map(|i| lat.lower(i)).collect();

    // Phase 3: one attribution sweep prunes the candidate space. A
    // candidate survives iff it repairs its constraint, never exits the
    // goal, and never exits any strictly lower constraint.
    let mut attr_preds = c_preds.clone();
    attr_preds.push(s_pred.clone());
    let s_idx = k;
    let attr = attribute_constraints(&space, &pool_prog, &attr_preds, sopts)?;
    let mut survivors: Vec<usize> = Vec::new();
    let mut survivors_per = vec![0usize; k];
    for (fi, cand) in flat.iter().enumerate() {
        let aid = ActionId::from_index(base_count + fi);
        let ci = cand.constraint;
        let keep = attr.repairs(aid, ci)
            && attr.preserves(aid, s_idx)
            && lower[ci].iter().all(|&j| attr.preserves(aid, j));
        if keep {
            survivors.push(fi);
            survivors_per[ci] += 1;
        }
    }
    for ci in 0..k {
        journal.emit_with(|| {
            synth_event(
                "prune",
                spec.constraints[ci].name.clone(),
                per_count[ci] as u64,
                survivors_per[ci] as u64,
            )
        });
    }

    // Required repair region per constraint: the violation states the
    // convergence proof needs covered (constraint false, lower layers
    // already established), plus the merge trigger's region.
    let mut required: Vec<Bitset> = Vec::with_capacity(k);
    for (ci, c) in spec.constraints.iter().enumerate() {
        let mut req = c_bits[ci].not();
        for &j in &lower[ci] {
            req = req.and(&c_bits[j]);
        }
        if let Some(t) = &c.trigger {
            let tp = compile_predicate(&pool_prog, &pooled, format!("trigger.{}", c.name), t)?;
            let tb = Bitset::for_predicate(&space, &tp, sopts)?;
            req = req.or(&tb);
        }
        required.push(req);
    }
    // Theorem 3 assumption per layer: outside the goal, lower layers hold.
    let not_s = s_bits.not();
    let assuming: Vec<Bitset> = (0..lat.layers.len())
        .map(|l| {
            let mut a = not_s.clone();
            for layer in &lat.layers[..l] {
                for &j in layer {
                    a = a.and(&c_bits[j]);
                }
            }
            a
        })
        .collect();

    // Phase 4: per-survivor certification battery, work-stealing over
    // fixed-size chunks. Each battery item is one full-space sweep; the
    // battery never short-circuits, so pruned and unpruned cost models
    // are directly comparable.
    let workers = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        opts.threads
    };
    let serial = CheckOptions {
        threads: 1,
        ..sopts
    };
    let chunk = opts.chunk.max(1);
    let tasks = survivors.len().div_ceil(chunk);
    let per_task = steal_tasks(tasks, workers, |t| -> Result<Vec<Verdict>, SynthError> {
        let lo = t * chunk;
        let hi = (lo + chunk).min(survivors.len());
        let mut out = Vec::with_capacity(hi - lo);
        for &fi in &survivors[lo..hi] {
            let cand = &flat[fi];
            let ci = cand.constraint;
            let aid = ActionId::from_index(base_count + fi);
            let guard = compile_predicate(
                &pool_prog,
                &pooled,
                cand.action.name.clone(),
                &cand.action.guard,
            )?;
            let enabled = Bitset::for_predicate(&space, &guard, serial)?;
            let mut calls = 1u64;
            let covered = required[ci].and(&enabled.not()).count_ones() == 0;
            let extras = enabled.and(&required[ci].not()).count_ones() as u64;
            calls += 1;
            let mut ok =
                preserves_given_bits(&space, aid, &s_bits, &s_bits, serial)?.is_none() && covered;
            for &j in &lower[ci] {
                calls += 1;
                let kept = preserves_given_bits(
                    &space,
                    aid,
                    &c_bits[j],
                    &assuming[lat.layer_of[ci]],
                    serial,
                )?
                .is_none();
                ok = ok && kept;
            }
            out.push(Verdict {
                flat: fi,
                certified: ok,
                extras,
                calls,
            });
        }
        Ok(out)
    })?;
    let mut verdicts = Vec::with_capacity(survivors.len());
    for chunk_result in per_task {
        verdicts.extend(chunk_result?);
    }

    let oracle_calls: u64 = verdicts.iter().map(|v| v.calls).sum();
    let oracle_calls_unpruned: u64 = flat
        .iter()
        .map(|c| 2 + lower[c.constraint].len() as u64)
        .sum();

    // Rank certified candidates per constraint: fewest extras, then
    // earliest grammar position.
    let mut ranked: Vec<Vec<Verdict>> = vec![Vec::new(); k];
    let mut certified_per = vec![0usize; k];
    for v in &verdicts {
        if v.certified {
            let ci = flat[v.flat].constraint;
            ranked[ci].push(*v);
            certified_per[ci] += 1;
        }
    }
    for ci in 0..k {
        journal.emit_with(|| {
            synth_event(
                "certify",
                spec.constraints[ci].name.clone(),
                survivors_per[ci] as u64,
                certified_per[ci] as u64,
            )
        });
        if ranked[ci].is_empty() {
            return Err(SynthError::NoCertified {
                constraint: spec.constraints[ci].name.clone(),
            });
        }
        ranked[ci].sort_by_key(|v| {
            (
                v.extras,
                flat[v.flat].guard_index,
                flat[v.flat].effect_index,
            )
        });
    }

    // Phase 5: assemble the cheapest combination and verify end to end;
    // an odometer over the ranked lists is the (deterministic) fallback.
    let mut choice = vec![0usize; k];
    let mut last_summary = String::new();
    for attempt in 0..MAX_ATTEMPTS {
        let mut chosen = Vec::with_capacity(k);
        let mut def = spec.base.clone();
        for (ci, c) in spec.constraints.iter().enumerate() {
            let v = &ranked[ci][choice[ci]];
            let cand = &flat[v.flat];
            let mut action = cand.action.clone();
            action.name = format!("repair.{}", c.name);
            let ch = ChosenAction {
                constraint: c.name.clone(),
                action_name: action.name.clone(),
                guard_index: cand.guard_index,
                effect_index: cand.effect_index,
                extras: v.extras,
            };
            journal.emit_with(|| {
                synth_event(
                    "select",
                    format!(
                        "{} <- g{}/e{} extras={}",
                        ch.constraint, ch.guard_index, ch.effect_index, ch.extras
                    ),
                    certified_per[ci] as u64,
                    1,
                )
            });
            def.actions.push(action);
            chosen.push(ch);
        }

        let program = compile_def_with_processes(&def)?;
        let mut builder: DesignBuilder = Design::builder(program.clone())
            .partition(NodePartition::by_process(&program))
            .options(sopts)
            .invariant_override(compile_predicate(&program, &def, "S", &spec.goal)?);
        for (ci, c) in spec.constraints.iter().enumerate() {
            builder = builder.constraint(
                c.name.clone(),
                compile_predicate(&program, &def, c.name.clone(), &c.expr)?,
                ActionId::from_index(base_count + ci),
            );
        }
        if lat.layers.len() > 1 {
            builder = builder.layering(Layering::new(
                lat.layers
                    .iter()
                    .map(|l| l.iter().map(|&i| ConstraintRef(i)).collect::<Vec<_>>()),
            )?);
        }
        let design = builder.build()?;
        let report = design.verify()?;
        let ok = report.is_tolerant() && report.theorem.applies();
        journal.emit_with(|| {
            synth_event(
                "verify",
                format!(
                    "{} tolerant={}",
                    report.theorem.name(),
                    report.is_tolerant()
                ),
                attempt as u64 + 1,
                u64::from(ok),
            )
        });
        if ok {
            let distance = chosen.iter().map(|c| c.extras).sum();
            return Ok(SynthResult {
                spec_name: spec.name.clone(),
                def,
                design,
                report,
                layers: lat.layers.clone(),
                chosen,
                distance,
                metrics: SynthMetrics {
                    states: space.len() as u64,
                    candidates: flat.len() as u64,
                    survivors: survivors.len() as u64,
                    certified: verdicts.iter().filter(|v| v.certified).count() as u64,
                    oracle_calls,
                    oracle_calls_unpruned,
                    attribution_sweeps: 1,
                    verify_attempts: attempt as u64 + 1,
                },
            });
        }
        last_summary = report.summary();

        // Advance the odometer: first constraint with another ranked
        // candidate steps forward, everything before it resets.
        let mut i = 0;
        loop {
            if i == k {
                return Err(SynthError::VerifyFailed {
                    attempts: attempt + 1,
                    summary: last_summary,
                });
            }
            if choice[i] + 1 < ranked[i].len() {
                choice[i] += 1;
                for c in choice.iter_mut().take(i) {
                    *c = 0;
                }
                break;
            }
            i += 1;
        }
    }
    Err(SynthError::VerifyFailed {
        attempts: MAX_ATTEMPTS,
        summary: last_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs;

    #[test]
    fn empty_spec_is_rejected() {
        let mut spec = specs::coloring(3, 3).unwrap();
        spec.constraints.clear();
        let err = synthesize(&spec, &SynthOptions::default(), &Journal::disabled());
        assert!(matches!(err, Err(SynthError::BadSpec { .. })));
    }

    #[test]
    fn coloring_synthesizes_the_recoloring_repair() {
        let spec = specs::coloring(3, 3).unwrap();
        let out = synthesize(&spec, &SynthOptions::default(), &Journal::disabled()).unwrap();
        assert!(out.report.is_tolerant());
        assert!(out.report.theorem.applies());
        assert_eq!(out.chosen.len(), 2);
        // The winner is the bare-violation guard with the +1 rotation of
        // the parent's color — the textbook recoloring action.
        for ch in &out.chosen {
            assert_eq!(ch.guard_index, 0, "{}", ch.constraint);
            assert_eq!(ch.extras, 0, "{}", ch.constraint);
        }
        assert_eq!(out.distance, 0);
        assert_eq!(out.metrics.attribution_sweeps, 1);
        assert!(out.metrics.oracle_calls < out.metrics.oracle_calls_unpruned);
    }

    #[test]
    fn renders_parseable_surface_syntax_with_trailer() {
        let spec = specs::coloring(3, 3).unwrap();
        let out = synthesize(&spec, &SynthOptions::default(), &Journal::disabled()).unwrap();
        let text = out.render();
        assert!(text.contains("# theorem:"));
        assert!(text.contains("repair.R.1"));
        // `#` starts a comment, so the golden text recompiles as-is.
        nonmask_lang::parse(&text).unwrap();
    }
}
