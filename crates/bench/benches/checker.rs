//! Model-checker throughput: enumeration, closure, convergence, and the
//! hash-map-vs-arithmetic / thread-scaling comparisons of EXPERIMENTS.md.

use std::collections::HashMap;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nonmask_checker::{
    check_convergence, check_convergence_stats, is_closed, CheckOptions, Fairness, StateSpace,
};
use nonmask_obs::Journal;
use nonmask_program::{ActionId, Predicate, Program, State};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;

/// The seed's state-space construction, reproduced for comparison: states
/// in a `Vec`, a `HashMap<State, u32>` reverse index, and one hash lookup
/// per transition target.
fn enumerate_hashmap(p: &Program) -> (Vec<State>, Vec<Vec<(ActionId, u32)>>) {
    let states: Vec<State> = p.enumerate_states().expect("bounded").collect();
    let index: HashMap<&State, u32> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32))
        .collect();
    let transitions: Vec<Vec<(ActionId, u32)>> = states
        .iter()
        .map(|st| {
            p.action_ids()
                .filter_map(|a| {
                    let act = p.action(a);
                    if !act.enabled(st) {
                        return None;
                    }
                    let succ = act.successor(st);
                    Some((a, *index.get(&succ).expect("domains are closed")))
                })
                .collect()
        })
        .collect();
    (states, transitions)
}

fn bench_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    group.sample_size(10);

    for (n, k) in [(3usize, 3i64), (4, 4), (5, 5)] {
        let ring = TokenRing::new(n, k);
        group.bench_with_input(BenchmarkId::new("enumerate/ring", n), &n, |b, _| {
            b.iter(|| StateSpace::enumerate(ring.program()).expect("bounded"))
        });
        let space = StateSpace::enumerate(ring.program()).expect("bounded");
        let s = ring.invariant();
        group.bench_with_input(BenchmarkId::new("closure/ring", n), &n, |b, _| {
            b.iter(|| is_closed(&space, ring.program(), &s))
        });
        group.bench_with_input(BenchmarkId::new("convergence/ring", n), &n, |b, _| {
            b.iter(|| {
                check_convergence(
                    &space,
                    ring.program(),
                    &Predicate::always_true(),
                    &s,
                    Fairness::WeaklyFair,
                )
            })
        });
    }

    let dc = DiffusingComputation::new(&Tree::binary(5));
    let design = dc.design().expect("design");
    group.bench_function("verify/diffusing-binary-5", |b| {
        b.iter(|| design.verify().expect("verifiable"))
    });

    group.finish();
}

/// State-space hot path: seed-style hash-map construction vs arithmetic
/// mixed-radix ids, and thread scaling of construction + convergence.
/// Token ring n=5,k=5 is 3125 states (just past the parallel threshold);
/// n=7,k=7 is 823543 states.
fn bench_space_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("space");
    group.sample_size(3);
    group.warm_up_time(Duration::from_millis(100));
    group.measurement_time(Duration::from_millis(500));

    for (n, k) in [(5usize, 5i64), (7, 7)] {
        let ring = TokenRing::new(n, k);

        group.bench_with_input(BenchmarkId::new("enumerate/hashmap", n), &n, |b, _| {
            b.iter(|| enumerate_hashmap(ring.program()))
        });
        for threads in [1usize, 2, 4, 8] {
            let opts = CheckOptions::default().threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("enumerate/arith-{threads}t"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        StateSpace::enumerate_with_options(ring.program(), opts).expect("bounded")
                    })
                },
            );
        }

        // Reverse lookup of every state: hash probe vs mixed-radix arithmetic.
        let space = StateSpace::enumerate(ring.program()).expect("bounded");
        let (states, _) = enumerate_hashmap(ring.program());
        let index: HashMap<&State, u32> = states
            .iter()
            .enumerate()
            .map(|(i, s)| (s, i as u32))
            .collect();
        group.bench_with_input(BenchmarkId::new("id-lookup/hashmap", n), &n, |b, _| {
            b.iter(|| {
                states
                    .iter()
                    .map(|s| *index.get(black_box(s)).unwrap() as u64)
                    .sum::<u64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("id-lookup/arith", n), &n, |b, _| {
            b.iter(|| {
                states
                    .iter()
                    .map(|s| space.id_of(black_box(s)).unwrap().index() as u64)
                    .sum::<u64>()
            })
        });

        let s = ring.invariant();
        let t = Predicate::always_true();
        for threads in [1usize, 2, 4, 8] {
            let opts = CheckOptions::default().threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("convergence/{threads}t"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        check_convergence_stats(
                            &space,
                            ring.program(),
                            &t,
                            &s,
                            Fairness::WeaklyFair,
                            opts,
                            &Journal::disabled(),
                        )
                    })
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_checker, bench_space_scaling);
criterion_main!(benches);
