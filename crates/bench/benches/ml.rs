//! Machine-learning substrate benchmarks: the cost of one TD3 training
//! step, the priority-sampling data structure, and GP fit/predict — the
//! overheads the paper's two acceleration stages pay per simulation. The
//! TD3 bars time the zero-allocation paths RL-S runs: `act_into` through a
//! reused scratch, `train_batched` through a reused workspace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rlpta_gp::{GpHyper, GpModel};
use rlpta_rl::{PrioritizedReplay, SumTree, Td3Agent, Td3Config, TrainWorkspace, Transition};

fn sample_transition(rng: &mut StdRng) -> Transition {
    Transition {
        state: (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        action: vec![rng.gen_range(-1.0..1.0)],
        reward: rng.gen_range(-2.0..2.0),
        next_state: (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        done: false,
    }
}

fn bench_td3(c: &mut Criterion) {
    let mut group = c.benchmark_group("td3");
    let mut rng = StdRng::seed_from_u64(1);
    let mut agent = Td3Agent::new(Td3Config::new(5, 1), &mut rng);
    let batch: Vec<Transition> = (0..32).map(|_| sample_transition(&mut rng)).collect();
    let (mut scratch, mut action) = (agent.act_scratch(), [0.0]);
    group.bench_function("act", |b| {
        let s = [0.1, 0.2, 0.3, 0.4, 0.5];
        b.iter(|| {
            agent.act_into(&s, &mut action, &mut scratch);
            action[0]
        })
    });
    let mut ws = TrainWorkspace::new(agent.config(), batch.len());
    group.bench_function("train_batch32", |b| {
        b.iter(|| {
            ws.clear();
            for t in &batch {
                ws.push(t);
            }
            agent.train_batched(&mut ws, &mut rng).len()
        })
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay");
    let mut rng = StdRng::seed_from_u64(2);
    let mut buf = PrioritizedReplay::new(4096);
    for _ in 0..4096 {
        buf.push(sample_transition(&mut rng));
    }
    group.bench_function("prioritized_sample32", |b| {
        b.iter(|| buf.sample(32, &mut rng))
    });
    let mut tree = SumTree::new(4096);
    for i in 0..4096 {
        tree.set(i, rng.gen_range(0.0..10.0));
    }
    group.bench_function("sumtree_update", |b| {
        let mut i = 0usize;
        b.iter(|| {
            tree.set(i % 4096, 1.0 + (i as f64 % 7.0));
            i += 1;
        })
    });
    group.finish();
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(3);
    for n in [64usize, 256] {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..10).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let flags: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().sin()).collect();
        group.bench_function(BenchmarkId::new("fit", n), |b| {
            b.iter(|| {
                GpModel::fit(
                    xs.clone(),
                    flags.clone(),
                    ys.clone(),
                    GpHyper::default_for_dim(10),
                )
                .unwrap()
            })
        });
        let model = GpModel::fit(
            xs.clone(),
            flags.clone(),
            ys.clone(),
            GpHyper::default_for_dim(10),
        )
        .unwrap();
        let q: Vec<f64> = (0..10).map(|_| 0.3).collect();
        group.bench_function(BenchmarkId::new("predict", n), |b| {
            b.iter(|| model.predict(&q, true))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_td3, bench_replay, bench_gp);
criterion_main!(benches);
