//! Batched RL kernel benchmarks: the zero-allocation inference and
//! training paths of the TD3 stepping policy. `act` measures the
//! per-PTA-step policy call ([`Td3Agent::act_into`]); `train_batched`
//! measures one full TD3 step through a reused [`TrainWorkspace`] at the
//! batch sizes the stepping controller actually uses (1 during early
//! warmup, 32 as configured, 64 headroom). Below them, one bar per GEMM
//! shape a batch-32 train step runs (`m×k×n` in each kernel's own
//! argument order), and `clone` prices the per-circuit copy of an RL-S
//! controller holding fig5's 2,272 pretraining transitions. The kernel
//! groups carry the host's kernel build in their names (`rl_gemm[avx512f]`)
//! so bars from hosts that dispatch to different builds are never compared
//! blind.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rlpta_core::{RlStepping, RlSteppingConfig, StepController, StepObservation};
use rlpta_rl::kernel::{build_name, gemm_nn, gemm_nn_cols, gemm_nt, gemm_tn_acc};
use rlpta_rl::{Td3Agent, Td3Config, TrainWorkspace, Transition};

fn sample_transition(rng: &mut StdRng) -> Transition {
    Transition {
        state: (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        action: vec![rng.gen_range(-1.0..1.0)],
        reward: rng.gen_range(-2.0..2.0),
        next_state: (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        done: false,
    }
}

/// `len` values in `[-1, 1)`, with about a third of the aligned quads
/// zeroed the way ReLU-killed units zero them.
fn operand(len: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for q in v.chunks_mut(4) {
        if rng.gen_range(0..3) == 0 {
            q.fill(0.0);
        }
    }
    v
}

fn bench_rl_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("rl_kernels[{}]", build_name()));
    group.sample_size(100);
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = Td3Config::new(5, 1);
    let mut agent = Td3Agent::new(cfg.clone(), &mut rng);

    let mut scratch = agent.act_scratch();
    let mut action = vec![0.0; 1];
    group.bench_function("act", |b| {
        let s = [0.1, 0.2, 0.3, 0.4, 0.5];
        b.iter(|| {
            agent.act_into(&s, &mut action, &mut scratch);
            action[0]
        })
    });

    for batch in [1usize, 32, 64] {
        let transitions: Vec<Transition> =
            (0..batch).map(|_| sample_transition(&mut rng)).collect();
        let mut ws = TrainWorkspace::new(&cfg, batch);
        group.bench_function(BenchmarkId::new("train_batched", batch), |b| {
            b.iter(|| {
                ws.clear();
                for t in &transitions {
                    ws.push(t);
                }
                agent.train_batched(&mut ws, &mut rng).len()
            })
        });
    }
    group.finish();
}

fn bench_gemm_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("rl_gemm[{}]", build_name()));
    group.sample_size(200);
    let mut rng = StdRng::seed_from_u64(2);
    // Forward: activations [32×k] times weights [n×k]ᵀ — actor and critic
    // input layers, the hidden layer, the critic output layer.
    for (m, k, n) in [(32, 5, 64), (32, 6, 64), (32, 64, 64), (32, 64, 1)] {
        let (a, w) = (operand(m * k, &mut rng), operand(n * k, &mut rng));
        let mut out = vec![0.0; m * n];
        group.bench_function(BenchmarkId::new("gemm_nt", format!("{m}x{k}x{n}")), |b| {
            b.iter(|| gemm_nt(&mut out, &a, &w, m, k, n))
        });
    }
    // Input gradients: deltas [32×k] times weights [k×n] — hidden and
    // output layers, then the critic input layer restricted to its action
    // column (the only one the actor loss reads).
    for (m, k, n) in [(32, 64, 64), (32, 1, 64)] {
        let (d, w) = (operand(m * k, &mut rng), operand(k * n, &mut rng));
        let mut out = vec![0.0; m * n];
        group.bench_function(BenchmarkId::new("gemm_nn", format!("{m}x{k}x{n}")), |b| {
            b.iter(|| gemm_nn(&mut out, &d, &w, m, k, n))
        });
    }
    {
        let (m, k, n) = (32, 64, 6);
        let (d, w) = (operand(m * k, &mut rng), operand(k * n, &mut rng));
        let mut out = vec![0.0; m * n];
        group.bench_function(BenchmarkId::new("gemm_nn_cols", "32x64x6[5..6]"), |b| {
            b.iter(|| gemm_nn_cols(&mut out, &d, &w, m, k, n, 5..6))
        });
    }
    // Weight gradients: deltas [32×k]ᵀ times layer inputs [32×n] into
    // [k×n] — hidden, output, critic input and actor input layers.
    for (m, k, n) in [(32, 64, 64), (32, 1, 64), (32, 64, 6), (32, 64, 5)] {
        let (d, x) = (operand(m * k, &mut rng), operand(m * n, &mut rng));
        let mut out = vec![0.0; k * n];
        group.bench_function(
            BenchmarkId::new("gemm_tn_acc", format!("{m}x{k}x{n}")),
            |b| b.iter(|| gemm_tn_acc(&mut out, &d, &x, m, k, n)),
        );
    }
    group.finish();
}

fn bench_controller_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("rl_controller");
    let mut rl = RlStepping::new(RlSteppingConfig::new(3));
    let mut h = rl.initial_step();
    let mut i = 0usize;
    while rl.transitions_seen() < 2272 {
        h = rl.next_step(&StepObservation {
            nr_iterations: 3 + i % 7,
            nr_converged: !i.is_multiple_of(3),
            residual: 1e-3,
            gamma: Some(1e-2),
            pta_converged: false,
            step: h,
            time: 0.0,
        });
        i += 1;
    }
    group.bench_function(BenchmarkId::new("clone", rl.transitions_seen()), |b| {
        b.iter(|| rl.clone())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rl_kernels,
    bench_gemm_shapes,
    bench_controller_clone
);
criterion_main!(benches);
