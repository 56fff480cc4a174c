//! Property-based tests for the RL substrate: SumTree invariants under
//! arbitrary operation sequences, replay semantics and optimizer totality.
//! (The finite-difference gradient check runs against the test-only
//! scalar reference passes, in `src/mlp/reference.rs`.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlpta_rl::{Activation, Adam, Mlp, PrioritizedReplay, SumTree, Transition};

fn transition(tag: f64) -> Transition {
    Transition {
        state: vec![tag],
        action: vec![0.0],
        reward: tag,
        next_state: vec![tag + 1.0],
        done: false,
    }
}

proptest! {
    /// SumTree total always equals the sum of its leaves, and `find` always
    /// returns an in-range leaf, no matter the operation sequence.
    #[test]
    fn sumtree_invariants(
        cap in 1usize..40,
        ops in proptest::collection::vec((0usize..40, 0.0f64..100.0), 1..60),
        probe in 0.0f64..1.0,
    ) {
        let mut tree = SumTree::new(cap);
        let mut shadow = vec![0.0f64; cap];
        for (idx, p) in ops {
            let i = idx % cap;
            tree.set(i, p);
            shadow[i] = p;
        }
        let expect: f64 = shadow.iter().sum();
        prop_assert!((tree.total() - expect).abs() <= 1e-9 * expect.max(1.0));
        if tree.total() > 0.0 {
            let leaf = tree.find(probe * tree.total());
            prop_assert!(leaf < cap);
            prop_assert!(shadow[leaf] > 0.0, "found zero-mass leaf {leaf}");
        }
    }

    /// The ring buffer holds exactly the last `capacity` pushes.
    #[test]
    fn replay_keeps_most_recent(cap in 1usize..20, n in 1usize..60) {
        let mut buf = PrioritizedReplay::new(cap);
        for i in 0..n {
            buf.push(transition(i as f64));
        }
        prop_assert_eq!(buf.len(), n.min(cap));
        let kept: Vec<f64> = buf.iter().map(|t| t.reward).collect();
        let oldest_kept = n.saturating_sub(cap) as f64;
        for r in kept {
            prop_assert!(r >= oldest_kept, "evicted item {r} still present");
        }
    }

    /// Prioritized replay never returns out-of-range indices and respects
    /// capacity.
    #[test]
    fn prioritized_replay_indices_valid(
        cap in 1usize..16,
        pushes in 1usize..40,
        seed in 0u64..100,
    ) {
        let mut buf = PrioritizedReplay::new(cap);
        for i in 0..pushes {
            buf.push(transition(i as f64));
        }
        prop_assert_eq!(buf.len(), pushes.min(cap));
        let mut rng = StdRng::seed_from_u64(seed);
        for (idx, _) in buf.sample(32, &mut rng) {
            prop_assert!(idx < buf.len());
        }
    }

    /// Adam steps keep parameters finite for any finite gradients.
    #[test]
    fn adam_stays_finite(
        grads in proptest::collection::vec(-1e6f64..1e6, 1..8),
        lr in 1e-5f64..1.0,
    ) {
        let n = grads.len();
        let mut params = vec![0.0; n];
        let mut opt = Adam::new(n, lr);
        for _ in 0..50 {
            opt.step(&mut params, &grads);
        }
        prop_assert!(params.iter().all(|p| p.is_finite()));
        // Adam's per-step movement is bounded by ~lr.
        for p in &params {
            prop_assert!(p.abs() <= 51.0 * lr, "p = {p}, lr = {lr}");
        }
    }

    /// Soft updates converge the target onto the source geometrically.
    #[test]
    fn soft_update_converges(tau in 0.01f64..0.99, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = Mlp::new(&[2, 4, 1], Activation::Linear, &mut rng);
        let mut tgt = Mlp::new(&[2, 4, 1], Activation::Linear, &mut rng);
        for _ in 0..300 {
            tgt.soft_update_from(&src, tau);
        }
        let dist: f64 = tgt
            .params()
            .iter()
            .zip(src.params())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        // (1−τ)^300 is tiny for τ ≥ 0.01.
        prop_assert!(dist < 0.2, "distance {dist} at tau {tau}");
    }
}
