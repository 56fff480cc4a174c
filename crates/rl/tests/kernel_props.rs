//! Property tests of the batched training and stepping path: batched
//! training must be bit-deterministic under a fixed seed, and a persisted
//! agent must replay bit-identical `act_into` stepping decisions after a
//! round-trip. (The comparisons against the scalar reference passes live
//! with that test-only reference, in `src/mlp/reference.rs`.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlpta_rl::{Td3Agent, Td3Config, TrainWorkspace, Transition};

/// Deterministic pseudo-random inputs spread across `[-2, 2]`.
fn inputs(count: usize, salt: u64) -> Vec<f64> {
    (0..count)
        .map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(salt * 97) % 1009) as f64
            / 1009.0)
            * 4.0
            - 2.0)
        .collect()
}

proptest! {
    /// Two identically seeded agents trained through identically gathered
    /// workspaces stay bit-identical: parameters, TD errors and actions.
    #[test]
    fn train_batched_is_seed_deterministic(
        seed in 0u64..200,
        batch in 1usize..12,
        steps in 1usize..8,
    ) {
        let run = || {
            let mut r = StdRng::seed_from_u64(seed);
            let cfg = Td3Config::new(3, 1);
            let mut agent = Td3Agent::new(cfg.clone(), &mut r);
            let mut ws = TrainWorkspace::new(&cfg, batch);
            let mut tds = Vec::new();
            for step in 0..steps {
                ws.clear();
                for i in 0..batch {
                    let tag = (step * batch + i) as f64 * 0.1;
                    ws.push(&Transition {
                        state: vec![tag.sin(), tag.cos(), -tag.sin()],
                        action: vec![(tag * 0.5).sin()],
                        reward: -1.0 + tag * 0.01,
                        next_state: vec![tag.cos(), -tag.cos(), tag.sin()],
                        done: i == batch - 1,
                    });
                }
                tds.extend_from_slice(agent.train_batched(&mut ws, &mut r));
            }
            let params: Vec<f64> = agent.networks().iter().flat_map(|n| n.params().to_vec()).collect();
            let mut action = [0.0];
            agent.act_into(&[0.2, -0.4, 0.6], &mut action, &mut agent.act_scratch());
            (tds, params, action)
        };
        prop_assert_eq!(run(), run());
    }

    /// Text persistence round-trips the policy exactly: the restored agent
    /// makes bit-identical `act_into` stepping decisions on arbitrary
    /// states, even after batched training shaped the weights.
    #[test]
    fn persisted_agent_replays_identical_decisions(
        seed in 0u64..200,
        train_steps in 0usize..6,
        probes in 1usize..10,
    ) {
        let mut r = StdRng::seed_from_u64(seed);
        let cfg = Td3Config::new(5, 1);
        let mut agent = Td3Agent::new(cfg.clone(), &mut r);
        let mut ws = TrainWorkspace::new(&cfg, 8);
        for step in 0..train_steps {
            ws.clear();
            for i in 0..8 {
                let tag = (step * 8 + i) as f64 * 0.07;
                ws.push(&Transition {
                    state: vec![tag.sin(), tag.cos(), tag.tanh(), 0.5, (i % 2) as f64],
                    action: vec![(tag * 0.3).cos()],
                    reward: -1.0 + tag * 0.02,
                    next_state: vec![tag.cos(), tag.sin(), -tag.tanh(), 0.25, ((i + 1) % 2) as f64],
                    done: false,
                });
            }
            agent.train_batched(&mut ws, &mut r);
        }

        let mut buf = Vec::new();
        agent.save_to(&mut buf).unwrap();
        let restored = Td3Agent::load_from(cfg, &mut std::io::BufReader::new(buf.as_slice())).unwrap();

        let mut scratch = agent.act_scratch();
        let mut scratch2 = restored.act_scratch();
        let mut a = vec![0.0; 1];
        let mut b = vec![0.0; 1];
        for p in 0..probes {
            let s = inputs(5, seed.wrapping_add(p as u64));
            agent.act_into(&s, &mut a, &mut scratch);
            restored.act_into(&s, &mut b, &mut scratch2);
            prop_assert_eq!(&a, &b, "probe {} diverged after round-trip", p);
        }
    }
}
