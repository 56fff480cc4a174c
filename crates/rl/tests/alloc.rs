//! The RL hot-path contract: after construction (agent + workspace +
//! scratch), steady-state policy inference ([`Td3Agent::act_into`] /
//! [`Td3Agent::act_exploring_into`]) and batched training
//! ([`Td3Agent::train_batched`] over a reused [`TrainWorkspace`]) perform
//! **zero** heap allocations — every slab is preallocated, and the GEMM
//! kernels, Adam steps and Polyak updates all work in place. So does a
//! backward pass that skips parameter gradients or input-gradient columns
//! ([`Mlp::backward_batch_partial_into`]).
//!
//! One test only: the counting allocator is process-global, so a second
//! concurrently running test would pollute the count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlpta_rl::{Activation, BatchCache, Mlp, Td3Agent, Td3Config, TrainWorkspace, Transition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn act_and_train_allocate_nothing_in_steady_state() {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = Td3Config::new(5, 1);
    let mut agent = Td3Agent::new(cfg.clone(), &mut rng);
    let batch = 32;
    let mut ws = TrainWorkspace::new(&cfg, batch);
    let mut scratch = agent.act_scratch();
    let mut action = vec![0.0; 1];
    let transitions: Vec<Transition> = (0..batch)
        .map(|i| Transition {
            state: vec![0.1, 0.2, 0.3, 0.4, (i % 2) as f64],
            action: vec![(i as f64 / batch as f64) * 2.0 - 1.0],
            reward: -1.0 + i as f64 * 0.01,
            next_state: vec![0.2, 0.1, 0.4, 0.3, ((i + 1) % 2) as f64],
            done: i % 7 == 0,
        })
        .collect();

    // Warmup: one full gather + train + inference round faults in
    // everything lazily initialized before counting starts.
    ws.clear();
    for t in &transitions {
        ws.push(t);
    }
    agent.train_batched(&mut ws, &mut rng);
    agent.act_into(&transitions[0].state, &mut action, &mut scratch);
    agent.act_exploring_into(&transitions[0].state, &mut action, &mut scratch, &mut rng);
    // A critic-shaped network for the column-restricted backward: the
    // actor-loss pass (action column only, no parameter gradients) and the
    // critic-update pass (parameter gradients, no input gradients).
    let critic = Mlp::new(&[6, 64, 64, 1], Activation::Linear, &mut rng);
    let mut cache = BatchCache::for_mlp(&critic, batch);
    let sa: Vec<f64> = (0..batch * 6)
        .map(|i| (i % 13) as f64 / 13.0 - 0.5)
        .collect();
    let go = vec![-1.0 / batch as f64; batch];
    let mut grads = vec![0.0; critic.num_params()];
    let mut grad_in = vec![0.0; batch * 6];
    critic.forward_batch_into(&sa, batch, &mut cache);
    critic.backward_batch_partial_into(&mut cache, batch, &go, None, &mut grad_in, 5..6);

    let before = ALLOCS.load(Ordering::SeqCst);
    // 50 training rounds cover both the critic-only and the delayed
    // actor/target-update branches (policy_delay = 2) several times over,
    // interleaved with greedy and exploring inference calls.
    for round in 0..50 {
        ws.clear();
        for t in &transitions {
            ws.push(t);
        }
        let td = agent.train_batched(&mut ws, &mut rng);
        assert_eq!(td.len(), batch);
        let s = &transitions[round % transitions.len()].state;
        agent.act_into(s, &mut action, &mut scratch);
        agent.act_exploring_into(s, &mut action, &mut scratch, &mut rng);
        critic.forward_batch_into(&sa, batch, &mut cache);
        critic.backward_batch_partial_into(&mut cache, batch, &go, None, &mut grad_in, 5..6);
        critic.forward_batch_into(&sa, batch, &mut cache);
        let g = Some(&mut grads[..]);
        critic.backward_batch_partial_into(&mut cache, batch, &go, g, &mut grad_in, 0..0);
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "RL hot path allocated {} time(s) over 50 train/inference/backward rounds",
        after - before
    );
    // The rounds really trained: the step counter advanced and the action
    // is a finite bounded value.
    assert_eq!(agent.train_steps(), 51);
    assert!(grad_in.iter().skip(5).step_by(6).any(|g| *g != 0.0));
    assert!(action[0].is_finite() && (-1.0..=1.0).contains(&action[0]));
}
