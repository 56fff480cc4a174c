//! End-to-end TD3 validation on a classic continuous-control task,
//! independent of the circuit-simulation setting: a 1-D double integrator
//! ("slide a puck to the origin"). If TD3 cannot solve this, it cannot be
//! trusted to steer PTA steps either.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlpta_rl::{PrioritizedReplay, Td3Agent, Td3Config, TrainWorkspace, Transition};

/// Double integrator: state (position, velocity), action = force ∈ [−1,1].
struct Puck {
    pos: f64,
    vel: f64,
}

impl Puck {
    const DT: f64 = 0.1;

    fn reset(&mut self, seed_pos: f64) {
        self.pos = seed_pos;
        self.vel = 0.0;
    }

    fn state(&self) -> Vec<f64> {
        vec![self.pos, self.vel]
    }

    /// Applies force, returns (reward, done).
    fn step(&mut self, force: f64) -> (f64, bool) {
        self.vel += force.clamp(-1.0, 1.0) * Self::DT;
        self.pos += self.vel * Self::DT;
        let cost = self.pos.abs() + 0.1 * self.vel.abs();
        let done = self.pos.abs() < 0.05 && self.vel.abs() < 0.05;
        (if done { 10.0 } else { -cost }, done)
    }
}

fn train_agent(episodes: usize, seed: u64) -> (Td3Agent, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent = Td3Agent::new(
        Td3Config {
            gamma: 0.95,
            ..Td3Config::new(2, 1)
        },
        &mut rng,
    );
    let mut buffer = PrioritizedReplay::new(20_000);
    let mut scratch = agent.act_scratch();
    let mut ws = TrainWorkspace::new(agent.config(), 64);
    let mut env = Puck { pos: 0.0, vel: 0.0 };
    for ep in 0..episodes {
        env.reset(if ep % 2 == 0 { 1.0 } else { -0.8 });
        for _ in 0..60 {
            let s = env.state();
            let mut a = [0.0];
            agent.act_exploring_into(&s, &mut a, &mut scratch, &mut rng);
            let (r, done) = env.step(a[0]);
            buffer.push(Transition {
                state: s,
                action: a.to_vec(),
                reward: r,
                next_state: env.state(),
                done,
            });
            if buffer.len() >= 64 {
                ws.clear();
                for (_, t) in buffer.sample(64, &mut rng) {
                    ws.push(&t);
                }
                let td = agent.train_batched(&mut ws, &mut rng);
                // Keep priorities fresh on a subsample.
                for ((idx, _), err) in buffer.sample(8, &mut rng).iter().zip(td) {
                    buffer.update_priority(*idx, *err);
                }
            }
            if done {
                break;
            }
        }
    }
    (agent, rng)
}

/// The greedy action in `state` through a fresh scratch.
fn act(agent: &Td3Agent, state: &[f64]) -> f64 {
    let mut a = [0.0];
    agent.act_into(state, &mut a, &mut agent.act_scratch());
    a[0]
}

fn rollout_cost(agent: &Td3Agent, start: f64) -> f64 {
    let mut env = Puck { pos: 0.0, vel: 0.0 };
    env.reset(start);
    let mut total = 0.0;
    for _ in 0..60 {
        let (r, done) = env.step(act(agent, &env.state()));
        total -= r.min(0.0); // accumulate positive cost
        if done {
            return total;
        }
    }
    total + 10.0 // penalty for never reaching the goal
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full learning curriculum; run with --release"
)]
fn td3_learns_to_stabilize_the_puck() {
    let (agent, _) = train_agent(60, 17);
    // Untrained reference.
    let mut rng = StdRng::seed_from_u64(99);
    let fresh = Td3Agent::new(Td3Config::new(2, 1), &mut rng);
    let trained_cost = rollout_cost(&agent, 1.0) + rollout_cost(&agent, -0.8);
    let fresh_cost = rollout_cost(&fresh, 1.0) + rollout_cost(&fresh, -0.8);
    assert!(
        trained_cost < 0.8 * fresh_cost,
        "training must cut rollout cost: trained {trained_cost:.2} vs fresh {fresh_cost:.2}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full learning curriculum; run with --release"
)]
fn td3_policy_generalizes_to_unseen_starts() {
    let (agent, _) = train_agent(60, 23);
    // Start positions never seen during training.
    let cost = rollout_cost(&agent, 0.5);
    assert!(cost < 30.0, "diverged from unseen start: cost {cost:.2}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full learning curriculum; run with --release"
)]
fn trained_policy_pushes_toward_origin() {
    let (agent, _) = train_agent(40, 31);
    // From positive position at rest, the force should be negative-ish.
    let a_pos = act(&agent, &[1.0, 0.0]);
    let a_neg = act(&agent, &[-1.0, 0.0]);
    assert!(
        a_pos < a_neg,
        "policy must push opposite to displacement: f(+1)={a_pos:.2}, f(−1)={a_neg:.2}"
    );
}
