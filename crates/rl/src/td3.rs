//! Twin Delayed Deep Deterministic policy gradient (TD3, Fujimoto et al.
//! 2018) — the agent architecture of the paper's Algorithm 2.

use self::rand_distr_free::sample_standard_normal;
use crate::kernel::{ActScratch, BatchCache};
use crate::{Activation, Adam, AsTransition, Mlp};
use rand::Rng;

/// Minimal Box–Muller standard normal sampler so we only depend on `rand`'s
/// uniform source.
mod rand_distr_free {
    use rand::Rng;

    pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
        // Box–Muller; u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Hyper-parameters for a [`Td3Agent`].
#[derive(Debug, Clone, PartialEq)]
pub struct Td3Config {
    /// State dimension.
    pub state_dim: usize,
    /// Action dimension (actions are tanh-bounded to `[−1, 1]`).
    pub action_dim: usize,
    /// Hidden layer widths for actor and critics.
    pub hidden: Vec<usize>,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Polyak averaging coefficient τ for target networks.
    pub tau: f64,
    /// Actor/target update period `d` (delayed policy updates).
    pub policy_delay: u64,
    /// Target-policy smoothing noise σ̃.
    pub policy_noise: f64,
    /// Smoothing noise clip `c`.
    pub noise_clip: f64,
    /// Exploration noise σ added by [`Td3Agent::act_exploring_into`].
    pub exploration_noise: f64,
}

impl Td3Config {
    /// Defaults from the TD3 paper, scaled for the small PTA control
    /// problem: hidden `[64, 64]`, lr 1e−3, γ 0.99, τ 0.005, delay 2,
    /// σ̃ 0.2 clipped at 0.5, exploration σ 0.1.
    pub fn new(state_dim: usize, action_dim: usize) -> Self {
        Self {
            state_dim,
            action_dim,
            hidden: vec![64, 64],
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            gamma: 0.99,
            tau: 0.005,
            policy_delay: 2,
            policy_noise: 0.2,
            noise_clip: 0.5,
            exploration_noise: 0.1,
        }
    }
}

/// Preallocated storage for [`Td3Agent::train_batched`]: the gathered
/// minibatch as row-major `[batch × dim]` slabs, per-network
/// [`BatchCache`] activation storage, and flat gradient slabs.
///
/// Constructed once (sized for the largest batch the caller will use) and
/// reused across training steps; after construction a
/// [`Td3Agent::train_batched`] call performs **zero heap allocations** —
/// a property pinned by the counting-allocator test in
/// `crates/rl/tests/alloc.rs`.
///
/// The workflow is: [`TrainWorkspace::clear`], then one
/// [`TrainWorkspace::push`] per sampled transition (gathering straight out
/// of a replay buffer's slabs via `get`), then
/// [`Td3Agent::train_batched`], then read [`TrainWorkspace::td_errors`]
/// for priority refreshes.
#[derive(Debug, Clone)]
pub struct TrainWorkspace {
    state_dim: usize,
    action_dim: usize,
    max_batch: usize,
    len: usize,
    /// `[batch × state_dim]` gathered states.
    states: Vec<f64>,
    /// `[batch × state_dim]` gathered successor states.
    next_states: Vec<f64>,
    /// `[batch]` gathered rewards.
    rewards: Vec<f64>,
    /// `[batch]` bootstrap masks: 0 where the episode ended, else 1.
    not_done: Vec<f64>,
    /// `[batch × (state_dim + action_dim)]` gathered `s ‖ a` critic inputs.
    sa: Vec<f64>,
    /// `[batch × (state_dim + action_dim)]` scratch rows: first
    /// `s′ ‖ ã` for the target critics, later `s ‖ π(s)` for the actor loss.
    sa2: Vec<f64>,
    /// `[batch]` TD targets `y`.
    targets: Vec<f64>,
    /// `[batch]` TD errors `y − Q₁(s,a)` from before the update.
    td: Vec<f64>,
    /// `[batch × action_dim]` output-gradient rows (critics use width 1).
    grad_out: Vec<f64>,
    /// `[batch × (state_dim + action_dim)]` input-gradient rows; only the
    /// action columns are ever written (by the actor-loss critic pass).
    grad_in: Vec<f64>,
    /// Activation storage shared by the actor and its target.
    actor_cache: BatchCache,
    /// Activation storage shared by critic 1 and its target.
    critic1_cache: BatchCache,
    /// Activation storage shared by critic 2 and its target.
    critic2_cache: BatchCache,
    /// Actor gradient slab.
    g_actor: Vec<f64>,
    /// Critic-1 gradient slab.
    g_critic1: Vec<f64>,
    /// Critic-2 gradient slab.
    g_critic2: Vec<f64>,
}

impl TrainWorkspace {
    /// Creates a workspace for agents with `config`'s shape, holding up to
    /// `max_batch` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or a config dimension is zero.
    pub fn new(config: &Td3Config, max_batch: usize) -> Self {
        assert!(max_batch > 0, "batch capacity must be positive");
        assert!(
            config.state_dim > 0 && config.action_dim > 0,
            "zero dimension"
        );
        let (sd, ad) = (config.state_dim, config.action_dim);
        let mut actor_dims = vec![sd];
        actor_dims.extend(&config.hidden);
        actor_dims.push(ad);
        let mut critic_dims = vec![sd + ad];
        critic_dims.extend(&config.hidden);
        critic_dims.push(1);
        let param_count =
            |dims: &[usize]| -> usize { dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum() };
        Self {
            state_dim: sd,
            action_dim: ad,
            max_batch,
            len: 0,
            states: vec![0.0; max_batch * sd],
            next_states: vec![0.0; max_batch * sd],
            rewards: vec![0.0; max_batch],
            not_done: vec![0.0; max_batch],
            sa: vec![0.0; max_batch * (sd + ad)],
            sa2: vec![0.0; max_batch * (sd + ad)],
            targets: vec![0.0; max_batch],
            td: vec![0.0; max_batch],
            grad_out: vec![0.0; max_batch * ad],
            grad_in: vec![0.0; max_batch * (sd + ad)],
            actor_cache: BatchCache::for_dims(&actor_dims, max_batch),
            critic1_cache: BatchCache::for_dims(&critic_dims, max_batch),
            critic2_cache: BatchCache::for_dims(&critic_dims, max_batch),
            g_actor: vec![0.0; param_count(&actor_dims)],
            g_critic1: vec![0.0; param_count(&critic_dims)],
            g_critic2: vec![0.0; param_count(&critic_dims)],
        }
    }

    /// Number of transitions gathered so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no transitions are gathered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of transitions per training step.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Empties the gathered minibatch (capacity is retained).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Gathers one transition — owned, borrowed, or a
    /// [`TransitionRef`](crate::TransitionRef) straight out of a replay
    /// buffer's slabs — into the next minibatch row, scattering its fields
    /// into the state/action/reward slabs.
    ///
    /// # Panics
    ///
    /// Panics if the workspace is full or the transition's dimensions
    /// disagree with the configured shape.
    pub fn push(&mut self, t: impl AsTransition) {
        let t = t.view();
        assert!(self.len < self.max_batch, "workspace full");
        assert_eq!(t.state.len(), self.state_dim, "state dimension mismatch");
        assert_eq!(t.action.len(), self.action_dim, "action dimension mismatch");
        assert_eq!(
            t.next_state.len(),
            self.state_dim,
            "next-state dimension mismatch"
        );
        let (sd, ad) = (self.state_dim, self.action_dim);
        let r = self.len;
        self.states[r * sd..(r + 1) * sd].copy_from_slice(t.state);
        self.next_states[r * sd..(r + 1) * sd].copy_from_slice(t.next_state);
        self.rewards[r] = t.reward;
        self.not_done[r] = if t.done { 0.0 } else { 1.0 };
        let row = &mut self.sa[r * (sd + ad)..(r + 1) * (sd + ad)];
        row[..sd].copy_from_slice(t.state);
        row[sd..].copy_from_slice(t.action);
        self.len += 1;
    }

    /// Per-row TD errors `y − Q₁(s,a)` from the latest
    /// [`Td3Agent::train_batched`] call, in gather order.
    pub fn td_errors(&self) -> &[f64] {
        &self.td[..self.len]
    }

    /// The state gathered into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.len()`.
    pub fn state_row(&self, r: usize) -> &[f64] {
        assert!(r < self.len, "row out of bounds");
        &self.states[r * self.state_dim..(r + 1) * self.state_dim]
    }

    /// The action gathered into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.len()`.
    pub fn action_row(&self, r: usize) -> &[f64] {
        assert!(r < self.len, "row out of bounds");
        let sad = self.state_dim + self.action_dim;
        &self.sa[r * sad + self.state_dim..(r + 1) * sad]
    }

    /// The reward gathered into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.len()`.
    pub fn reward_row(&self, r: usize) -> f64 {
        assert!(r < self.len, "row out of bounds");
        self.rewards[r]
    }
}

/// A TD3 actor–critic agent: deterministic tanh policy, twin Q critics,
/// target networks with Polyak updates, delayed policy updates and
/// target-policy smoothing.
#[derive(Debug, Clone)]
pub struct Td3Agent {
    config: Td3Config,
    actor: Mlp,
    actor_target: Mlp,
    critic1: Mlp,
    critic2: Mlp,
    critic1_target: Mlp,
    critic2_target: Mlp,
    actor_opt: Adam,
    critic1_opt: Adam,
    critic2_opt: Adam,
    train_steps: u64,
}

impl Td3Agent {
    /// Creates an agent with freshly initialized networks.
    ///
    /// # Panics
    ///
    /// Panics if `state_dim` or `action_dim` is zero.
    pub fn new(config: Td3Config, rng: &mut impl Rng) -> Self {
        assert!(
            config.state_dim > 0 && config.action_dim > 0,
            "zero dimension"
        );
        let mut actor_dims = vec![config.state_dim];
        actor_dims.extend(&config.hidden);
        actor_dims.push(config.action_dim);
        let mut critic_dims = vec![config.state_dim + config.action_dim];
        critic_dims.extend(&config.hidden);
        critic_dims.push(1);

        let actor = Mlp::new(&actor_dims, Activation::Tanh, rng);
        let critic1 = Mlp::new(&critic_dims, Activation::Linear, rng);
        let critic2 = Mlp::new(&critic_dims, Activation::Linear, rng);
        let actor_target = actor.clone();
        let critic1_target = critic1.clone();
        let critic2_target = critic2.clone();
        let actor_opt = Adam::new(actor.num_params(), config.actor_lr);
        let critic1_opt = Adam::new(critic1.num_params(), config.critic_lr);
        let critic2_opt = Adam::new(critic2.num_params(), config.critic_lr);
        Self {
            config,
            actor,
            actor_target,
            critic1,
            critic2,
            critic1_target,
            critic2_target,
            actor_opt,
            critic1_opt,
            critic2_opt,
            train_steps: 0,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &Td3Config {
        &self.config
    }

    /// Number of training steps so far: [`Td3Agent::train_batched`] calls
    /// on a non-empty workspace, plus the counter a stored policy was
    /// loaded with.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// The six networks in persistence order: actor, actor target,
    /// critic 1, critic 2, critic-1 target, critic-2 target.
    pub fn networks(&self) -> [&Mlp; 6] {
        [
            &self.actor,
            &self.actor_target,
            &self.critic1,
            &self.critic2,
            &self.critic1_target,
            &self.critic2_target,
        ]
    }

    /// Reassembles an agent from stored networks (same order as
    /// [`Td3Agent::networks`]) and a training-step counter. Optimizer
    /// moments and replay contents restart fresh.
    ///
    /// # Errors
    ///
    /// Returns a description when the network shapes disagree with the
    /// configuration.
    pub fn from_networks(
        config: Td3Config,
        networks: Vec<Mlp>,
        train_steps: u64,
    ) -> Result<Self, String> {
        if networks.len() != 6 {
            return Err(format!("expected 6 networks, got {}", networks.len()));
        }
        let mut it = networks.into_iter();
        let actor = it.next().expect("len checked");
        let actor_target = it.next().expect("len checked");
        let critic1 = it.next().expect("len checked");
        let critic2 = it.next().expect("len checked");
        let critic1_target = it.next().expect("len checked");
        let critic2_target = it.next().expect("len checked");
        if actor.input_dim() != config.state_dim || actor.output_dim() != config.action_dim {
            return Err("actor shape disagrees with config".into());
        }
        if critic1.input_dim() != config.state_dim + config.action_dim || critic1.output_dim() != 1
        {
            return Err("critic shape disagrees with config".into());
        }
        let actor_opt = Adam::new(actor.num_params(), config.actor_lr);
        let critic1_opt = Adam::new(critic1.num_params(), config.critic_lr);
        let critic2_opt = Adam::new(critic2.num_params(), config.critic_lr);
        Ok(Self {
            config,
            actor,
            actor_target,
            critic1,
            critic2,
            critic1_target,
            critic2_target,
            actor_opt,
            critic1_opt,
            critic2_opt,
            train_steps,
        })
    }

    /// Zero-allocation deterministic policy action into `out`
    /// (`action_dim` long), ping-ponging activations through `scratch`
    /// (shape it with [`Td3Agent::act_scratch`]). Shares the batched
    /// path's dot kernel, so it is bit-identical to a batched actor row.
    ///
    /// # Panics
    ///
    /// Panics if `state`/`out`/`scratch` disagree with the actor's shape.
    pub fn act_into(&self, state: &[f64], out: &mut [f64], scratch: &mut ActScratch) {
        self.actor.forward_into(state, out, scratch);
    }

    /// Scratch sized for [`Td3Agent::act_into`] /
    /// [`Td3Agent::act_exploring_into`] on this agent.
    pub fn act_scratch(&self) -> ActScratch {
        ActScratch::for_mlp(&self.actor)
    }

    /// Zero-allocation policy action with exploration noise: the
    /// deterministic action into `out`, then per-component clipped
    /// Gaussian noise, drawn in component order.
    ///
    /// # Panics
    ///
    /// Panics if `state`/`out`/`scratch` disagree with the actor's shape.
    pub fn act_exploring_into(
        &self,
        state: &[f64],
        out: &mut [f64],
        scratch: &mut ActScratch,
        rng: &mut impl Rng,
    ) {
        self.actor.forward_into(state, out, scratch);
        for a in out.iter_mut() {
            *a = (*a + self.config.exploration_noise * sample_standard_normal(rng))
                .clamp(-1.0, 1.0);
        }
    }

    /// One TD3 training step over the minibatch gathered in `ws`
    /// (Algorithm 2 lines 9–18), fully batched: each of the six networks
    /// runs one `[batch × dim]` forward (and, where needed, one backward)
    /// pass per step instead of one per transition, and each Adam update
    /// walks its parameter slab once. Performs zero heap allocations.
    ///
    /// Target-smoothing noise is drawn per row, per action dimension — the
    /// same order the per-transition loop used, so fixed-seed runs replay
    /// the identical noise sequence. Returns the per-row TD errors
    /// `y − Q₁(s,a)` from before the update (also available afterwards via
    /// [`TrainWorkspace::td_errors`]).
    ///
    /// An empty workspace is a no-op returning an empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the workspace shape disagrees with the agent's config.
    pub fn train_batched<'w>(
        &mut self,
        ws: &'w mut TrainWorkspace,
        rng: &mut impl Rng,
    ) -> &'w [f64] {
        let b = ws.len;
        if b == 0 {
            return &ws.td[..0];
        }
        assert_eq!(ws.state_dim, self.config.state_dim, "state dim mismatch");
        assert_eq!(ws.action_dim, self.config.action_dim, "action dim mismatch");
        let n = b as f64;
        let (sd, ad) = (self.config.state_dim, self.config.action_dim);
        let sad = sd + ad;
        let (gamma, tau) = (self.config.gamma, self.config.tau);
        let (policy_noise, noise_clip) = (self.config.policy_noise, self.config.noise_clip);
        let policy_delay = self.config.policy_delay;

        // --- targets with smoothed target policy ---
        self.actor_target
            .forward_batch_into(&ws.next_states, b, &mut ws.actor_cache);
        {
            let a2 = ws.actor_cache.output(b);
            for r in 0..b {
                let row = &mut ws.sa2[r * sad..(r + 1) * sad];
                row[..sd].copy_from_slice(&ws.next_states[r * sd..(r + 1) * sd]);
                for (d, slot) in row[sd..].iter_mut().enumerate() {
                    let eps = (policy_noise * sample_standard_normal(rng))
                        .clamp(-noise_clip, noise_clip);
                    *slot = (a2[r * ad + d] + eps).clamp(-1.0, 1.0);
                }
            }
        }
        self.critic1_target
            .forward_batch_into(&ws.sa2, b, &mut ws.critic1_cache);
        self.critic2_target
            .forward_batch_into(&ws.sa2, b, &mut ws.critic2_cache);
        {
            let q1 = ws.critic1_cache.output(b);
            let q2 = ws.critic2_cache.output(b);
            for r in 0..b {
                ws.targets[r] = ws.rewards[r] + gamma * ws.not_done[r] * q1[r].min(q2[r]);
            }
        }

        // --- critic updates: L = 1/N Σ (Q(s,a) − y)² ---
        self.critic1
            .forward_batch_into(&ws.sa, b, &mut ws.critic1_cache);
        self.critic2
            .forward_batch_into(&ws.sa, b, &mut ws.critic2_cache);
        {
            let q1 = ws.critic1_cache.output(b);
            for (((td, go), &y), &q) in ws.td[..b]
                .iter_mut()
                .zip(&mut ws.grad_out[..b])
                .zip(&ws.targets[..b])
                .zip(q1)
            {
                *td = y - q;
                *go = 2.0 * (q - y) / n;
            }
        }
        // The critic updates need no input gradients.
        ws.g_critic1.fill(0.0);
        self.critic1.backward_batch_partial_into(
            &mut ws.critic1_cache,
            b,
            &ws.grad_out[..b],
            Some(&mut ws.g_critic1),
            &mut ws.grad_in,
            0..0,
        );
        {
            let q2 = ws.critic2_cache.output(b);
            for ((go, &y), &q) in ws.grad_out[..b].iter_mut().zip(&ws.targets[..b]).zip(q2) {
                *go = 2.0 * (q - y) / n;
            }
        }
        ws.g_critic2.fill(0.0);
        self.critic2.backward_batch_partial_into(
            &mut ws.critic2_cache,
            b,
            &ws.grad_out[..b],
            Some(&mut ws.g_critic2),
            &mut ws.grad_in,
            0..0,
        );
        self.critic1_opt
            .step(self.critic1.params_mut(), &ws.g_critic1);
        self.critic2_opt
            .step(self.critic2.params_mut(), &ws.g_critic2);

        self.train_steps += 1;

        // --- delayed policy + target updates ---
        if self.train_steps.is_multiple_of(policy_delay) {
            self.actor
                .forward_batch_into(&ws.states, b, &mut ws.actor_cache);
            {
                let a = ws.actor_cache.output(b);
                for r in 0..b {
                    let row = &mut ws.sa2[r * sad..(r + 1) * sad];
                    row[..sd].copy_from_slice(&ws.states[r * sd..(r + 1) * sd]);
                    row[sd..].copy_from_slice(&a[r * ad..(r + 1) * ad]);
                }
            }
            self.critic1
                .forward_batch_into(&ws.sa2, b, &mut ws.critic1_cache);
            // Maximize Q ⇒ minimize −Q. Only ∂(−Q̄)/∂action matters here:
            // no parameter gradients, and only the action columns of the
            // input gradient.
            ws.grad_out[..b].fill(-1.0 / n);
            self.critic1.backward_batch_partial_into(
                &mut ws.critic1_cache,
                b,
                &ws.grad_out[..b],
                None,
                &mut ws.grad_in,
                sd..sad,
            );
            // Actor output gradients: the action slice of each input row.
            for r in 0..b {
                let (gin, gout) = (&ws.grad_in, &mut ws.grad_out);
                gout[r * ad..(r + 1) * ad]
                    .copy_from_slice(&gin[r * sad + sd..(r + 1) * sad]);
            }
            ws.g_actor.fill(0.0);
            self.actor.backward_batch_partial_into(
                &mut ws.actor_cache,
                b,
                &ws.grad_out[..b * ad],
                Some(&mut ws.g_actor),
                &mut ws.grad_in,
                0..0,
            );
            self.actor_opt.step(self.actor.params_mut(), &ws.g_actor);
            self.actor_target.soft_update_from(&self.actor, tau);
            self.critic1_target.soft_update_from(&self.critic1, tau);
            self.critic2_target.soft_update_from(&self.critic2, tau);
        }
        &ws.td[..b]
    }

    /// Mean actor objective `1/N Σ Q₁(s, π(s))` over the minibatch gathered
    /// in `ws`, computed with one batched forward per network instead of a
    /// scalar actor + critic pass per row. Reuses the workspace's activation
    /// caches and `s ‖ π(s)` scratch rows; allocation-free and read-only on
    /// the agent. Rows are summed in minibatch order.
    ///
    /// Telemetry helper: training loops report `−mean_actor_objective` as
    /// the actor loss without paying per-row forward passes.
    ///
    /// # Panics
    ///
    /// Panics if the workspace shape disagrees with the agent's config.
    pub fn mean_actor_objective(&self, ws: &mut TrainWorkspace) -> f64 {
        let b = ws.len;
        if b == 0 {
            return 0.0;
        }
        assert_eq!(ws.state_dim, self.config.state_dim, "state dim mismatch");
        assert_eq!(ws.action_dim, self.config.action_dim, "action dim mismatch");
        let (sd, ad) = (self.config.state_dim, self.config.action_dim);
        let sad = sd + ad;
        self.actor
            .forward_batch_into(&ws.states, b, &mut ws.actor_cache);
        {
            let a = ws.actor_cache.output(b);
            for r in 0..b {
                let row = &mut ws.sa2[r * sad..(r + 1) * sad];
                row[..sd].copy_from_slice(&ws.states[r * sd..(r + 1) * sd]);
                row[sd..].copy_from_slice(&a[r * ad..(r + 1) * ad]);
            }
        }
        self.critic1
            .forward_batch_into(&ws.sa2, b, &mut ws.critic1_cache);
        let q = ws.critic1_cache.output(b);
        q.iter().sum::<f64>() / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    /// The greedy action through a fresh scratch.
    fn act(agent: &Td3Agent, state: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; agent.config.action_dim];
        agent.act_into(state, &mut out, &mut agent.act_scratch());
        out
    }

    /// One training step on `batch` through a fresh workspace; the TD
    /// errors it returns.
    fn train(agent: &mut Td3Agent, batch: &[Transition], rng: &mut StdRng) -> Vec<f64> {
        let mut ws = TrainWorkspace::new(&agent.config, batch.len().max(1));
        for t in batch {
            ws.push(t);
        }
        agent.train_batched(&mut ws, rng).to_vec()
    }

    fn transition(s: f64, a: f64, r: f64, s2: f64) -> Transition {
        Transition {
            state: vec![s],
            action: vec![a],
            reward: r,
            next_state: vec![s2],
            done: false,
        }
    }

    #[test]
    fn actions_are_bounded() {
        let agent = Td3Agent::new(Td3Config::new(3, 2), &mut rng());
        let a = act(&agent, &[10.0, -10.0, 0.0]);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn exploration_noise_stays_bounded() {
        let agent = Td3Agent::new(Td3Config::new(2, 1), &mut rng());
        let (mut scratch, mut a) = (agent.act_scratch(), [0.0]);
        let mut r = rng();
        for _ in 0..100 {
            agent.act_exploring_into(&[0.5, -0.5], &mut a, &mut scratch, &mut r);
            assert!((-1.0..=1.0).contains(&a[0]));
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut agent = Td3Agent::new(Td3Config::new(2, 1), &mut rng());
        let before = agent.train_steps();
        let errs = train(&mut agent, &[], &mut rng());
        assert!(errs.is_empty());
        assert_eq!(agent.train_steps(), before);
    }

    #[test]
    fn td_errors_have_batch_length() {
        let mut agent = Td3Agent::new(Td3Config::new(1, 1), &mut rng());
        let batch = vec![
            transition(0.0, 0.1, 1.0, 0.5),
            transition(0.5, -0.2, 0.0, 1.0),
        ];
        let errs = train(&mut agent, &batch, &mut rng());
        assert_eq!(errs.len(), 2);
        assert!(errs.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn critic_learns_constant_reward() {
        // One state, one action, reward always 1, episode ends: Q → 1.
        let mut agent = Td3Agent::new(Td3Config::new(1, 1), &mut rng());
        let mut r = rng();
        let t = Transition {
            state: vec![0.0],
            action: vec![0.0],
            reward: 1.0,
            next_state: vec![0.0],
            done: true,
        };
        for _ in 0..3000 {
            train(&mut agent, std::slice::from_ref(&t), &mut r);
        }
        let mut q = [0.0];
        let mut scratch = ActScratch::for_mlp(&agent.critic1);
        agent.critic1.forward_into(&[0.0, 0.0], &mut q, &mut scratch);
        let [q] = q;
        assert!((q - 1.0).abs() < 0.15, "Q = {q}");
    }

    #[test]
    fn actor_moves_toward_higher_q_action() {
        // Reward = action (bigger action ⇒ bigger reward, done episodes).
        // After training the actor should output a large positive action.
        let mut agent = Td3Agent::new(Td3Config::new(1, 1), &mut rng());
        let mut r = rng();
        for i in 0..3000 {
            let a = if i % 3 == 0 {
                -0.8
            } else {
                (i % 10) as f64 / 5.0 - 1.0
            };
            let t = Transition {
                state: vec![0.0],
                action: vec![a],
                reward: a,
                next_state: vec![0.0],
                done: true,
            };
            train(&mut agent, &[t], &mut r);
        }
        let out = act(&agent, &[0.0])[0];
        assert!(out > 0.5, "actor output {out} should approach +1");
    }

    #[test]
    fn targets_lag_behind_online_networks() {
        let mut agent = Td3Agent::new(Td3Config::new(1, 1), &mut rng());
        let snapshot = agent.actor_target.clone();
        let mut r = rng();
        let batch = vec![transition(0.1, 0.2, 0.5, 0.3)];
        for _ in 0..4 {
            train(&mut agent, &batch, &mut r);
        }
        // Online actor changed; target moved but only by a τ-sized amount.
        let online_diff: f64 = agent
            .actor
            .params()
            .iter()
            .zip(snapshot.params())
            .map(|(a, b)| (a - b).abs())
            .sum();
        let target_diff: f64 = agent
            .actor_target
            .params()
            .iter()
            .zip(snapshot.params())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(online_diff > 0.0);
        assert!(target_diff < online_diff, "targets must trail online nets");
    }

    #[test]
    fn policy_delay_gates_actor_updates() {
        let cfg = Td3Config {
            policy_delay: 4,
            ..Td3Config::new(1, 1)
        };
        let mut agent = Td3Agent::new(cfg, &mut rng());
        let actor_before = agent.actor.params().to_vec();
        let mut r = rng();
        let batch = vec![transition(0.1, 0.2, 0.5, 0.3)];
        // 3 steps < delay: actor untouched.
        for _ in 0..3 {
            train(&mut agent, &batch, &mut r);
        }
        assert_eq!(agent.actor.params(), actor_before.as_slice());
        // 4th step triggers the policy update.
        train(&mut agent, &batch, &mut r);
        assert_ne!(agent.actor.params(), actor_before.as_slice());
    }

    #[test]
    fn reused_workspace_matches_fresh_workspaces() {
        // Same seed, same batches: one reused workspace and a fresh one per
        // step must be indistinguishable (nothing leaks between steps).
        let run = |reuse: bool| {
            let mut r = StdRng::seed_from_u64(9);
            let mut agent = Td3Agent::new(Td3Config::new(2, 1), &mut r);
            let mut ws = TrainWorkspace::new(agent.config(), 4);
            let mut tds = Vec::new();
            for i in 0..12 {
                let batch: Vec<Transition> = (0..3)
                    .map(|j| Transition {
                        state: vec![0.1 * i as f64, -0.05 * j as f64],
                        action: vec![0.2],
                        reward: (i + j) as f64 * 0.1,
                        next_state: vec![0.3, -0.3],
                        done: j == 2,
                    })
                    .collect();
                if reuse {
                    ws.clear();
                    for t in &batch {
                        ws.push(t);
                    }
                    tds.extend_from_slice(agent.train_batched(&mut ws, &mut r));
                } else {
                    tds.extend(train(&mut agent, &batch, &mut r));
                }
            }
            (tds, act(&agent, &[0.4, -0.4]))
        };
        assert_eq!(run(true), run(false));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn act_exploring_into_is_greedy_plus_clipped_noise() {
        let agent = Td3Agent::new(Td3Config::new(2, 1), &mut rng());
        let mut scratch = agent.act_scratch();
        let mut out = vec![0.0; 1];
        agent.act_exploring_into(
            &[0.5, -0.5],
            &mut out,
            &mut scratch,
            &mut StdRng::seed_from_u64(42),
        );
        // The greedy action plus one noise draw from the same stream.
        let noise = sample_standard_normal(&mut StdRng::seed_from_u64(42));
        let greedy = act(&agent, &[0.5, -0.5])[0];
        let expected = (greedy + agent.config.exploration_noise * noise).clamp(-1.0, 1.0);
        assert_eq!(bits(&out), bits(&[expected]));
    }

    #[test]
    fn workspace_gathers_and_clears() {
        let cfg = Td3Config::new(2, 1);
        let mut ws = TrainWorkspace::new(&cfg, 3);
        assert!(ws.is_empty());
        assert_eq!(ws.max_batch(), 3);
        ws.push(&Transition {
            state: vec![1.0, 2.0],
            action: vec![0.5],
            reward: 7.0,
            next_state: vec![3.0, 4.0],
            done: false,
        });
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.state_row(0), &[1.0, 2.0]);
        assert_eq!(ws.action_row(0), &[0.5]);
        assert_eq!(ws.reward_row(0), 7.0);
        ws.clear();
        assert!(ws.is_empty());
    }

    #[test]
    #[should_panic(expected = "workspace full")]
    fn workspace_rejects_overfill() {
        let cfg = Td3Config::new(1, 1);
        let mut ws = TrainWorkspace::new(&cfg, 1);
        ws.push(transition(0.0, 0.0, 0.0, 0.0));
        ws.push(transition(0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn workspace_rejects_wrong_state_dim() {
        let cfg = Td3Config::new(2, 1);
        let mut ws = TrainWorkspace::new(&cfg, 1);
        ws.push(transition(0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mk = || {
            let mut r = StdRng::seed_from_u64(5);
            let mut agent = Td3Agent::new(Td3Config::new(2, 1), &mut r);
            let batch = vec![Transition {
                state: vec![0.1, -0.1],
                action: vec![0.2],
                reward: 0.5,
                next_state: vec![0.3, -0.3],
                done: false,
            }];
            for _ in 0..10 {
                train(&mut agent, &batch, &mut r);
            }
            act(&agent, &[0.3, -0.3])
        };
        assert_eq!(mk(), mk());
    }
}
