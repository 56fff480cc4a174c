//! RL-S: the paper's TD3 dual-agent reinforcement-learning step controller
//! (§4), with collaborative learning through a public sample buffer (§4.3)
//! and TD-error priority sampling (§4.4).

use crate::telemetry::{Payload, Phase, Sink, Span, Tele};
use crate::{StepController, StepObservation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlpta_rl::{ActScratch, PrioritizedReplay, Td3Agent, Td3Config, TrainWorkspace, TransitionRef};
use std::sync::Arc;

/// Which of the dual agents produced an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgentRole {
    /// Predicts growing steps after a converged NR solve.
    Forward,
    /// Predicts shrinking steps after a rejected (non-converged) solve.
    Backward,
}

/// Configuration of the RL-S controller.
#[derive(Debug, Clone, PartialEq)]
pub struct RlSteppingConfig {
    /// Initial step size `h₀`.
    pub h0: f64,
    /// RNG seed for network init, exploration and sampling.
    pub seed: u64,
    /// TD3 hyper-parameters (state dim is fixed to 5, action dim to 1).
    pub td3: Td3Config,
    /// Capacity of each agent's private replay buffer.
    pub private_capacity: usize,
    /// Capacity of the shared public buffer.
    pub public_capacity: usize,
    /// Mini-batch size per training step (half private, half public).
    pub batch_size: usize,
    /// Transitions to collect before training starts.
    pub warmup: usize,
    /// Forward action map `h ← m/(1 + e^{n−a})·h`; `m` must exceed
    /// `1 + e^{n−1}` so the factor stays ≥ 1 over `a ∈ [−1, 1]`.
    pub forward_m: f64,
    /// Forward action map offset `n`.
    pub forward_n: f64,
    /// Backward action map `h ← c/(1 + e^{b−a})·h`; `c` must stay below
    /// `1 + e^{b−1}` so the factor stays < 1.
    pub backward_c: f64,
    /// Backward action map offset `b`.
    pub backward_b: f64,
    /// Reward weights `c₁..c₅` on (Γ-improvement, Iters, Res-improvement,
    /// rejection penalty, terminal PTA bonus).
    pub reward_weights: [f64; 5],
    /// Dual agents (§4.2). `false` routes both roles through the forward
    /// agent (ablation).
    pub dual_agents: bool,
    /// TD-error priority sampling (§4.4). `false` leaves every sample at
    /// its insertion priority, making replay effectively uniform (ablation).
    pub priority_sampling: bool,
}

impl RlSteppingConfig {
    /// Defaults: `h₀ = 1 ns`, forward multiplier spanning `[1, ≈4.2]`,
    /// backward multiplier spanning `[≈0.12, 0.5]`.
    pub fn new(seed: u64) -> Self {
        Self {
            h0: 1e-3,
            seed,
            td3: Td3Config::new(5, 1),
            private_capacity: 4096,
            public_capacity: 4096,
            batch_size: 32,
            warmup: 8,
            forward_m: 1.0 + std::f64::consts::E.powi(2),
            forward_n: 1.0,
            backward_c: 1.0,
            backward_b: 1.0,
            reward_weights: [2.0, 0.5, 5.0, 2.0, 50.0],
            dual_agents: true,
            priority_sampling: true,
        }
    }
}

impl Default for RlSteppingConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

/// The RL-S step controller: dual TD3 agents trained online during the PTA
/// run. Reusing one `RlStepping` across several circuits implements the
/// paper's offline pre-training + online adaptation scheme — the networks
/// and buffers persist across [`StepController::reset`]; only per-episode
/// state clears.
#[derive(Debug, Clone)]
pub struct RlStepping {
    config: RlSteppingConfig,
    forward: Td3Agent,
    backward: Td3Agent,
    forward_buffer: PrioritizedReplay,
    backward_buffer: PrioritizedReplay,
    public_buffer: PrioritizedReplay,
    rng: StdRng,
    h: f64,
    /// Last emitted `(state, action, role)` awaiting its outcome.
    pending: Option<([f64; Self::STATE_DIM], f64, AgentRole)>,
    /// Greedy mode: exploration and training disabled (evaluation runs).
    frozen: bool,
    transitions_seen: usize,
    /// Attached telemetry: `TrainStep` events and the `RlInference` /
    /// `RlTrain` timings go here. Only a controller with nothing attached
    /// skips the `TrainStep` loss computation; `DcEngine` attaches its
    /// sink (`NullSink` unless configured) to every controller it runs, so
    /// engine RL-S runs compute the losses even when no sink keeps them.
    telemetry: Option<(Arc<dyn Sink>, Span)>,
    /// Reusable batched-training storage shared by both agents (same
    /// network shapes): sampled transitions are gathered straight into its
    /// minibatch slabs, so a train step clones nothing and allocates
    /// nothing.
    workspace: TrainWorkspace,
    /// Ping-pong scratch for the zero-allocation policy inference path.
    act_scratch: ActScratch,
    /// Reused output row for [`Td3Agent::act_into`].
    action_buf: [f64; 1],
    /// Reused index lists for replay sampling (private / public halves).
    idx_private: Vec<usize>,
    idx_public: Vec<usize>,
}

impl RlStepping {
    /// State-vector dimension (Table 1: Iters, Res, Γ, NR_flag, PTA_flag).
    pub const STATE_DIM: usize = 5;

    /// Creates a fresh controller.
    ///
    /// # Panics
    ///
    /// Panics if the action maps violate their monotonicity constraints.
    pub fn new(config: RlSteppingConfig) -> Self {
        assert!(
            config.forward_m >= 1.0 + (config.forward_n + 1.0).exp() - 1e-9,
            "forward_m too small: growth factor would dip below 1"
        );
        assert!(
            config.backward_c <= 1.0 + (config.backward_b - 1.0).exp(),
            "backward_c too large: shrink factor would exceed 1"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let td3 = Td3Config {
            state_dim: Self::STATE_DIM,
            action_dim: 1,
            ..config.td3.clone()
        };
        let forward = Td3Agent::new(td3.clone(), &mut rng);
        let backward = Td3Agent::new(td3.clone(), &mut rng);
        let half = (config.batch_size / 2).max(1);
        let workspace = TrainWorkspace::new(&td3, 2 * half);
        let act_scratch = forward.act_scratch();
        Self {
            forward,
            backward,
            forward_buffer: PrioritizedReplay::new(config.private_capacity),
            backward_buffer: PrioritizedReplay::new(config.private_capacity),
            public_buffer: PrioritizedReplay::new(config.public_capacity),
            rng,
            h: config.h0,
            pending: None,
            frozen: false,
            transitions_seen: 0,
            telemetry: None,
            workspace,
            act_scratch,
            action_buf: [0.0],
            idx_private: Vec::with_capacity(half),
            idx_public: Vec::with_capacity(half),
            config,
        }
    }

    /// Freezes the policy: no exploration noise, no training. Used for
    /// evaluation runs after pre-training.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Re-enables exploration and online training.
    pub fn unfreeze(&mut self) {
        self.frozen = false;
    }

    /// Whether the policy is frozen (deterministic greedy actions, no
    /// training) — the state a shared service policy must be in.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Total transitions observed across all runs.
    pub fn transitions_seen(&self) -> usize {
        self.transitions_seen
    }

    /// Number of samples currently in the public buffer.
    pub fn public_buffer_len(&self) -> usize {
        self.public_buffer.len()
    }

    /// Writes both agents' policies (networks + step counters) as text.
    /// Replay buffers are not persisted — experience is per-deployment.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn save_policy(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        writeln!(w, "rls-policy v1 seed {}", self.config.seed)?;
        self.forward.save_to(w)?;
        self.backward.save_to(w)?;
        Ok(())
    }

    /// Reconstructs a controller from a stored policy, using `config` for
    /// everything the policy file does not carry (action maps, reward
    /// weights, buffer sizes). Buffers start empty.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed content or shape mismatch.
    pub fn load_policy(
        config: RlSteppingConfig,
        r: &mut dyn std::io::BufRead,
    ) -> std::io::Result<Self> {
        let mut header = String::new();
        r.read_line(&mut header)?;
        if !header.starts_with("rls-policy v1") {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "missing rls-policy header",
            ));
        }
        let td3 = Td3Config {
            state_dim: Self::STATE_DIM,
            action_dim: 1,
            ..config.td3.clone()
        };
        let forward = Td3Agent::load_from(td3.clone(), r)?;
        let backward = Td3Agent::load_from(td3, r)?;
        let mut ctl = RlStepping::new(config);
        ctl.forward = forward;
        ctl.backward = backward;
        Ok(ctl)
    }

    /// Encodes Table 1's simulation state into the normalized state vector.
    /// A rejected step carries no Γ (there is no new solution to compare);
    /// its slot encodes the worst case `1.0` — "no measurable progress".
    fn encode(obs: &StepObservation) -> [f64; Self::STATE_DIM] {
        let iters = (obs.nr_iterations as f64 / 30.0).clamp(0.0, 1.0);
        let res = ((obs.residual.max(1e-16).log10() + 16.0) / 20.0).clamp(0.0, 1.0);
        let gamma = obs
            .gamma
            .map_or(1.0, |g| ((g.max(1e-12).log10() + 12.0) / 14.0).clamp(0.0, 1.0));
        [
            iters,
            res,
            gamma,
            if obs.nr_converged { 1.0 } else { 0.0 },
            if obs.pta_converged { 1.0 } else { 0.0 },
        ]
    }

    /// The paper's reward `r = c₁Γ + c₂Iters + c₃Res + c₄NR + c₅PTA`,
    /// realized as a **cost-based** shaping (the paper: "the most powerful
    /// indicator … is the time spent in simulation"): every attempted time
    /// point costs a baseline −1, NR effort and rejections cost extra, and
    /// the Γ/Res terms credit *improvement* between consecutive states.
    /// Telescoping progress terms cannot be farmed by oscillating, and the
    /// per-step cost makes "crawl forever" strictly worse than finishing —
    /// an exploit a purely positive per-step reward invites.
    fn reward(&self, s_prev: &[f64], s_next: &[f64], obs: &StepObservation) -> f64 {
        let w = &self.config.reward_weights;
        // No Γ on a rejected step means no Γ-improvement signal either way:
        // the rejection penalty below already prices the failure, and a
        // phantom (s_prev − 1.0) delta would double-charge it.
        let dgamma = if obs.gamma.is_some() {
            s_prev[2] - s_next[2]
        } else {
            0.0
        };
        -1.0 + w[0] * dgamma - w[1] * s_next[0] + w[2] * (s_prev[1] - s_next[1])
            - w[3] * if obs.nr_converged { 0.0 } else { 1.0 }
            + w[4] * if obs.pta_converged { 1.0 } else { 0.0 }
    }

    /// Forward action map: `factor = m / (1 + e^{n−a}) ≥ 1`.
    fn forward_factor(&self, a: f64) -> f64 {
        self.config.forward_m / (1.0 + (self.config.forward_n - a).exp())
    }

    /// Backward action map: `factor = c / (1 + e^{b−a}) < 1`.
    fn backward_factor(&self, a: f64) -> f64 {
        self.config.backward_c / (1.0 + (self.config.backward_b - a).exp())
    }

    /// The attached sink as a telemetry root (a disabled context when
    /// none is attached, so evaluation runs never read the clock).
    fn tele(&self) -> Tele<'_> {
        match &self.telemetry {
            Some((sink, span)) => Tele::root(&**sink, *span),
            None => Tele::disabled(),
        }
    }

    fn train(&mut self, role: AgentRole) {
        if self.transitions_seen < self.config.warmup {
            return;
        }
        let train_timer = self.tele().timer();
        let half = (self.config.batch_size / 2).max(1);
        let private = match role {
            AgentRole::Forward => &self.forward_buffer,
            AgentRole::Backward => &self.backward_buffer,
        };
        // Sample indices, then gather straight into the workspace's
        // minibatch slabs — no `Transition` clones on the hot path.
        private.sample_indices_into(half, &mut self.rng, &mut self.idx_private);
        self.public_buffer
            .sample_indices_into(half, &mut self.rng, &mut self.idx_public);
        if self.idx_private.is_empty() && self.idx_public.is_empty() {
            return;
        }
        self.workspace.clear();
        for &i in &self.idx_private {
            self.workspace.push(private.get(i));
        }
        for &i in &self.idx_public {
            self.workspace.push(self.public_buffer.get(i));
        }
        let agent = match role {
            AgentRole::Forward => &mut self.forward,
            AgentRole::Backward => &mut self.backward,
        };
        agent.train_batched(&mut self.workspace, &mut self.rng);
        // Refresh priorities where the samples came from (skipped by the
        // uniform-sampling ablation: insertion priorities stay flat, so
        // proportional draws degenerate to uniform).
        if self.config.priority_sampling {
            let td = self.workspace.td_errors();
            let private = match role {
                AgentRole::Forward => &mut self.forward_buffer,
                AgentRole::Backward => &mut self.backward_buffer,
            };
            for (&idx, err) in self.idx_private.iter().zip(td) {
                private.update_priority(idx, *err);
            }
            for (&idx, err) in self
                .idx_public
                .iter()
                .zip(td.iter().skip(self.idx_private.len()))
            {
                self.public_buffer.update_priority(idx, *err);
            }
        }
        train_timer.finish(&self.tele(), Phase::RlTrain);
        self.emit_train_step(role);
    }

    /// Emits a `TrainStep` event with loss metrics recomputed from the
    /// just-trained networks, reading the minibatch back out of the
    /// workspace slabs. Runs whenever a sink is attached (see the
    /// `telemetry` field); the extra forward passes are batched
    /// ([`Td3Agent::mean_actor_objective`]), two GEMM forwards rather than
    /// a scalar pass per row.
    fn emit_train_step(&mut self, role: AgentRole) {
        if self.telemetry.is_none() {
            return;
        }
        let td = self.workspace.td_errors();
        let n = td.len().max(1) as f64;
        let td_error = td.iter().map(|e| e.abs()).sum::<f64>() / n;
        let critic_loss = td.iter().map(|e| e * e).sum::<f64>() / n;
        let agent = match role {
            AgentRole::Forward => &self.forward,
            AgentRole::Backward => &self.backward,
        };
        // TD3's actor objective: maximize Q₁(s, π(s)) — report its negation
        // as the loss being minimized.
        let actor_loss = -agent.mean_actor_objective(&mut self.workspace);
        let buffer_occupancy = match role {
            AgentRole::Forward => self.forward_buffer.len(),
            AgentRole::Backward => self.backward_buffer.len(),
        };
        self.tele().emit(Payload::TrainStep {
            role: match role {
                AgentRole::Forward => "forward",
                AgentRole::Backward => "backward",
            }
            .to_string(),
            td_error,
            actor_loss,
            critic_loss,
            buffer_occupancy,
        });
    }
}

impl StepController for RlStepping {
    fn initial_step(&mut self) -> f64 {
        self.h = self.config.h0;
        self.pending = None;
        self.h
    }

    fn next_step(&mut self, obs: &StepObservation) -> f64 {
        let s_next = Self::encode(obs);

        // Close out the pending transition with the observed outcome. The
        // buffers copy it into their slabs, so nothing here allocates.
        if let Some((s, a, role)) = self.pending.take() {
            if !self.frozen {
                let r = self.reward(&s, &s_next, obs);
                let t = TransitionRef {
                    state: &s,
                    action: std::slice::from_ref(&a),
                    reward: r,
                    next_state: &s_next,
                    done: obs.pta_converged,
                };
                // Collaborative learning (§4.3): convergence-flag flips
                // (XOR = 1 between consecutive states) go to the public
                // buffer too — both agents profit from boundary samples.
                let crossed = s[3] != s_next[3];
                match role {
                    AgentRole::Forward => self.forward_buffer.push(t),
                    AgentRole::Backward => self.backward_buffer.push(t),
                }
                if crossed {
                    self.public_buffer.push(t);
                }
                self.transitions_seen += 1;
                self.train(role);
            }
        }

        if obs.pta_converged {
            return self.h;
        }

        // Dual-agent selection by the NR flag (Algorithm 2 line 6); the
        // single-agent ablation routes everything through the forward net
        // (the action *map* still depends on the NR flag).
        let role = if obs.nr_converged || !self.config.dual_agents {
            AgentRole::Forward
        } else {
            AgentRole::Backward
        };
        let infer_timer = self.tele().timer();
        // Zero-allocation policy call: the action lands in the reused
        // `action_buf` row via the ping-pong scratch.
        {
            let agent = match role {
                AgentRole::Forward => &self.forward,
                AgentRole::Backward => &self.backward,
            };
            if self.frozen {
                agent.act_into(&s_next, &mut self.action_buf, &mut self.act_scratch);
            } else {
                agent.act_exploring_into(
                    &s_next,
                    &mut self.action_buf,
                    &mut self.act_scratch,
                    &mut self.rng,
                );
            }
        }
        let [action] = self.action_buf;
        infer_timer.finish(&self.tele(), Phase::RlInference);
        let factor = match role {
            AgentRole::Forward => self.forward_factor(action),
            AgentRole::Backward => self.backward_factor(action),
        };
        self.h *= factor;
        self.pending = Some((s_next, action, role));
        self.h
    }

    fn name(&self) -> &'static str {
        "rl-s"
    }

    fn reset(&mut self) {
        // Keep the networks and buffers (cross-circuit learning); clear
        // per-episode state.
        self.h = self.config.h0;
        self.pending = None;
    }

    fn attach_telemetry(&mut self, sink: Arc<dyn Sink>, span: Span) {
        self.telemetry = Some((sink, span));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PtaConfig, PtaKind, PtaSolver};

    fn obs(iters: usize, conv: bool, res: f64, gamma: f64, done: bool, h: f64) -> StepObservation {
        StepObservation {
            nr_iterations: iters,
            nr_converged: conv,
            residual: res,
            gamma: Some(gamma),
            pta_converged: done,
            step: h,
            time: 0.0,
        }
    }

    #[test]
    fn forward_factor_never_shrinks() {
        let c = RlStepping::new(RlSteppingConfig::new(1));
        for i in -10..=10 {
            let a = i as f64 / 10.0;
            assert!(c.forward_factor(a) >= 1.0 - 1e-12, "a={a}");
        }
    }

    #[test]
    fn backward_factor_always_shrinks() {
        let c = RlStepping::new(RlSteppingConfig::new(1));
        for i in -10..=10 {
            let a = i as f64 / 10.0;
            let f = c.backward_factor(a);
            assert!(f < 1.0 && f > 0.0, "a={a}, f={f}");
        }
    }

    #[test]
    fn factors_are_monotone_in_action() {
        let c = RlStepping::new(RlSteppingConfig::new(1));
        assert!(c.forward_factor(1.0) > c.forward_factor(-1.0));
        assert!(c.backward_factor(1.0) > c.backward_factor(-1.0));
    }

    #[test]
    fn state_encoding_is_bounded() {
        let s = RlStepping::encode(&obs(100, true, 1e5, 1e3, false, 1.0));
        assert_eq!(s.len(), RlStepping::STATE_DIM);
        assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
        let s2 = RlStepping::encode(&obs(0, false, 0.0, 0.0, true, 1.0));
        assert!(s2.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn grows_after_convergence_shrinks_after_rejection() {
        let mut c = RlStepping::new(RlSteppingConfig::new(2));
        let h0 = c.initial_step();
        let h1 = c.next_step(&obs(3, true, 1e-3, 1e-2, false, h0));
        assert!(h1 >= h0, "forward agent must grow: {h1} vs {h0}");
        let h2 = c.next_step(&obs(30, false, 1.0, 1e-2, false, h1));
        assert!(h2 < h1, "backward agent must shrink: {h2} vs {h1}");
    }

    #[test]
    fn transitions_accumulate_and_crossings_fill_public_buffer() {
        let mut c = RlStepping::new(RlSteppingConfig::new(3));
        let mut h = c.initial_step();
        // Alternate converged / rejected: every pair flips the NR flag.
        for i in 0..20 {
            let conv = i % 2 == 0;
            h = c.next_step(&obs(5, conv, 1e-3, 1e-2, false, h));
        }
        assert!(c.transitions_seen() >= 19);
        assert!(
            c.public_buffer_len() > 0,
            "flag flips must land in the public buffer"
        );
    }

    #[test]
    fn frozen_mode_stops_learning() {
        let mut c = RlStepping::new(RlSteppingConfig::new(4));
        c.freeze();
        let mut h = c.initial_step();
        for _ in 0..10 {
            h = c.next_step(&obs(5, true, 1e-3, 1e-2, false, h));
        }
        assert_eq!(c.transitions_seen(), 0);
    }

    #[test]
    fn reset_preserves_experience() {
        let mut c = RlStepping::new(RlSteppingConfig::new(5));
        let mut h = c.initial_step();
        for _ in 0..10 {
            h = c.next_step(&obs(5, true, 1e-3, 1e-2, false, h));
        }
        let seen = c.transitions_seen();
        c.reset();
        assert_eq!(c.transitions_seen(), seen, "reset must not wipe experience");
        assert_eq!(c.initial_step(), RlSteppingConfig::new(5).h0);
    }

    #[test]
    fn solves_a_real_circuit_end_to_end() {
        let circuit = rlpta_netlist::parse(
            "rl smoke
             V1 in 0 5
             R1 in out 1k
             D1 out 0 DX
             R2 out 0 10k
             .model DX D(IS=1e-14)",
        )
        .unwrap();
        let rl = RlStepping::new(RlSteppingConfig::new(7));
        let mut solver = PtaSolver::with_config(PtaKind::dpta(), rl, PtaConfig::default());
        let sol = solver.solve(&circuit).unwrap();
        assert!(sol.stats.converged);
        let v = sol.voltage(&circuit, "out").unwrap();
        assert!(v > 0.4 && v < 0.9, "diode node at {v}");
        assert!(solver.controller_mut().transitions_seen() > 0);
    }

    #[test]
    fn policy_roundtrips_through_text() {
        let mut c = RlStepping::new(RlSteppingConfig::new(21));
        // Generate some learning so the policy differs from init.
        let mut h = c.initial_step();
        for i in 0..30 {
            h = c.next_step(&obs(5, i % 3 != 0, 1e-3, 1e-2, false, h));
        }
        let mut buf = Vec::new();
        c.save_policy(&mut buf).unwrap();
        let back = RlStepping::load_policy(
            RlSteppingConfig::new(21),
            &mut std::io::BufReader::new(buf.as_slice()),
        )
        .unwrap();
        // Frozen policies must act identically.
        let mut a = c.clone();
        a.freeze();
        let mut b = back;
        b.freeze();
        let mut ha = a.initial_step();
        let mut hb = b.initial_step();
        for i in 0..10 {
            ha = a.next_step(&obs(4, i % 2 == 0, 1e-4, 1e-3, false, ha));
            hb = b.next_step(&obs(4, i % 2 == 0, 1e-4, 1e-3, false, hb));
            assert!((ha - hb).abs() < 1e-15, "step {i}: {ha} vs {hb}");
        }
    }

    #[test]
    fn load_policy_rejects_garbage() {
        let data = b"not a policy\n";
        assert!(RlStepping::load_policy(
            RlSteppingConfig::new(0),
            &mut std::io::BufReader::new(&data[..])
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "forward_m too small")]
    fn config_validation() {
        let cfg = RlSteppingConfig {
            forward_m: 1.0,
            ..RlSteppingConfig::new(0)
        };
        let _ = RlStepping::new(cfg);
    }
}
