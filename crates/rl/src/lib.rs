//! From-scratch reinforcement learning: MLP + Adam + TD3 with prioritized
//! and shared replay.
//!
//! This crate is the neural substrate of the paper's RL-S stepping agent.
//! It deliberately avoids any tensor framework — the TD3 networks are tiny
//! (two hidden layers of a few dozen units), so a hand-rolled dense
//! [`Mlp`] with exact analytic backpropagation and an [`Adam`] optimizer is
//! simpler, fully deterministic, and fast.
//!
//! Components, mapping to §4 of the paper:
//!
//! * [`Mlp`]/[`Adam`] — function approximators and optimizer, one GEMM
//!   path ([`kernel`]) for batched training and single-row inference,
//! * [`Td3Agent`] — twin critics, target networks, delayed policy update,
//!   target-policy smoothing (Algorithm 2); steps through
//!   [`Td3Agent::act_into`], trains through [`Td3Agent::train_batched`],
//! * [`SumTree`]/[`PrioritizedReplay`] — TD-error priority sampling (§4.4);
//!   the buffer stores transitions as one contiguous slab per field and
//!   lends them out as [`TransitionRef`] views (flat priorities give the
//!   uniform-sampling ablation),
//! * the public/shared buffer for dual-agent collaborative learning (§4.3)
//!   is composed from these primitives in `rlpta-core`.
//!
//! # Example
//!
//! ```
//! use rlpta_rl::{Td3Agent, Td3Config, TrainWorkspace, Transition};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut agent = Td3Agent::new(Td3Config::new(3, 1), &mut rng);
//! let mut scratch = agent.act_scratch();
//! let mut a = [0.0];
//! agent.act_into(&[0.1, -0.2, 0.3], &mut a, &mut scratch);
//! assert!(a[0] >= -1.0 && a[0] <= 1.0); // tanh-bounded action
//! let mut ws = TrainWorkspace::new(agent.config(), 32);
//! ws.push(&Transition {
//!     state: vec![0.1, -0.2, 0.3],
//!     action: a.to_vec(),
//!     reward: 1.0,
//!     next_state: vec![0.0, 0.0, 0.0],
//!     done: false,
//! });
//! let _td_errors = agent.train_batched(&mut ws, &mut rng);
//! ```

// `deny` rather than the workspace-usual `forbid`: the GEMM micro-kernels
// in [`kernel`] runtime-dispatch to `#[target_feature]` builds (`avx2,fma`
// and `avx512f`), and calling a target-feature function is an `unsafe`
// operation even though the dispatch first asserts that the host runs the
// requested build (detected once with `is_x86_feature_detected!`). That
// one dispatch macro, the intrinsic lane types of the two SIMD builds
// (bounds-checked slices, a SAFETY comment per block) and the test-only
// reference kernels are the only sanctioned `#[allow(unsafe_code)]` in the
// crate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod adam;
mod buffer;
pub mod kernel;
mod mlp;
mod persist;
mod priority;
mod sumtree;
mod td3;

pub use adam::Adam;
pub use buffer::{AsTransition, Transition, TransitionRef};
pub use kernel::{ActScratch, BatchCache};
pub use mlp::{Activation, Mlp};
pub use priority::PrioritizedReplay;
pub use sumtree::SumTree;
pub use td3::{Td3Agent, Td3Config, TrainWorkspace};
