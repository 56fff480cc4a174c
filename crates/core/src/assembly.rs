//! The per-chain Newton workspace, plus the deprecated assembly-mode shim.
//!
//! Every Newton run assembles `J(x)` through a precompiled [`StampPlan`]:
//! one structural resolve per circuit structure, then a per-iteration
//! slot-table scatter into a persistent CSR buffer. Certification does the
//! same through a verified plan (its chain's, or one of its own), and the
//! service keys structures from a declare pass, so no solve, certification
//! or service job uses the triplet assembler. It stays as the oracle the
//! plan bit-identity tests compare against (and as AC analysis's
//! small-signal assembly).

use crate::certify::CertifyWorkspace;
use rlpta_devices::{EvalCtx, Stamper};
use rlpta_linalg::{CsrMatrix, LinalgError, LuOp, LuWorkspace};
use rlpta_mna::{BumpPlan, Circuit, ResidualScratch, StampPlan};
use std::sync::Arc;

/// How Newton systems were assembled each iteration.
///
/// A v1 shim kept for source compatibility: plan assembly is the only
/// Newton path, so no code reads this value and both variants behave the
/// same.
#[deprecated(
    since = "0.1.0",
    note = "plan assembly is the only Newton path; this setting is ignored"
)]
#[allow(deprecated)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum AssemblyMode {
    /// Precompiled stamp plan (the only path).
    #[default]
    Plan,
    /// Formerly the per-iteration triplet reference path; now ignored.
    Triplet,
}

/// Everything one chain of Newton runs on one circuit structure (PTA
/// steps, continuation stages, sweep points, a service group) carries from
/// iteration to iteration: the LU workspace (symbolic pattern plus the
/// numeric shell replays rewrite), the resolved stamp plan (possibly
/// shared from the service plan cache), the working CSR buffer the plan
/// scatters into, the lazily-built Gmin-bump companion and the iterate
/// buffers, plus the start-point buffers and the certification workspace
/// of a sweep-point chain.
///
/// Created by whoever owns the chain and threaded through every
/// `newton_iterate` call of it, so the plan resolves once and every later
/// iteration is a pure write pass, a symbolic replay and an in-place solve
/// with no allocation.
#[derive(Debug, Default)]
pub(crate) struct NewtonWorkspace {
    lu: LuWorkspace,
    plan: Option<Arc<StampPlan>>,
    /// Working values buffer over the plan's frozen pattern.
    matrix: Option<CsrMatrix>,
    /// Gmin-bump escalation state (pattern ∪ node diagonals), built on
    /// first singular factorization and reused after.
    bump: Option<(BumpPlan, CsrMatrix)>,
    /// The per-iteration vectors of `newton_iterate`.
    pub(crate) bufs: NewtonBuffers,
    /// Per-point start buffers of a sweep-point chain.
    pub(crate) start: StartBuffers,
    /// Certification's workspace for the chain's returned points, built
    /// on the first certification (chains inside a PTA solve never
    /// certify). It shares at most the verified stamp plan with the Newton
    /// state above (see [`NewtonWorkspace::certify_workspace`]): its
    /// reports are bitwise [`crate::certify::certify`]'s.
    certify: Option<CertifyWorkspace>,
}

/// The start of one warm Newton run: the zero iterate used when no warm
/// start is given and the limiter state seeded at the start iterate.
#[derive(Debug, Default)]
pub(crate) struct StartBuffers {
    pub(crate) zeros: Vec<f64>,
    pub(crate) state: Vec<f64>,
    pub(crate) seed: ResidualScratch,
}

/// The vectors one Newton iteration works in, kept across iterations and
/// runs of a chain. `newton_iterate` sizes them to the system at the start
/// of a run; after that nothing in the loop allocates.
#[derive(Debug, Default)]
pub(crate) struct NewtonBuffers {
    /// `F(x)` of the latest assembly.
    pub(crate) res: Vec<f64>,
    /// The Newton update: `−F(x)` going into the solve, `Δx` after it.
    pub(crate) dx: Vec<f64>,
    /// The candidate iterate `x + Δx`.
    pub(crate) x_new: Vec<f64>,
    /// The last iterate whose stamps evaluated finite (the rollback
    /// anchor), when `has_prev`.
    pub(crate) x_prev: Vec<f64>,
    pub(crate) has_prev: bool,
    /// Device state before the convergence re-evaluation.
    pub(crate) state_before: Vec<f64>,
    /// Triangular-solve scratch for [`rlpta_linalg::SparseLu::solve_into`].
    pub(crate) solve_scratch: Vec<f64>,
}

impl NewtonBuffers {
    /// Sizes every vector to a `dim`-unknown system with `state_len`
    /// limiter slots (a no-op after the first run on one structure) and
    /// forgets the rollback anchor.
    pub(crate) fn start_run(&mut self, dim: usize, state_len: usize) {
        for v in [
            &mut self.res,
            &mut self.dx,
            &mut self.x_new,
            &mut self.x_prev,
        ] {
            v.resize(dim, 0.0);
        }
        self.state_before.resize(state_len, 0.0);
        self.has_prev = false;
    }
}

impl NewtonWorkspace {
    /// An empty workspace: the plan resolves and the LU pattern records
    /// inside the first Newton run.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A workspace seeded with a caller-managed LU workspace and, when
    /// known, a cache-shared stamp plan (the service warm path): the first
    /// Newton run then skips stamp resolution and replays the pattern.
    pub(crate) fn seeded(lu: LuWorkspace, plan: Option<Arc<StampPlan>>) -> Self {
        Self {
            lu,
            plan,
            ..Self::default()
        }
    }

    /// The LU workspace (for cache write-back of its symbolic pattern).
    pub(crate) fn lu(&self) -> &LuWorkspace {
        &self.lu
    }

    /// Hands the LU workspace back to a caller that lent it.
    pub(crate) fn into_lu(self) -> LuWorkspace {
        self.lu
    }

    /// The resolved plan, if any (for cache write-back by the service).
    pub(crate) fn plan(&self) -> Option<&Arc<StampPlan>> {
        self.plan.as_ref()
    }

    /// The chain's certification workspace, built on first use. One that
    /// has no plan yet takes the chain's stamp plan when that plan has no
    /// extra stamps (`CertifyWorkspace::adopt_plan`), so a chain of plain
    /// Newton runs certifies without resolving a plan of its own.
    pub(crate) fn certify_workspace(&mut self) -> &mut CertifyWorkspace {
        let certify = self.certify.get_or_insert_with(CertifyWorkspace::default);
        if let Some(plan) = &self.plan {
            certify.adopt_plan(plan);
        }
        certify
    }

    /// Installs `resolve()` unless a plan of dimension `dim` is already
    /// installed. A workspace recycled across circuits of a different
    /// dimension drops its plan and the buffers bound to it.
    pub(crate) fn ensure_plan(&mut self, dim: usize, resolve: impl FnOnce() -> StampPlan) {
        if self.plan.as_ref().is_some_and(|p| p.dim() == dim) {
            return;
        }
        self.plan = Some(Arc::new(resolve()));
        self.matrix = None;
        self.bump = None;
    }

    /// Assembles the system at `ctx` through the plan into the working
    /// matrix and `bufs.res`; returns whether every raw Jacobian stamp was
    /// finite (see [`StampPlan::eval_into`]).
    ///
    /// # Panics
    ///
    /// Panics if no plan is installed.
    pub(crate) fn eval(
        &mut self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        state: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
    ) -> bool {
        let plan = self
            .plan
            .as_ref()
            .expect("Newton workspace used before plan resolution");
        let matrix = self.matrix.get_or_insert_with(|| plan.new_matrix());
        plan.eval_into(circuit, ctx, matrix, &mut self.bufs.res, state, extra)
    }

    /// Evaluates `F(x)` at `ctx` into `bufs.res` and updates `state` with
    /// no Jacobian: bit for bit [`NewtonWorkspace::eval`]'s residual, state
    /// and fault draws (see [`StampPlan::eval_residual_into`]), leaving the
    /// working matrix untouched.
    ///
    /// # Panics
    ///
    /// Panics if no plan is installed.
    pub(crate) fn eval_residual(
        &mut self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        state: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
    ) {
        let plan = self
            .plan
            .as_ref()
            .expect("Newton workspace used before plan resolution");
        plan.eval_residual_into(circuit, ctx, &mut self.bufs.res, state, extra);
    }

    /// Escalates the Gmin-bump companion to `level` (1, 2, 3, … in order):
    /// level 1 reloads the base values, and every level adds its shunt
    /// `1e-9·100^level` on every node diagonal on top of the previous
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if called before [`NewtonWorkspace::eval`].
    pub(crate) fn add_gmin_bump(&mut self, level: i32, num_nodes: usize) {
        let plan = self
            .plan
            .as_ref()
            .expect("bump requested before plan resolution");
        let (bp, bumped) = self.bump.get_or_insert_with(|| {
            let bp = plan.bump_plan(num_nodes);
            let bm = bp.new_matrix();
            (bp, bm)
        });
        if level == 1 {
            let base = self
                .matrix
                .as_ref()
                .expect("bump requested before base assembly");
            bp.scatter_base(base, bumped);
        }
        bp.add_diag(bumped, 1e-9 * 100f64.powi(level));
    }

    /// Factorizes the working matrix (or, when `bumped`, its Gmin-bump
    /// companion), replaying the recorded symbolic pattern into the LU
    /// workspace's numeric shell when it fits; returns how the call was
    /// serviced.
    ///
    /// # Panics
    ///
    /// Panics if the requested matrix has not been assembled yet.
    pub(crate) fn factorize(&mut self, bumped: bool) -> Result<LuOp, LinalgError> {
        let matrix = if bumped {
            &self
                .bump
                .as_ref()
                .expect("bumped factorization before bump")
                .1
        } else {
            self.matrix.as_ref().expect("factorization before assembly")
        };
        self.lu.factorize(matrix)?;
        Ok(self.lu.last_op().unwrap_or(LuOp::Full))
    }

    /// Solves `J·Δx = −F` on the latest factorization into `bufs.dx`, in
    /// place. Bit-identical to negating `bufs.res` and calling
    /// [`rlpta_linalg::SparseLu::solve`].
    ///
    /// # Panics
    ///
    /// Panics unless the latest [`NewtonWorkspace::factorize`] succeeded.
    pub(crate) fn solve_step(&mut self) -> Result<(), LinalgError> {
        let lu = self
            .lu
            .factorization()
            .expect("Newton step solved without a factorization");
        let bufs = &mut self.bufs;
        for (d, r) in bufs.dx.iter_mut().zip(&bufs.res) {
            *d = -r;
        }
        lu.solve_into(&mut bufs.dx, &mut bufs.solve_scratch)
    }
}
