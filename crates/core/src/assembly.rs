//! The per-chain Newton workspace, plus the deprecated assembly-mode shim.
//!
//! Every Newton run assembles `J(x)` through a precompiled [`StampPlan`]:
//! one structural resolve per circuit structure, then a per-iteration
//! slot-table scatter into a persistent CSR buffer. Newton never uses the
//! triplet assembler; it stays as the independent oracle that
//! certification re-assembles with and the plan bit-identity tests
//! compare against.

use rlpta_devices::{EvalCtx, Stamper};
use rlpta_linalg::{CsrMatrix, LinalgError, LuOp, LuWorkspace, SparseLu};
use rlpta_mna::{BumpPlan, Circuit, StampPlan};
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
/// iteration to iteration: the symbolic LU pattern, the resolved stamp
/// plan (possibly shared from the service plan cache), the working CSR
/// buffer the plan scatters into, and the lazily-built Gmin-bump
/// companion.
///
/// Created by whoever owns the chain and threaded through every
/// `newton_iterate` call of it, so the plan resolves once and every later
/// iteration is a pure write pass plus a symbolic replay.
#[derive(Debug, Default)]
pub(crate) struct NewtonWorkspace {
    lu: LuWorkspace,
    plan: Option<Arc<StampPlan>>,
    /// Working values buffer over the plan's frozen pattern.
    matrix: Option<CsrMatrix>,
    /// Gmin-bump escalation state (pattern ∪ node diagonals), built on
    /// first singular factorization and reused after.
    bump: Option<(BumpPlan, CsrMatrix)>,
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
            matrix: None,
            bump: None,
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
    /// matrix and `residual`; returns whether every raw Jacobian stamp was
    /// finite (see [`StampPlan::eval_into`]).
    ///
    /// # Panics
    ///
    /// Panics if no plan is installed.
    pub(crate) fn eval(
        &mut self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        residual: &mut [f64],
        state: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
    ) -> bool {
        let plan = self
            .plan
            .as_ref()
            .expect("Newton workspace used before plan resolution");
        let matrix = self.matrix.get_or_insert_with(|| plan.new_matrix());
        plan.eval_into(circuit, ctx, matrix, residual, state, extra)
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
    /// companion), replaying the recorded symbolic pattern when it fits.
    ///
    /// # Panics
    ///
    /// Panics if the requested matrix has not been assembled yet.
    pub(crate) fn factorize(&mut self, bumped: bool) -> Result<SparseLu, LinalgError> {
        let matrix = if bumped {
            &self
                .bump
                .as_ref()
                .expect("bumped factorization before bump")
                .1
        } else {
            self.matrix.as_ref().expect("factorization before assembly")
        };
        self.lu.factorize(matrix)
    }

    /// How the most recent successful factorization was serviced.
    pub(crate) fn last_op(&self) -> Option<LuOp> {
        self.lu.last_op()
    }
}
