//! The per-chain Newton workspace, plus the deprecated assembly-mode shim.
//!
//! Every Newton run assembles `J(x)` through a precompiled [`StampPlan`]:
//! one structural resolve per circuit structure, then a per-iteration
//! slot-table scatter into a persistent CSR buffer. Certification scatters
//! through the same plan and buffer after re-verifying the plan
//! ([`NewtonWorkspace::certify_assembly`]), and the service keys structures
//! from a declare pass, so no solve, certification or service job uses the
//! triplet assembler. It stays as the oracle the
//! plan bit-identity tests compare against (and as AC analysis's
//! small-signal assembly).
//!
//! Devices are evaluated at most once per `(x, limited junction voltages,
//! gmin, source scale)`. Newton's convergence check is a full assembly,
//! and the iteration after a failed check keeps it when the limiter state
//! is a fixed point at `x` ([`NewtonWorkspace::keep_check`]). A chain
//! whose runs all evaluate one unchanged circuit (a PTA solve, built with
//! [`NewtonWorkspace::carrying_devices`]) also keeps the device half of
//! its latest check: the next run's first iteration replays it under new
//! pseudo-element stamps ([`NewtonWorkspace::replay_check`]), and the
//! steady-state test reads its residual
//! ([`NewtonWorkspace::original_residual_into`]). A run that converges
//! under the default gmin and full sources, on a plan without extra
//! stamps, leaves its check in place for certification at the returned
//! iterate ([`NewtonWorkspace::keep_converged`]). Every reuse requires
//! that the evaluation it replaces would see bitwise the same inputs, is
//! switched off under fault injection (so seeded draws do not move), and
//! is checked against a fresh evaluation in debug builds.

use rlpta_devices::{EvalCtx, Stamper};
use rlpta_linalg::{CondScratch, CsrMatrix, LinalgError, LuOp, LuWorkspace};
use rlpta_mna::{BumpPlan, Circuit, DeclareScratch, DeviceSnapshot, ResidualScratch, StampPlan};
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
/// buffers, plus the start-point buffers of a run and the two scratches
/// only certification uses.
///
/// Created by whoever owns the chain and threaded through every
/// `newton_iterate` call of it, so the plan resolves once and every later
/// iteration is a pure write pass, a symbolic replay and an in-place solve
/// with no allocation. The chain's returned points are certified in the
/// same workspace, on the same plan, buffers and LU workspace
/// ([`NewtonWorkspace::certify_assembly`]), so a chain of plain Newton runs
/// resolves one plan and records one LU pattern, not two.
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
    /// The start of a run, and certification's seeded limiter state.
    pub(crate) start: StartBuffers,
    /// The declare scratch certification re-verifies the plan with.
    declare: DeclareScratch,
    /// The Hager scratch of certification's condition estimate.
    cond: CondScratch,
    /// The device half of the latest convergence check, kept only by a
    /// chain that evaluates one unchanged circuit
    /// ([`NewtonWorkspace::carrying_devices`]).
    check: Option<CheckSnapshot>,
}

// Plans installed in workspaces on this thread, and certification
// assemblies evaluated rather than taken from a converged check, for tests
// that count them.
#[cfg(test)]
thread_local! {
    pub(crate) static PLAN_INSTALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    pub(crate) static CERTIFY_EVALS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The device half of a convergence-check assembly and the inputs its
/// devices saw: the iterate, the limiter state the evaluation left (which
/// is the limited junction voltages it evaluated at), gmin and source
/// scale. `valid` once a check has been taken; `fixed_point` once a
/// limiter pass at `x` showed that it leaves `state` in place.
#[derive(Debug, Default)]
struct CheckSnapshot {
    devices: DeviceSnapshot,
    x: Vec<f64>,
    state: Vec<f64>,
    gmin: f64,
    source_scale: f64,
    valid: bool,
    fixed_point: bool,
}

impl CheckSnapshot {
    /// Whether an evaluation at `ctx` would see the snapshot's iterate,
    /// gmin and source scale, bit for bit.
    fn taken_at(&self, ctx: &EvalCtx<'_>) -> bool {
        self.valid
            && self.gmin.to_bits() == ctx.gmin.to_bits()
            && self.source_scale.to_bits() == ctx.source_scale.to_bits()
            && same_bits(&self.x, ctx.x)
    }
}

/// The installed plan and the working matrix over its pattern, built on
/// first use.
///
/// # Panics
///
/// Panics if no plan is installed.
fn plan_and_matrix<'a>(
    plan: &'a Option<Arc<StampPlan>>,
    matrix: &'a mut Option<CsrMatrix>,
) -> (&'a StampPlan, &'a mut CsrMatrix) {
    let plan = plan
        .as_ref()
        .expect("Newton workspace used before plan resolution");
    (plan, matrix.get_or_insert_with(|| plan.new_matrix()))
}

/// Whether two vectors are equal bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Whether `state`, limited once more at `x`, lands on `want` bit for bit:
/// then an evaluation at `x` from `state` sees exactly the junction
/// voltages `want` holds. `scratch` holds the limited state afterwards.
/// Runs the junction limiters only; evaluates no device model.
fn limits_to(
    circuit: &Circuit,
    x: &[f64],
    state: &[f64],
    want: &[f64],
    scratch: &mut [f64],
) -> bool {
    scratch.copy_from_slice(state);
    circuit.limit_state(x, scratch);
    same_bits(scratch, want)
}

/// A bit fingerprint of an assembly (or a residual): the reuse oracle of
/// debug builds compares it before and after a fresh evaluation
/// overwrites the reused one in place, so checking a reuse allocates
/// nothing.
#[cfg(debug_assertions)]
fn fingerprint(parts: &[&[f64]], finite: bool) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for part in parts {
        for v in *part {
            v.to_bits().hash(&mut h);
        }
    }
    finite.hash(&mut h);
    h.finish()
}

/// The reuse oracle of debug builds: evaluates afresh at `ctx` from
/// `state` into the buffers a reuse just filled and asserts that the
/// result's fingerprint is `want`, the reused assembly's (with the limiter
/// state the reuse leaves).
#[cfg(debug_assertions)]
#[allow(clippy::too_many_arguments)]
fn assert_fresh(
    plan: &StampPlan,
    circuit: &Circuit,
    ctx: &EvalCtx<'_>,
    matrix: &mut CsrMatrix,
    res: &mut [f64],
    state: &mut [f64],
    extra: &mut dyn FnMut(&mut Stamper<'_>),
    want: u64,
) {
    let finite = plan.eval_into(circuit, ctx, matrix, res, state, extra);
    assert_eq!(
        fingerprint(&[matrix.values(), res, state], finite),
        want,
        "a reused device evaluation differs from a fresh one"
    );
}

/// The start of one Newton run ([`crate::newton::newton_from`]): the zero
/// iterate used when no start is given and the limiter state seeded at the
/// start iterate. Certification seeds its limiter state here too.
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
    /// Device state before the convergence check; the limiter scratch
    /// of the reuse tests at other times.
    pub(crate) state_before: Vec<f64>,
    /// Triangular-solve scratch for [`rlpta_linalg::SparseLu::solve_into`].
    pub(crate) solve_scratch: Vec<f64>,
    /// The buffer the next run's returned iterate is built in: empty
    /// unless a caller handed a spent iterate back (a PTA solve returns
    /// the previous time point's), so a chain that does so allocates no
    /// iterate per run.
    pub(crate) x_out: Vec<f64>,
    /// `Some(finite)` while the working matrix and `res` hold the
    /// converged check of the latest run, taken at `x_new` and leaving
    /// the limiter state `state_before`
    /// ([`NewtonWorkspace::keep_converged`]). Every run start and every
    /// evaluation forgets it.
    converged: Option<bool>,
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
        self.converged = None;
    }
}

impl NewtonWorkspace {
    /// An empty workspace: the plan resolves and the LU pattern records
    /// inside the first Newton run.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// An empty workspace for a chain whose Newton runs all evaluate one
    /// circuit that does not change between them (a PTA solve): it keeps
    /// the device half of each convergence check for the next run's first
    /// iteration and for [`NewtonWorkspace::original_residual_into`].
    pub(crate) fn carrying_devices() -> Self {
        Self {
            check: Some(CheckSnapshot::default()),
            ..Self::default()
        }
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

    /// Installs `resolve()` unless a plan of dimension `dim` is already
    /// installed. A workspace recycled across circuits of a different
    /// dimension drops its plan and the buffers bound to it.
    pub(crate) fn ensure_plan(&mut self, dim: usize, resolve: impl FnOnce() -> StampPlan) {
        if self.plan.as_ref().is_none_or(|p| p.dim() != dim) {
            self.install_plan(resolve());
        }
    }

    /// Installs `plan`, dropping the buffers bound to the previous one.
    fn install_plan(&mut self, plan: StampPlan) {
        #[cfg(test)]
        PLAN_INSTALLS.with(|n| n.set(n.get() + 1));
        self.plan = Some(Arc::new(plan));
        self.matrix = None;
        self.bump = None;
        self.bufs.converged = None;
        if let Some(check) = &mut self.check {
            check.valid = false;
        }
    }

    /// Whether certification may scatter through the installed plan: there
    /// is one, it carries no solver extra stamps (the limiter-free scatter
    /// would leave their slots stale) and it verifies against `circuit`.
    fn certify_takes(&mut self, circuit: &Circuit) -> bool {
        self.plan.as_ref().is_some_and(|p| {
            p.device_pushes() == p.len() && p.verify_with(circuit, &mut self.declare)
        })
    }

    /// Certification's assembly: `J(x)` into the working matrix and `F(x)`
    /// into `bufs.res`, limiter-free (default gmin, full sources) from the
    /// limiter state seeded at `x` in the start buffers. The installed plan
    /// is used when certification may take it
    /// ([`NewtonWorkspace::certify_takes`]); otherwise a device-only plan is
    /// resolved from `circuit` and installed. When the latest run's
    /// converged check is that assembly ([`NewtonWorkspace::check_certifies`])
    /// the buffers already hold it; otherwise every pass rewrites every
    /// slot, the residual and the state, so the assembly does not depend on
    /// what the workspace held. Returns it with the chain's LU workspace,
    /// which certification factorizes in without touching its pattern
    /// ([`LuWorkspace::factorize_fresh`]), and the Hager scratch.
    pub(crate) fn certify_assembly(
        &mut self,
        circuit: &Circuit,
        x: &[f64],
    ) -> (&CsrMatrix, &[f64], &mut LuWorkspace, &mut CondScratch) {
        if !self.certify_takes(circuit) {
            self.install_plan(StampPlan::resolve(circuit, &mut |_| {}));
        }
        self.start.state.resize(circuit.state_len(), 0.0);
        if !self.check_certifies(circuit, x) {
            #[cfg(test)]
            CERTIFY_EVALS.with(|n| n.set(n.get() + 1));
            self.bufs.converged = None;
            let (start, res) = (&mut self.start, &mut self.bufs.res);
            circuit.seeded_state_into(x, &mut start.state, &mut start.seed);
            res.resize(circuit.dim(), 0.0);
            let (plan, matrix) = plan_and_matrix(&self.plan, &mut self.matrix);
            let ctx = EvalCtx::dc(x);
            plan.eval_into(circuit, &ctx, matrix, res, &mut start.state, &mut |_| {});
        }
        let matrix = self.matrix.as_ref().expect("certification assembled");
        (matrix, &self.bufs.res, &mut self.lu, &mut self.cond)
    }

    /// Whether the working matrix and `bufs.res` already hold
    /// certification's assembly at `x`: the latest run converged at `x`
    /// bit for bit and left its check in place
    /// ([`NewtonWorkspace::keep_converged`]; the caller has re-verified the
    /// plan), one limiter pass shows the check's state is a fixed point at
    /// `x` on which every device landed, and the seeding walk is sure to
    /// land ([`Circuit::seeding_lands`]). The seeded state is then the
    /// check's, so a fresh assembly would see the check's inputs bit for
    /// bit. Leaves that state in the start buffers. Off under fault
    /// injection.
    fn check_certifies(&mut self, circuit: &Circuit, x: &[f64]) -> bool {
        let bufs = &self.bufs;
        let Some(finite) = bufs.converged.filter(|_| !cfg!(feature = "faults")) else {
            return false;
        };
        let state = &mut self.start.state;
        if !same_bits(&bufs.x_new, x) || state.len() != bufs.state_before.len() {
            return false;
        }
        state.copy_from_slice(&bufs.state_before);
        let landed = circuit.limit_state(x, state);
        if !(landed && same_bits(state, &bufs.state_before) && circuit.seeding_lands(x)) {
            return false;
        }
        #[cfg(debug_assertions)]
        {
            let (plan, matrix) = plan_and_matrix(&self.plan, &mut self.matrix);
            let res = &mut self.bufs.res;
            let want = fingerprint(&[matrix.values(), res, state], finite);
            circuit.seeded_state_into(x, state, &mut self.start.seed);
            assert_fresh(
                plan,
                circuit,
                &EvalCtx::dc(x),
                matrix,
                res,
                state,
                &mut |_| {},
                want,
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = finite;
        true
    }

    /// A run converged at `ctx` with the limiter state `state`, the
    /// working matrix and `bufs.res` holding its check. Remembers the
    /// iterate and the state in `bufs` when certification could use the
    /// check in place: default gmin, full sources and a plan without extra
    /// stamps, so the check evaluated exactly what certification's
    /// assembly would from the same limiter state. Off under fault
    /// injection.
    pub(crate) fn keep_converged(&mut self, ctx: &EvalCtx<'_>, state: &[f64], finite: bool) {
        let plain = ctx.gmin.to_bits() == EvalCtx::DEFAULT_GMIN.to_bits()
            && ctx.source_scale.to_bits() == 1f64.to_bits()
            && self
                .plan
                .as_ref()
                .is_some_and(|p| p.device_pushes() == p.len());
        if cfg!(feature = "faults") || !plain {
            return;
        }
        let bufs = &mut self.bufs;
        bufs.x_new.copy_from_slice(ctx.x);
        bufs.state_before.copy_from_slice(state);
        bufs.converged = Some(finite);
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
        self.bufs.converged = None;
        let (plan, matrix) = plan_and_matrix(&self.plan, &mut self.matrix);
        plan.eval_into(circuit, ctx, matrix, &mut self.bufs.res, state, extra)
    }

    /// Newton's convergence check: a full assembly at `ctx`, as
    /// [`NewtonWorkspace::eval`]. A chain carrying devices also keeps the
    /// device half and the inputs it was evaluated at.
    ///
    /// # Panics
    ///
    /// Panics if no plan is installed.
    pub(crate) fn eval_check(
        &mut self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        state: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
    ) -> bool {
        self.bufs.converged = None;
        let Some(check) = &mut self.check else {
            return self.eval(circuit, ctx, state, extra);
        };
        let (plan, matrix) = plan_and_matrix(&self.plan, &mut self.matrix);
        let res = &mut self.bufs.res;
        let finite =
            plan.eval_snapshot_into(circuit, ctx, matrix, res, state, extra, &mut check.devices);
        check.x.clear();
        check.x.extend_from_slice(ctx.x);
        check.state.clear();
        check.state.extend_from_slice(state);
        check.gmin = ctx.gmin;
        check.source_scale = ctx.source_scale;
        check.valid = true;
        check.fixed_point = false;
        finite
    }

    /// The iteration after a failed convergence check at the same `x`:
    /// when the limiter state is a fixed point at `x`, a fresh assembly
    /// would see the check's inputs bit for bit, so the working matrix and
    /// `bufs.res` already hold it. Returns the check's finite flag then,
    /// and `None` when the iteration must assemble. Off under fault
    /// injection.
    pub(crate) fn keep_check(
        &mut self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        state: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
        finite: bool,
    ) -> Option<bool> {
        if cfg!(feature = "faults")
            || !limits_to(circuit, ctx.x, state, state, &mut self.bufs.state_before)
        {
            return None;
        }
        #[cfg(debug_assertions)]
        {
            let (plan, matrix) = plan_and_matrix(&self.plan, &mut self.matrix);
            let want = fingerprint(&[matrix.values(), &self.bufs.res, state], finite);
            assert_fresh(
                plan,
                circuit,
                ctx,
                matrix,
                &mut self.bufs.res,
                state,
                extra,
                want,
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = extra;
        Some(finite)
    }

    /// A run's first iteration on a chain carrying devices: when the
    /// latest check was taken at `ctx` and `state` limits to the junction
    /// voltages it saw, rebuilds the assembly from the check's device half
    /// under this run's `extra` ([`StampPlan::replay_into`]), moves `state`
    /// to where an evaluation would leave it and returns the finite flag.
    /// `None` when the iteration must assemble. Off under fault injection.
    pub(crate) fn replay_check(
        &mut self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        state: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
    ) -> Option<bool> {
        if cfg!(feature = "faults") {
            return None;
        }
        let check = self.check.as_ref().filter(|c| c.taken_at(ctx))?;
        // A state the limiters are known to leave in place needs no pass.
        let same_inputs = (check.fixed_point && same_bits(state, &check.state))
            || limits_to(
                circuit,
                ctx.x,
                state,
                &check.state,
                &mut self.bufs.state_before,
            );
        if !same_inputs {
            return None;
        }
        let (plan, matrix) = plan_and_matrix(&self.plan, &mut self.matrix);
        let res = &mut self.bufs.res;
        let finite = plan.replay_into(&check.devices, matrix, res, extra);
        #[cfg(debug_assertions)]
        {
            let want = fingerprint(&[matrix.values(), res, &check.state], finite);
            assert_fresh(plan, circuit, ctx, matrix, res, state, extra, want);
        }
        state.copy_from_slice(&check.state);
        Some(finite)
    }

    /// The steady-state test's residual `F(x)` of the original system
    /// (default gmin, full sources), bit for bit
    /// [`Circuit::residual_into`]'s. A chain carrying devices reads it off
    /// the latest check's device half when that check was taken at `x`
    /// under the original system's gmin and source scale, and the seeded
    /// limiter state limits to the junction voltages it saw; otherwise (and
    /// always under fault injection, whose draws the evaluation takes) it
    /// evaluates.
    pub(crate) fn original_residual_into(
        &mut self,
        circuit: &Circuit,
        x: &[f64],
        residual: &mut [f64],
        scratch: &mut ResidualScratch,
    ) {
        self.bufs.converged = None;
        let original = EvalCtx::dc(x);
        let check = self
            .check
            .as_mut()
            .filter(|c| !cfg!(feature = "faults") && c.taken_at(&original));
        if let Some(check) = check {
            // One limiter pass shows whether the check's state is the
            // limiters' fixed point at `x` and whether it landed there.
            let seeded = &mut self.bufs.state_before;
            seeded.copy_from_slice(&check.state);
            let landed = circuit.limit_state(x, seeded);
            check.fixed_point = same_bits(seeded, &check.state);
            // The evaluation sees the seeded state limited once more. A
            // check state that landed at `x` is that state whenever the
            // seeding walk is sure to land, with no walk run.
            if !(landed && check.fixed_point && circuit.seeding_lands(x)) {
                circuit.seeded_state_into(x, seeded, scratch);
                circuit.limit_state(x, seeded);
            }
            if same_bits(seeded, &check.state) {
                residual.copy_from_slice(check.devices.residual());
                #[cfg(debug_assertions)]
                {
                    let want = fingerprint(&[residual], true);
                    circuit.residual_into(x, residual, scratch);
                    assert_eq!(
                        fingerprint(&[residual], true),
                        want,
                        "a reused residual differs from a fresh one"
                    );
                }
                return;
            }
        }
        circuit.residual_into(x, residual, scratch);
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
