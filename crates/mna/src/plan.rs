//! Precompiled stamp plans: index-resolved MNA assembly.
//!
//! A [`StampPlan`] is the structural half of two-phase assembly. One
//! declare pass over the circuit (plus any solver extra stamps) records
//! every ground-filtered `(row, col)` Jacobian target in push order and
//! binds the sequence to direct nnz-slot indices in a frozen CSR pattern
//! via [`StampSlots`]. Every later evaluation ([`StampPlan::eval_into`])
//! replays the sequence through the slot table — no triplet allocation, no
//! sorting, no hashing, just a cursor walk scattering values in place.
//!
//! Bit-identity with [`Circuit::assemble_into`] followed by
//! `Triplet::to_csr` is the contract: the same device code runs in both
//! modes (the [`Stamper`] sink is what differs — a `SlotWriter` here, the
//! triplet there, each compiled into its own device loop), the frozen
//! pattern comes from the same ordering routine, and each slot accumulates
//! its duplicates in push order. See `rlpta-linalg::StampSlots` for the
//! mechanics.
//!
//! A pass writes the devices' pushes, then the extra hook's, as two
//! segments of the one sequence. A [`DeviceSnapshot`] keeps the first
//! segment's result, and [`StampPlan::replay_into`] rebuilds the whole
//! pass from it under another hook without evaluating a device.

use crate::Circuit;
use rlpta_devices::{EvalCtx, Stamper};
#[cfg(test)]
use rlpta_linalg::Triplet;
use rlpta_linalg::{CsrMatrix, StampSlots};

/// A resolved assembly plan for one circuit structure (and one solver
/// extra-stamp shape).
///
/// Immutable once built — share it via `Arc` across sweep points, PTA
/// steps, and service jobs with the same `StructureKey`-equivalent
/// structure. Working values buffers come from [`StampPlan::new_matrix`].
#[derive(Debug, Clone)]
pub struct StampPlan {
    slots: StampSlots,
    /// The frozen pattern with all values zero.
    template: CsrMatrix,
    /// The declared push sequence (devices first, then extra stamps) —
    /// kept for cheap [`StampPlan::verify_with`] re-verification.
    targets: Vec<(usize, usize)>,
    /// How many of `targets` came from the devices alone (prefix length);
    /// the rest were declared by the solver's extra-stamp hook.
    device_pushes: usize,
    dim: usize,
    state_len: usize,
}

impl StampPlan {
    /// Resolves a plan for `circuit`: runs every device's structural
    /// declare pass (at `x = 0`, scratch state — the stamp sequence is
    /// operating-point independent) followed by `extra`, the solver's
    /// extra-stamp hook in declare mode, then freezes the induced pattern.
    ///
    /// `extra` must push the same ordered Jacobian targets the solver's
    /// evaluation-time hook will (values are ignored here). Solvers without
    /// extra stamps pass a no-op closure.
    ///
    /// No fault-injection draws are consumed (declare-mode [`Stamper`]
    /// contract), so resolving a plan never shifts seeded NaN sequences.
    pub fn resolve(circuit: &Circuit, extra: &mut dyn FnMut(&mut Stamper<'_>)) -> StampPlan {
        let dim = circuit.dim();
        let mut scratch = DeclareScratch::default();
        let device_pushes = scratch.declare(circuit).len();
        // The hook writes its residual through the type-erased stamper;
        // nothing reads it.
        let mut residual = vec![0.0; dim];
        extra(&mut Stamper::declare(&mut scratch.targets, &mut residual).erased());
        let targets = std::mem::take(&mut scratch.targets);
        let (template, slots) = StampSlots::build(dim, dim, &targets);
        StampPlan {
            slots,
            template,
            targets,
            device_pushes,
            dim,
            state_len: circuit.state_len(),
        }
    }

    /// MNA system dimension the plan was resolved for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Structural non-zeros of the frozen pattern.
    pub fn nnz(&self) -> usize {
        self.template.nnz()
    }

    /// Total pushes one evaluation replays (devices + extra stamps).
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Pushes declared by the circuit's devices: the prefix of
    /// [`StampPlan::len`] before any solver extra stamps. Equal to `len()`
    /// exactly when the plan was resolved without extra stamps.
    pub fn device_pushes(&self) -> usize {
        self.device_pushes
    }

    /// `true` when the plan expects no pushes at all.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Approximate heap footprint in bytes (for cache byte budgets).
    pub fn approx_bytes(&self) -> usize {
        self.slots.approx_bytes()
            + self.targets.len() * std::mem::size_of::<(usize, usize)>()
            + self.template.nnz()
                * (std::mem::size_of::<f64>() + std::mem::size_of::<usize>())
            + (self.dim + 1) * std::mem::size_of::<usize>()
    }

    /// A fresh working matrix: the frozen pattern with zeroed values. One
    /// per solve context; [`StampPlan::eval_into`] rewrites it in place.
    pub fn new_matrix(&self) -> CsrMatrix {
        self.template.clone()
    }

    /// The frozen CSR pattern (all values zero) the plan scatters into.
    pub fn pattern(&self) -> &CsrMatrix {
        &self.template
    }

    /// Cheap structural re-verification, the plan-side analogue of
    /// `SymbolicLu::compatible_with`: re-runs the device declare pass in
    /// `scratch`'s buffers and compares the target sequence against this
    /// plan's device prefix. Value-only edits (a sweep jittering source
    /// values) keep the sequence identical; any topology change breaks it.
    /// Once the buffers have grown to the circuit, a check allocates
    /// nothing. Takes no fault-injection draws.
    pub fn verify_with(&self, circuit: &Circuit, scratch: &mut DeclareScratch) -> bool {
        circuit.dim() == self.dim
            && circuit.state_len() == self.state_len
            && scratch.declare(circuit) == &self.targets[..self.device_pushes]
    }

    /// Numeric assembly through the plan: zeroes `residual`, replays every
    /// device's stamp sequence (and then `extra`) scattering Jacobian
    /// values into `matrix`'s slots in place, exactly mirroring
    /// [`Circuit::assemble_into`]. Returns `true` when every raw Jacobian
    /// stamp was finite — the scatter-path equivalent of
    /// `Triplet::all_finite` (the caller checks the residual itself, as on
    /// the triplet path).
    ///
    /// # Panics
    ///
    /// Panics if `matrix`/`residual`/`state` have the wrong shape or the
    /// push sequence no longer matches the plan (topology drift since
    /// resolve — guard with [`StampPlan::verify_with`]).
    pub fn eval_into(
        &self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        matrix: &mut CsrMatrix,
        residual: &mut [f64],
        state: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
    ) -> bool {
        let devices_finite = self.eval_devices(circuit, ctx, matrix, residual, state);
        let extra_finite = self.eval_extra(matrix, residual, extra);
        devices_finite && extra_finite
    }

    /// [`StampPlan::eval_into`] that also copies the device half of the
    /// assembly into `snapshot`: the values, residual and finite flag the
    /// devices left before `extra` ran. Same result, same fault draws;
    /// [`StampPlan::replay_into`] later rebuilds the assembly from the
    /// snapshot under any extra hook without evaluating a device.
    ///
    /// # Panics
    ///
    /// As [`StampPlan::eval_into`].
    // The snapshot rides along with `eval_into`'s own arguments.
    #[allow(clippy::too_many_arguments)]
    pub fn eval_snapshot_into(
        &self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        matrix: &mut CsrMatrix,
        residual: &mut [f64],
        state: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
        snapshot: &mut DeviceSnapshot,
    ) -> bool {
        let devices_finite = self.eval_devices(circuit, ctx, matrix, residual, state);
        snapshot.values.clear();
        snapshot.values.extend_from_slice(matrix.values());
        snapshot.residual.clear();
        snapshot.residual.extend_from_slice(residual);
        snapshot.finite = devices_finite;
        let extra_finite = self.eval_extra(matrix, residual, extra);
        devices_finite && extra_finite
    }

    /// Rebuilds an assembly from the device half `snapshot` holds: restores
    /// its values and residual into `matrix` and `residual`, then runs only
    /// `extra`, from push cursor [`StampPlan::device_pushes`]. Every push
    /// keeps its first-touch flag, so slots only the hook touches are
    /// assigned afresh and shared slots add onto the device sums: the
    /// result is bit for bit what [`StampPlan::eval_into`] returns at the
    /// snapshot's `x` and limiter state under this `extra`, signed zeros
    /// included. Evaluates no device and takes no fault-injection draw.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` was not taken through this plan, `matrix` or
    /// `residual` has the wrong shape, or `extra` pushes a different number
    /// of stamps than the plan declared.
    pub fn replay_into(
        &self,
        snapshot: &DeviceSnapshot,
        matrix: &mut CsrMatrix,
        residual: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
    ) -> bool {
        assert_eq!(
            snapshot.residual.len(),
            self.dim,
            "snapshot from another plan"
        );
        matrix.values_mut().copy_from_slice(&snapshot.values);
        residual.copy_from_slice(&snapshot.residual);
        let extra_finite = self.eval_extra(matrix, residual, extra);
        snapshot.finite && extra_finite
    }

    /// The device half of a pass: zeroes `residual` and stamps every device
    /// through a scatter writer over the device pushes. Returns whether
    /// every raw device stamp was finite.
    fn eval_devices(
        &self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        matrix: &mut CsrMatrix,
        residual: &mut [f64],
        state: &mut [f64],
    ) -> bool {
        assert_eq!(residual.len(), self.dim, "residual dimension mismatch");
        assert_eq!(state.len(), self.state_len, "state dimension mismatch");
        residual.fill(0.0);
        let writer = self.slots.writer_range(matrix, 0..self.device_pushes);
        let mut st = Stamper::scatter(writer, residual);
        for (d, &off) in circuit.devices().iter().zip(circuit.state_offsets()) {
            d.stamp(ctx, &mut st, &mut state[off..off + d.state_len()]);
        }
        st.finish()
    }

    /// The extra half of a pass: `extra` through the type-erased stamper,
    /// continuing the sequence at push cursor `device_pushes`. Returns
    /// whether every raw extra stamp was finite.
    fn eval_extra(
        &self,
        matrix: &mut CsrMatrix,
        residual: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
    ) -> bool {
        let pushes = self.device_pushes..self.len();
        let writer = self.slots.writer_range(matrix, pushes);
        let mut st = Stamper::scatter(writer, residual);
        extra(&mut st.erased());
        st.finish()
    }

    /// Builds the Gmin-bump companion: the frozen pattern united with every
    /// node diagonal, plus the scatter maps needed to replay a bumped
    /// factorization bit-identically to the triplet path's
    /// `jac.push(i, i, gshunt)` escalation.
    pub fn bump_plan(&self, num_nodes: usize) -> BumpPlan {
        // Union pattern through the same ordering every pattern takes.
        let union: Vec<(usize, usize)> = self
            .template
            .iter()
            .map(|(r, c, _)| (r, c))
            .chain((0..num_nodes).map(|i| (i, i)))
            .collect();
        let template = StampSlots::pattern_of(self.dim, self.dim, &union);
        let find = |r: usize, c: usize| -> usize {
            let lo = template.row_ptr()[r];
            let hi = template.row_ptr()[r + 1];
            let cols = &template.col_indices()[lo..hi];
            // The union contains every base entry and every diagonal by
            // construction.
            lo + cols.binary_search(&c).expect("entry present in union")
        };
        let base_map = self.template.iter().map(|(r, c, _)| find(r, c)).collect();
        let diag_slots = (0..num_nodes).map(|i| find(i, i)).collect();
        BumpPlan {
            template,
            base_map,
            diag_slots,
        }
    }
}

/// Reusable buffers of a structural declare pass: the zero iterate, the
/// limiter state the devices update, and the recorded targets. A declare
/// pass keeps no residual, so there is none to size or clear. Start from
/// `default()`; the buffers size themselves on first use and are kept by
/// later passes.
#[derive(Debug, Clone, Default)]
pub struct DeclareScratch {
    zeros: Vec<f64>,
    state: Vec<f64>,
    targets: Vec<(usize, usize)>,
}

impl DeclareScratch {
    /// Runs every device's structural declare pass over `circuit` (at
    /// `x = 0`, from a zeroed limiter state) and returns the ground-filtered
    /// Jacobian targets in push order: the sequence a [`StampPlan`] is
    /// resolved from, and, through [`StampSlots::pattern_of`], the
    /// circuit's MNA sparsity pattern. Evaluates no device model (only
    /// the limiter state updates run), writes no residual and takes no
    /// fault-injection draws (declare-mode [`Stamper`] contract).
    pub fn declare(&mut self, circuit: &Circuit) -> &[(usize, usize)] {
        let dim = circuit.dim();
        self.zeros.resize(dim, 0.0);
        self.state.clear();
        self.state.resize(circuit.state_len(), 0.0);
        self.targets.clear();
        self.targets.reserve(16 * circuit.devices().len() + 2 * dim);
        let ctx = EvalCtx::dc(&self.zeros);
        for (d, &off) in circuit.devices().iter().zip(circuit.state_offsets()) {
            d.declare_stamps(
                &ctx,
                &mut self.targets,
                &mut self.state[off..off + d.state_len()],
            );
        }
        &self.targets
    }
}

/// The device half of one [`StampPlan`] evaluation, taken by
/// [`StampPlan::eval_snapshot_into`] after the device loop and before the
/// extra hook: the working matrix's values, the residual and whether every
/// raw device stamp was finite. [`StampPlan::replay_into`] rebuilds a full
/// assembly from it under any extra hook. Slots only the extra hook
/// touches hold stale values here; the replay's first touches overwrite
/// them. Start from `default()`; the buffers size themselves on the first
/// snapshot and are kept by later ones.
#[derive(Debug, Clone, Default)]
pub struct DeviceSnapshot {
    values: Vec<f64>,
    residual: Vec<f64>,
    finite: bool,
}

impl DeviceSnapshot {
    /// The devices' residual contribution: bit for bit the residual a
    /// pass with no extra stamps leaves at the snapshot's `x` and limiter
    /// state.
    pub fn residual(&self) -> &[f64] {
        &self.residual
    }
}

/// Scatter maps for the singular-matrix Gmin-bump escalation under a
/// [`StampPlan`]: the base pattern extended with all node diagonals.
///
/// The triplet path recovers from a singular factorization by appending
/// `gshunt` pushes on every node diagonal and re-converting; summation
/// order there is "base entries first, then each bump in order". The maps
/// here reproduce exactly that: copy base slot values across, then `+=`
/// the shunt on the diagonals, cumulatively per bump level.
#[derive(Debug, Clone)]
pub struct BumpPlan {
    template: CsrMatrix,
    /// For each base-pattern slot, its slot in the bumped pattern.
    base_map: Vec<usize>,
    /// Bumped-pattern slots of `(i, i)` for each node unknown `i`.
    diag_slots: Vec<usize>,
}

impl BumpPlan {
    /// A fresh working matrix over the bumped pattern (values zeroed).
    pub fn new_matrix(&self) -> CsrMatrix {
        self.template.clone()
    }

    /// Loads `base`'s values into `into` (zeroing entries that exist only
    /// in the bumped pattern). Bitwise copy — signed zeros survive.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `into` do not match the patterns this plan was
    /// built from.
    pub fn scatter_base(&self, base: &CsrMatrix, into: &mut CsrMatrix) {
        assert_eq!(base.nnz(), self.base_map.len(), "base pattern mismatch");
        let values = into.values_mut();
        assert_eq!(values.len(), self.template.nnz(), "bumped pattern mismatch");
        values.fill(0.0);
        for (v, &slot) in base.values().iter().zip(&self.base_map) {
            values[slot] = *v;
        }
    }

    /// Adds `gshunt` on every node diagonal — one call per bump level, so
    /// repeated calls escalate cumulatively like repeated triplet pushes.
    pub fn add_diag(&self, into: &mut CsrMatrix, gshunt: f64) {
        let values = into.values_mut();
        for &slot in &self.diag_slots {
            values[slot] += gshunt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;
    use rlpta_devices::{Diode, DiodeModel, Node, Resistor, Vsource};

    fn diode_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("plan-test");
        let vin = b.node("in");
        let out = b.node("out");
        b.add(Vsource::new("V1", vin, Node::GROUND, 5.0));
        b.add(Resistor::new("R1", vin, out, 1e3));
        b.add(Diode::new("D1", out, Node::GROUND, DiodeModel::default()));
        b.build().unwrap()
    }

    /// Assembles via both paths at `x` and asserts bitwise equality.
    fn assert_bit_identical(circuit: &Circuit, x: &[f64]) {
        let ctx = EvalCtx::dc(x);
        // Triplet reference. Fresh state on both sides so limiting history
        // is identical.
        let mut jac = Triplet::new(circuit.dim(), circuit.dim());
        let mut res_t = vec![0.0; circuit.dim()];
        let mut state_t = circuit.new_state();
        circuit.assemble_into(&ctx, &mut jac, &mut res_t, &mut state_t);
        let reference = jac.to_csr();

        let plan = StampPlan::resolve(circuit, &mut |_| {});
        let mut m = plan.new_matrix();
        let mut res_p = vec![0.0; circuit.dim()];
        let mut state_p = circuit.new_state();
        let finite = plan.eval_into(circuit, &ctx, &mut m, &mut res_p, &mut state_p, &mut |_| {});
        assert!(finite);
        assert!(reference.same_pattern(&m), "pattern mismatch");
        for (a, b) in reference.values().iter().zip(m.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        for (a, b) in res_t.iter().zip(&res_p) {
            assert_eq!(a.to_bits(), b.to_bits(), "residual {a} vs {b}");
        }
        assert_eq!(state_t, state_p, "limiter state diverged");
    }

    #[test]
    fn plan_matches_triplet_at_zero_and_biased_points() {
        let c = diode_circuit();
        assert_bit_identical(&c, &vec![0.0; c.dim()]);
        assert_bit_identical(&c, &[5.0, 0.62, -4.3e-3]);
        assert_bit_identical(&c, &[-2.0, -1.0, 1e-3]);
    }

    #[test]
    fn plan_reuse_does_not_accumulate() {
        let c = diode_circuit();
        let plan = StampPlan::resolve(&c, &mut |_| {});
        let mut m = plan.new_matrix();
        let mut res = vec![0.0; c.dim()];
        let mut state = c.new_state();
        let x = vec![0.0; c.dim()];
        let ctx = EvalCtx::dc(&x);
        plan.eval_into(&c, &ctx, &mut m, &mut res, &mut state, &mut |_| {});
        let first: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
        plan.eval_into(&c, &ctx, &mut m, &mut res, &mut state, &mut |_| {});
        let second: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(first, second, "second pass must overwrite, not add");
    }

    #[test]
    fn extra_stamps_are_planned_too() {
        let c = diode_circuit();
        let dim = c.dim();
        // Pseudo-element-style extra: shunts on every node diagonal.
        let plan = StampPlan::resolve(&c, &mut |st| {
            for i in 0..2 {
                st.jac_raw(i, i, 0.0);
            }
        });
        let bare = StampPlan::resolve(&c, &mut |_| {});
        assert_eq!(bare.device_pushes(), bare.len());
        assert_eq!(plan.device_pushes(), bare.len());
        assert_eq!(plan.len(), bare.len() + 2);
        let ctx_x = vec![0.0; dim];
        let ctx = EvalCtx::dc(&ctx_x);

        let mut jac = Triplet::new(dim, dim);
        let mut res_t = vec![0.0; dim];
        let mut state_t = c.new_state();
        c.assemble_into(&ctx, &mut jac, &mut res_t, &mut state_t);
        for i in 0..2 {
            jac.push(i, i, 3.5);
        }
        let reference = jac.to_csr();

        let mut m = plan.new_matrix();
        let mut res_p = vec![0.0; dim];
        let mut state_p = c.new_state();
        plan.eval_into(&c, &ctx, &mut m, &mut res_p, &mut state_p, &mut |st| {
            for i in 0..2 {
                st.jac_raw(i, i, 3.5);
            }
        });
        assert!(reference.same_pattern(&m));
        for (a, b) in reference.values().iter().zip(m.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn verify_with_accepts_value_edits_rejects_topology_changes() {
        let mut c = diode_circuit();
        let plan = StampPlan::resolve(&c, &mut |_| {});
        let scratch = &mut DeclareScratch::default();
        assert!(plan.verify_with(&c, scratch));
        // Value-only edit: same structure.
        assert!(c.set_source_dc("V1", 4.9));
        assert!(plan.verify_with(&c, scratch));
        // Different topology: reject.
        let mut b = CircuitBuilder::new("other");
        let a = b.node("a");
        b.add(Vsource::new("V1", a, Node::GROUND, 1.0));
        b.add(Resistor::new("R1", a, Node::GROUND, 1.0));
        let other = b.build().unwrap();
        assert!(!plan.verify_with(&other, scratch));
    }

    #[test]
    fn bump_plan_matches_triplet_escalation() {
        let c = diode_circuit();
        let num_nodes = c.num_nodes();
        let x = vec![0.0; c.dim()];
        let ctx = EvalCtx::dc(&x);

        // Triplet path: assemble, then push two escalating shunt rounds.
        let mut jac = Triplet::new(c.dim(), c.dim());
        let mut res = vec![0.0; c.dim()];
        let mut state = c.new_state();
        c.assemble_into(&ctx, &mut jac, &mut res, &mut state);
        for i in 0..num_nodes {
            jac.push(i, i, 1e-7);
        }
        let ref_bump1 = jac.to_csr();
        for i in 0..num_nodes {
            jac.push(i, i, 1e-5);
        }
        let ref_bump2 = jac.to_csr();

        // Plan path: base eval, scatter into bumped pattern, add shunts.
        let plan = StampPlan::resolve(&c, &mut |_| {});
        let mut base = plan.new_matrix();
        let mut res_p = vec![0.0; c.dim()];
        let mut state_p = c.new_state();
        plan.eval_into(&c, &ctx, &mut base, &mut res_p, &mut state_p, &mut |_| {});
        let bump = plan.bump_plan(num_nodes);
        let mut work = bump.new_matrix();
        bump.scatter_base(&base, &mut work);
        bump.add_diag(&mut work, 1e-7);
        assert!(ref_bump1.same_pattern(&work));
        for (a, b) in ref_bump1.values().iter().zip(work.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        bump.add_diag(&mut work, 1e-5);
        for (a, b) in ref_bump2.values().iter().zip(work.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
