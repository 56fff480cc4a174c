//! Evaluation context and MNA stamping interface.
//!
//! [`Stamper`] is the single funnel every device model stamps through. It
//! is generic over its [`JacSink`], the place Jacobian pushes land, so the
//! same ordered push sequence a model emits is compiled once per assembly
//! mode:
//!
//! * `&mut Triplet` ([`Stamper::new`]): raw COO pushes, the reference path
//!   (`Circuit::assemble_into`: the oracle plans are tested against, and
//!   AC analysis);
//! * [`Declare`] ([`Stamper::declare`]): the ground-filtered `(row, col)`
//!   targets in push order, the resolve half of a precompiled stamp plan
//!   (`StampPlan::resolve`, `verify_with`) and the pattern a structure key
//!   hashes. It keeps no values and no residual, so the device model
//!   evaluation is dead code in this instantiation and compiles away; only
//!   the limiter state updates run;
//! * [`SlotWriter`] ([`Stamper::scatter`]): values written straight into the
//!   nnz slots of a frozen CSR pattern, the write half
//!   (`StampPlan::eval_into`);
//! * [`Discard`] ([`Stamper::residual_only`]): Jacobian values dropped when
//!   only the residual is wanted (`Circuit::residual_into`).
//!
//! A caller runs its device loop on the concrete sink, so every push is a
//! direct call with no per-push dispatch, and a sink that keeps no residual
//! ([`JacSink::keeps_residual`]) turns every residual write into a no-op.
//! `Stamper<'_>` without a sink parameter is the type-erased form over
//! `&mut dyn JacSink`; solver
//! extra-stamp hooks take that one, and [`Stamper::erased`] hands a concrete
//! stamper's sink and residual to them. Because one body per device drives
//! every sink, the plan-based pipeline is bit-identical to triplet assembly
//! by construction — same stamps, same order, same per-slot summation — and
//! a residual-only pass computes exactly the triplet pass's residual.

use crate::Node;
use rlpta_linalg::{SlotWriter, Triplet};
use std::fmt;

/// Read-only context a device sees when it evaluates and stamps itself.
///
/// Holds the current Newton iterate and the two continuation knobs every
/// SPICE engine has: `gmin` (junction shunt conductance, swept by Gmin
/// stepping) and `source_scale` (independent-source ramp factor λ, swept by
/// source stepping). Junction-limiting history lives in the per-device
/// state slice passed to `stamp` separately.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Current Newton iterate `x`.
    pub x: &'a [f64],
    /// Minimum junction conductance added across every nonlinear junction.
    pub gmin: f64,
    /// Scale factor λ ∈ [0, 1] applied to independent sources.
    pub source_scale: f64,
}

impl<'a> EvalCtx<'a> {
    /// Default Gmin used outside of Gmin stepping.
    pub const DEFAULT_GMIN: f64 = 1e-12;

    /// Plain DC evaluation context: default gmin, full-strength sources.
    pub fn dc(x: &'a [f64]) -> Self {
        Self {
            x,
            gmin: Self::DEFAULT_GMIN,
            source_scale: 1.0,
        }
    }

    /// Returns a copy with a different `gmin` (Gmin stepping).
    #[must_use]
    pub fn with_gmin(mut self, gmin: f64) -> Self {
        self.gmin = gmin;
        self
    }

    /// Returns a copy with a different source scale (source stepping).
    #[must_use]
    pub fn with_source_scale(mut self, scale: f64) -> Self {
        self.source_scale = scale;
        self
    }
}

/// Where a [`Stamper`]'s Jacobian pushes land — one implementation per
/// assembly mode (see the module docs for which caller uses which).
pub trait JacSink: fmt::Debug {
    /// Takes one resolved (never-ground) Jacobian entry.
    fn push(&mut self, row: usize, col: usize, v: f64);

    /// Whether device stamps through this sink consume fault-injection
    /// draws (under the `faults` feature). Only the declare sink does not:
    /// a plan resolve happens once per structure, and drawing from the
    /// seeded NaN stream there would desynchronize every later evaluation
    /// from the triplet reference path.
    #[inline]
    fn draws_faults(&self) -> bool {
        true
    }

    /// Whether device stamps through this sink accumulate the residual.
    /// Only the declare sink does not: its pass keeps no value, so with
    /// residual writes and pushed values both dropped, the compiler
    /// removes the model evaluation from that sink's device loop. A type
    /// question, not a method, so each instantiation folds it to a
    /// constant; the type-erased stamper always keeps its residual.
    #[inline]
    fn keeps_residual() -> bool
    where
        Self: Sized,
    {
        true
    }
}

/// Reference path: raw COO pushes, duplicates summed in `to_csr`.
impl JacSink for Triplet {
    #[inline]
    fn push(&mut self, row: usize, col: usize, v: f64) {
        Triplet::push(self, row, col, v);
    }
}

/// The structural declare sink ([`Stamper::declare`]): records the
/// `(row, col)` target of every push in order. Values are ignored, no
/// residual is kept and no fault draws are consumed.
#[derive(Debug)]
pub struct Declare<'a>(&'a mut Vec<(usize, usize)>);

impl JacSink for Declare<'_> {
    #[inline]
    fn push(&mut self, row: usize, col: usize, _v: f64) {
        self.0.push((row, col));
    }

    #[inline]
    fn draws_faults(&self) -> bool {
        false
    }

    #[inline]
    fn keeps_residual() -> bool {
        false
    }
}

/// Numeric write pass: values stream through a precompiled slot table into
/// a frozen CSR pattern.
impl JacSink for SlotWriter<'_> {
    #[inline]
    fn push(&mut self, _row: usize, _col: usize, v: f64) {
        self.write(v);
    }
}

/// The residual-only sink: Jacobian values are dropped, fault draws are
/// consumed as in triplet mode.
#[derive(Debug, Clone, Copy)]
pub struct Discard;

impl JacSink for Discard {
    #[inline]
    fn push(&mut self, _row: usize, _col: usize, _v: f64) {}
}

impl<S: JacSink + ?Sized> JacSink for &mut S {
    #[inline]
    fn push(&mut self, row: usize, col: usize, v: f64) {
        (**self).push(row, col, v);
    }

    #[inline]
    fn draws_faults(&self) -> bool {
        (**self).draws_faults()
    }
}

/// Accumulates device contributions into the Newton system `J·Δx = −F`,
/// routing Jacobian entries to the sink `S`.
///
/// Rows/columns belonging to the ground node are dropped, implementing the
/// usual MNA ground elimination. `Stamper<'_>` is the type-erased form the
/// solvers' extra-stamp hooks take.
#[derive(Debug)]
pub struct Stamper<'a, S: JacSink = &'a mut dyn JacSink> {
    sink: S,
    residual: &'a mut [f64],
}

impl<'a> Stamper<'a, &'a mut Triplet> {
    /// Wraps a Jacobian triplet builder and a residual vector — the
    /// reference assembly mode.
    ///
    /// # Panics
    ///
    /// Panics if the Jacobian is not square or its dimension differs from the
    /// residual length.
    pub fn new(jacobian: &'a mut Triplet, residual: &'a mut [f64]) -> Self {
        assert_eq!(jacobian.rows(), jacobian.cols(), "jacobian must be square");
        assert_eq!(
            jacobian.rows(),
            residual.len(),
            "jacobian/residual mismatch"
        );
        Self {
            sink: jacobian,
            residual,
        }
    }
}

impl<'a> Stamper<'a, Declare<'a>> {
    /// Structural resolve mode: every Jacobian push appends its
    /// ground-filtered `(row, col)` target to `targets` in push order.
    /// Devices compute no values: the pushed ones are dropped and device
    /// residual writes are no-ops, so only the limiter state updates of a
    /// stamp run. `residual` is scratch of the system dimension that only
    /// the type-erased extra-stamp hooks ([`Stamper::erased`]) write into;
    /// nothing reads it, so its contents are arbitrary.
    ///
    /// This mode consumes **no** fault-injection draws — a resolve pass
    /// must not shift the seeded NaN sequence of subsequent evaluations.
    pub fn declare(targets: &'a mut Vec<(usize, usize)>, residual: &'a mut [f64]) -> Self {
        Self {
            sink: Declare(targets),
            residual,
        }
    }
}

impl<'a> Stamper<'a, SlotWriter<'a>> {
    /// Numeric write mode: Jacobian pushes stream through `writer`'s slot
    /// table into the frozen pattern it was built over. Push count and
    /// order must match the declare pass that resolved the plan.
    pub fn scatter(writer: SlotWriter<'a>, residual: &'a mut [f64]) -> Self {
        Self {
            sink: writer,
            residual,
        }
    }

    /// Ends a scatter pass: checks the full declared sequence was written
    /// and returns whether every raw stamp was finite (triplet finiteness
    /// is checked via `Triplet::all_finite`).
    ///
    /// # Panics
    ///
    /// Panics when fewer pushes arrived than the plan declared (structure
    /// drift since resolve).
    pub fn finish(self) -> bool {
        self.sink.finish()
    }
}

impl<'a> Stamper<'a, Discard> {
    /// Residual-only mode: devices evaluate and accumulate `F(x)` into
    /// `residual` as in every other mode, and Jacobian pushes are dropped.
    /// Fault-injection draws are consumed exactly as in triplet mode, so a
    /// residual-only pass keeps the seeded NaN sequence of later
    /// evaluations where a triplet pass would have left it.
    pub fn residual_only(residual: &'a mut [f64]) -> Self {
        Self {
            sink: Discard,
            residual,
        }
    }
}

impl<S: JacSink> Stamper<'_, S> {
    /// The type-erased stamper over this one's sink and residual, for
    /// hooks that take `&mut Stamper<'_>` (the solvers' extra stamps). Its
    /// pushes continue this stamper's sequence.
    pub fn erased(&mut self) -> Stamper<'_> {
        Stamper {
            sink: &mut self.sink,
            residual: &mut *self.residual,
        }
    }

    /// Dimension of the assembled system.
    pub fn dim(&self) -> usize {
        self.residual.len()
    }

    /// Adds `g` to the Jacobian between two node unknowns (either may be
    /// ground, in which case the contribution is dropped).
    #[inline]
    pub fn jac_nodes(&mut self, row: Node, col: Node, g: f64) {
        if let (Some(r), Some(c)) = (row.index(), col.index()) {
            // Injected fault: a seeded fraction of stamps is poisoned with
            // NaN, standing in for a device model evaluated out of range.
            // Short-circuit keeps declare passes from consuming draws.
            #[cfg(feature = "faults")]
            let g = if self.sink.draws_faults() && crate::faults::fire_nan() {
                f64::NAN
            } else {
                g
            };
            self.sink.push(r, c, g);
        }
    }

    /// Adds the classic two-terminal conductance stamp
    /// (`+g` on the diagonals, `−g` on the off-diagonals).
    #[inline]
    pub fn conductance(&mut self, a: Node, b: Node, g: f64) {
        self.jac_nodes(a, a, g);
        self.jac_nodes(b, b, g);
        self.jac_nodes(a, b, -g);
        self.jac_nodes(b, a, -g);
    }

    /// Adds a transconductance stamp: current `gm·(v_cp − v_cn)` flowing from
    /// `out_p` to `out_n`.
    #[inline]
    pub fn transconductance(&mut self, out_p: Node, out_n: Node, cp: Node, cn: Node, gm: f64) {
        self.jac_nodes(out_p, cp, gm);
        self.jac_nodes(out_p, cn, -gm);
        self.jac_nodes(out_n, cp, -gm);
        self.jac_nodes(out_n, cn, gm);
    }

    /// Adds to the Jacobian at `(node row, branch col)`.
    #[inline]
    pub fn jac_node_branch(&mut self, row: Node, branch: usize, v: f64) {
        if let Some(r) = row.index() {
            self.sink.push(r, branch, v);
        }
    }

    /// Adds to the Jacobian at `(branch row, node col)`.
    #[inline]
    pub fn jac_branch_node(&mut self, branch: usize, col: Node, v: f64) {
        if let Some(c) = col.index() {
            self.sink.push(branch, c, v);
        }
    }

    /// Adds to the Jacobian at `(branch row, branch col)`.
    #[inline]
    pub fn jac_branches(&mut self, row: usize, col: usize, v: f64) {
        self.sink.push(row, col, v);
    }

    /// Adds to the Jacobian at raw, already-resolved matrix indices — no
    /// ground filtering, no fault injection. Solver-level extra stamps
    /// (PTA pseudo-elements, transient companions, Gmin shunts) use this:
    /// their indices come from the solver, not from device netlists.
    #[inline]
    pub fn jac_raw(&mut self, row: usize, col: usize, v: f64) {
        self.sink.push(row, col, v);
    }

    /// Adds to the residual at a raw, already-resolved index.
    #[inline]
    pub fn res_raw(&mut self, index: usize, v: f64) {
        if S::keeps_residual() {
            self.residual[index] += v;
        }
    }

    /// Adds `i` to the KCL residual of `node` (current *leaving* the node is
    /// positive). Ground contributions are dropped.
    #[inline]
    pub fn res_node(&mut self, node: Node, i: f64) {
        if !S::keeps_residual() {
            return;
        }
        if let Some(r) = node.index() {
            self.residual[r] += i;
        }
    }

    /// Adds current `i` flowing from `a` to `b` into both KCL residuals.
    #[inline]
    pub fn current(&mut self, a: Node, b: Node, i: f64) {
        self.res_node(a, i);
        self.res_node(b, -i);
    }

    /// Adds `v` to a branch-equation residual.
    #[inline]
    pub fn res_branch(&mut self, branch: usize, v: f64) {
        if S::keeps_residual() {
            self.residual[branch] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_stamper<F: FnOnce(&mut Stamper<'_>)>(n: usize, f: F) -> (Triplet, Vec<f64>) {
        let mut j = Triplet::new(n, n);
        let mut r = vec![0.0; n];
        f(&mut Stamper::new(&mut j, &mut r).erased());
        (j, r)
    }

    #[test]
    fn conductance_stamp_pattern() {
        let (j, _) = with_stamper(2, |s| s.conductance(Node::new(0), Node::new(1), 2.0));
        let m = j.to_csr();
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 1), 2.0);
        assert_eq!(m.get(0, 1), -2.0);
        assert_eq!(m.get(1, 0), -2.0);
    }

    #[test]
    fn ground_contributions_are_dropped() {
        let (j, r) = with_stamper(1, |s| {
            s.conductance(Node::new(0), Node::GROUND, 3.0);
            s.current(Node::new(0), Node::GROUND, 0.5);
        });
        let m = j.to_csr();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1);
        assert_eq!(r[0], 0.5);
    }

    #[test]
    fn transconductance_pattern() {
        let (j, _) = with_stamper(4, |s| {
            s.transconductance(Node::new(0), Node::new(1), Node::new(2), Node::new(3), 1.5)
        });
        let m = j.to_csr();
        assert_eq!(m.get(0, 2), 1.5);
        assert_eq!(m.get(0, 3), -1.5);
        assert_eq!(m.get(1, 2), -1.5);
        assert_eq!(m.get(1, 3), 1.5);
    }

    #[test]
    fn branch_stamps() {
        let (j, r) = with_stamper(3, |s| {
            s.jac_node_branch(Node::new(0), 2, 1.0);
            s.jac_branch_node(2, Node::new(0), -1.0);
            s.jac_branches(2, 2, 0.25);
            s.res_branch(2, 5.0);
        });
        let m = j.to_csr();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(2, 0), -1.0);
        assert_eq!(m.get(2, 2), 0.25);
        assert_eq!(r[2], 5.0);
    }

    #[test]
    #[should_panic(expected = "jacobian/residual mismatch")]
    fn stamper_validates_dimensions() {
        let mut j = Triplet::new(2, 2);
        let mut r = vec![0.0; 3];
        let _ = Stamper::new(&mut j, &mut r);
    }

    #[test]
    fn eval_ctx_builders() {
        let x = [0.0];
        let ctx = EvalCtx::dc(&x).with_gmin(1e-6).with_source_scale(0.5);
        assert_eq!(ctx.gmin, 1e-6);
        assert_eq!(ctx.source_scale, 0.5);
    }
}
