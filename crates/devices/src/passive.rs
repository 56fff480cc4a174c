//! Passive two-terminal elements: resistor, capacitor, inductor.

use crate::{EvalCtx, JacSink, Node, Stamper};

/// A linear resistor.
///
/// Stamps the conductance `1/R` between its terminals and the corresponding
/// ohmic current into the KCL residual.
#[derive(Debug, Clone, PartialEq)]
pub struct Resistor {
    name: String,
    a: Node,
    b: Node,
    resistance: f64,
    /// `1 / resistance`, computed once at construction.
    conductance: f64,
}

impl Resistor {
    /// Creates a resistor of `resistance` ohms between nodes `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `resistance` is zero, negative, or non-finite.
    pub fn new(name: impl Into<String>, a: Node, b: Node, resistance: f64) -> Self {
        assert!(
            resistance.is_finite() && resistance > 0.0,
            "resistance must be positive and finite, got {resistance}"
        );
        Self {
            name: name.into(),
            a,
            b,
            resistance,
            conductance: 1.0 / resistance,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Positive terminal.
    pub fn node_a(&self) -> Node {
        self.a
    }

    /// Negative terminal.
    pub fn node_b(&self) -> Node {
        self.b
    }

    /// Resistance in ohms.
    pub fn resistance(&self) -> f64 {
        self.resistance
    }

    pub(crate) fn stamp<S: JacSink>(&self, ctx: &EvalCtx<'_>, st: &mut Stamper<'_, S>) {
        let g = self.conductance;
        st.conductance(self.a, self.b, g);
        let i = g * (self.a.voltage(ctx.x) - self.b.voltage(ctx.x));
        st.current(self.a, self.b, i);
    }
}

/// A linear capacitor — an **open circuit** in DC analysis.
///
/// The capacitance value is retained because the PTA engine reads it when it
/// inserts pseudo elements, and because circuit feature extraction counts
/// capacitors, but `stamp` contributes nothing to the DC system.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    name: String,
    a: Node,
    b: Node,
    capacitance: f64,
}

impl Capacitor {
    /// Creates a capacitor of `capacitance` farads between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance` is zero, negative, or non-finite.
    pub fn new(name: impl Into<String>, a: Node, b: Node, capacitance: f64) -> Self {
        assert!(
            capacitance.is_finite() && capacitance > 0.0,
            "capacitance must be positive and finite, got {capacitance}"
        );
        Self {
            name: name.into(),
            a,
            b,
            capacitance,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Positive terminal.
    pub fn node_a(&self) -> Node {
        self.a
    }

    /// Negative terminal.
    pub fn node_b(&self) -> Node {
        self.b
    }

    /// Capacitance in farads.
    pub fn capacitance(&self) -> f64 {
        self.capacitance
    }

    pub(crate) fn stamp<S: JacSink>(&self, _ctx: &EvalCtx<'_>, _st: &mut Stamper<'_, S>) {
        // DC: open circuit, no contribution.
    }
}

/// A linear inductor — a **short circuit** in DC analysis, modelled with a
/// branch-current unknown and the branch equation `v_a − v_b = 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Inductor {
    name: String,
    a: Node,
    b: Node,
    inductance: f64,
    branch: usize,
}

impl Inductor {
    /// Creates an inductor of `inductance` henries between `a` and `b`.
    ///
    /// The branch unknown index is assigned later by the MNA builder through
    /// [`Inductor::set_branch`].
    ///
    /// # Panics
    ///
    /// Panics if `inductance` is zero, negative, or non-finite.
    pub fn new(name: impl Into<String>, a: Node, b: Node, inductance: f64) -> Self {
        assert!(
            inductance.is_finite() && inductance > 0.0,
            "inductance must be positive and finite, got {inductance}"
        );
        Self {
            name: name.into(),
            a,
            b,
            inductance,
            branch: usize::MAX,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Positive terminal.
    pub fn node_a(&self) -> Node {
        self.a
    }

    /// Negative terminal.
    pub fn node_b(&self) -> Node {
        self.b
    }

    /// Inductance in henries.
    pub fn inductance(&self) -> f64 {
        self.inductance
    }

    /// Global index of the branch-current unknown.
    ///
    /// # Panics
    ///
    /// Panics if the branch has not been assigned yet.
    pub fn branch(&self) -> usize {
        assert_ne!(self.branch, usize::MAX, "inductor branch not assigned");
        self.branch
    }

    /// Assigns the global branch-current unknown index.
    pub fn set_branch(&mut self, branch: usize) {
        self.branch = branch;
    }

    pub(crate) fn stamp<S: JacSink>(&self, ctx: &EvalCtx<'_>, st: &mut Stamper<'_, S>) {
        let br = self.branch();
        let i = ctx.x[br];
        // KCL: branch current leaves a, enters b.
        st.current(self.a, self.b, i);
        st.jac_node_branch(self.a, br, 1.0);
        st.jac_node_branch(self.b, br, -1.0);
        // Branch equation: v_a − v_b = 0 (DC short).
        st.res_branch(br, self.a.voltage(ctx.x) - self.b.voltage(ctx.x));
        st.jac_branch_node(br, self.a, 1.0);
        st.jac_branch_node(br, self.b, -1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpta_linalg::Triplet;

    fn stamp_one(
        dev: impl FnOnce(&EvalCtx<'_>, &mut Stamper<'_>),
        x: &[f64],
        n: usize,
    ) -> (rlpta_linalg::CsrMatrix, Vec<f64>) {
        let mut j = Triplet::new(n, n);
        let mut r = vec![0.0; n];
        let ctx = EvalCtx::dc(x);
        dev(&ctx, &mut Stamper::new(&mut j, &mut r).erased());
        (j.to_csr(), r)
    }

    #[test]
    fn resistor_stamp_values() {
        let r = Resistor::new("R1", Node::new(0), Node::new(1), 100.0);
        let (j, res) = stamp_one(|c, s| r.stamp(c, s), &[1.0, 0.0], 2);
        assert!((j.get(0, 0) - 0.01).abs() < 1e-15);
        assert!((j.get(0, 1) + 0.01).abs() < 1e-15);
        // 10 mA leaves node 0, enters node 1.
        assert!((res[0] - 0.01).abs() < 1e-15);
        assert!((res[1] + 0.01).abs() < 1e-15);
    }

    #[test]
    fn resistor_to_ground() {
        let r = Resistor::new("R1", Node::new(0), Node::GROUND, 1e3);
        let (j, res) = stamp_one(|c, s| r.stamp(c, s), &[5.0], 1);
        assert!((j.get(0, 0) - 1e-3).abs() < 1e-18);
        assert!((res[0] - 5e-3).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn resistor_rejects_zero() {
        let _ = Resistor::new("R", Node::GROUND, Node::GROUND, 0.0);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let c = Capacitor::new("C1", Node::new(0), Node::GROUND, 1e-6);
        let (j, res) = stamp_one(|ctx, s| c.stamp(ctx, s), &[3.0], 1);
        assert_eq!(j.nnz(), 0);
        assert_eq!(res[0], 0.0);
        assert_eq!(c.capacitance(), 1e-6);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut l = Inductor::new("L1", Node::new(0), Node::new(1), 1e-3);
        l.set_branch(2);
        // x = [v0, v1, iL]
        let (j, res) = stamp_one(|c, s| l.stamp(c, s), &[2.0, 1.0, 0.25], 3);
        // Branch equation residual: v0 - v1 = 1.
        assert!((res[2] - 1.0).abs() < 1e-15);
        // KCL carries the branch current.
        assert!((res[0] - 0.25).abs() < 1e-15);
        assert!((res[1] + 0.25).abs() < 1e-15);
        assert_eq!(j.get(0, 2), 1.0);
        assert_eq!(j.get(2, 0), 1.0);
        assert_eq!(j.get(2, 1), -1.0);
    }

    #[test]
    #[should_panic(expected = "branch not assigned")]
    fn inductor_requires_branch_assignment() {
        let l = Inductor::new("L1", Node::new(0), Node::GROUND, 1e-3);
        let _ = l.branch();
    }
}
