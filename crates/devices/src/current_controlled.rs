//! Current-controlled sources (SPICE `F` and `H` elements).
//!
//! Both sense the branch current of a named voltage source (the classic
//! SPICE idiom — a 0 V source acts as an ammeter). The control branch index
//! is resolved by the MNA builder after branch assignment.

use crate::{EvalCtx, JacSink, Node, Stamper};

/// Current-controlled current source (SPICE `F` element): current
/// `gain · i(V_ctrl)` flows from `out_p` to `out_n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cccs {
    name: String,
    out_p: Node,
    out_n: Node,
    /// Name of the controlling voltage source.
    ctrl_source: String,
    gain: f64,
    ctrl_branch: usize,
}

impl Cccs {
    /// Creates a CCCS controlled by the branch current of `ctrl_source`.
    pub fn new(
        name: impl Into<String>,
        out_p: Node,
        out_n: Node,
        ctrl_source: impl Into<String>,
        gain: f64,
    ) -> Self {
        assert!(gain.is_finite(), "gain must be finite");
        Self {
            name: name.into(),
            out_p,
            out_n,
            ctrl_source: ctrl_source.into(),
            gain,
            ctrl_branch: usize::MAX,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Name of the controlling voltage source.
    pub fn ctrl_source(&self) -> &str {
        &self.ctrl_source
    }

    /// Current gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Positive output terminal.
    pub fn out_p(&self) -> Node {
        self.out_p
    }

    /// Negative output terminal.
    pub fn out_n(&self) -> Node {
        self.out_n
    }

    /// Resolves the controlling source's branch-current unknown.
    pub fn set_ctrl_branch(&mut self, branch: usize) {
        self.ctrl_branch = branch;
    }

    /// The resolved control branch.
    ///
    /// # Panics
    ///
    /// Panics if the control branch has not been resolved yet.
    pub fn ctrl_branch(&self) -> usize {
        assert_ne!(
            self.ctrl_branch,
            usize::MAX,
            "cccs control branch not resolved"
        );
        self.ctrl_branch
    }

    pub(crate) fn stamp<S: JacSink>(&self, ctx: &EvalCtx<'_>, st: &mut Stamper<'_, S>) {
        let br = self.ctrl_branch();
        let i = self.gain * ctx.x[br];
        st.current(self.out_p, self.out_n, i);
        st.jac_node_branch(self.out_p, br, self.gain);
        st.jac_node_branch(self.out_n, br, -self.gain);
    }
}

/// Current-controlled voltage source (SPICE `H` element):
/// `v(out_p) − v(out_n) = r · i(V_ctrl)`, with its own branch current.
#[derive(Debug, Clone, PartialEq)]
pub struct Ccvs {
    name: String,
    out_p: Node,
    out_n: Node,
    ctrl_source: String,
    /// Transresistance in ohms.
    r: f64,
    branch: usize,
    ctrl_branch: usize,
}

impl Ccvs {
    /// Creates a CCVS with transresistance `r` controlled by the branch
    /// current of `ctrl_source`.
    pub fn new(
        name: impl Into<String>,
        out_p: Node,
        out_n: Node,
        ctrl_source: impl Into<String>,
        r: f64,
    ) -> Self {
        assert!(r.is_finite(), "transresistance must be finite");
        Self {
            name: name.into(),
            out_p,
            out_n,
            ctrl_source: ctrl_source.into(),
            r,
            branch: usize::MAX,
            ctrl_branch: usize::MAX,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Name of the controlling voltage source.
    pub fn ctrl_source(&self) -> &str {
        &self.ctrl_source
    }

    /// Transresistance in ohms.
    pub fn transresistance(&self) -> f64 {
        self.r
    }

    /// Assigns this element's own branch-current unknown.
    pub fn set_branch(&mut self, branch: usize) {
        self.branch = branch;
    }

    /// This element's own branch unknown.
    ///
    /// # Panics
    ///
    /// Panics if the branch has not been assigned.
    pub fn branch(&self) -> usize {
        assert_ne!(self.branch, usize::MAX, "ccvs branch not assigned");
        self.branch
    }

    /// Resolves the controlling source's branch-current unknown.
    pub fn set_ctrl_branch(&mut self, branch: usize) {
        self.ctrl_branch = branch;
    }

    /// The resolved control branch.
    ///
    /// # Panics
    ///
    /// Panics if the control branch has not been resolved yet.
    pub fn ctrl_branch(&self) -> usize {
        assert_ne!(
            self.ctrl_branch,
            usize::MAX,
            "ccvs control branch not resolved"
        );
        self.ctrl_branch
    }

    pub(crate) fn stamp<S: JacSink>(&self, ctx: &EvalCtx<'_>, st: &mut Stamper<'_, S>) {
        let br = self.branch();
        let cbr = self.ctrl_branch();
        let i = ctx.x[br];
        st.current(self.out_p, self.out_n, i);
        st.jac_node_branch(self.out_p, br, 1.0);
        st.jac_node_branch(self.out_n, br, -1.0);
        // Branch: v_out − r · i_ctrl = 0.
        let v_out = self.out_p.voltage(ctx.x) - self.out_n.voltage(ctx.x);
        st.res_branch(br, v_out - self.r * ctx.x[cbr]);
        st.jac_branch_node(br, self.out_p, 1.0);
        st.jac_branch_node(br, self.out_n, -1.0);
        st.jac_branches(br, cbr, -self.r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpta_linalg::Triplet;

    fn stamp<F: FnOnce(&EvalCtx<'_>, &mut Stamper<'_>)>(
        f: F,
        x: &[f64],
    ) -> (rlpta_linalg::CsrMatrix, Vec<f64>) {
        let n = x.len();
        let mut j = Triplet::new(n, n);
        let mut r = vec![0.0; n];
        let ctx = EvalCtx::dc(x);
        f(&ctx, &mut Stamper::new(&mut j, &mut r).erased());
        (j.to_csr(), r)
    }

    #[test]
    fn cccs_mirrors_control_current() {
        let mut f = Cccs::new("F1", Node::new(0), Node::GROUND, "V1", 2.0);
        f.set_ctrl_branch(1);
        // x = [v_out, i_ctrl]; i_ctrl = 3 mA → output current 6 mA.
        let (j, r) = stamp(|c, s| f.stamp(c, s), &[0.0, 3e-3]);
        assert!((r[0] - 6e-3).abs() < 1e-15);
        assert_eq!(j.get(0, 1), 2.0);
    }

    #[test]
    fn ccvs_branch_equation() {
        let mut h = Ccvs::new("H1", Node::new(0), Node::GROUND, "V1", 1e3);
        h.set_branch(2);
        h.set_ctrl_branch(1);
        // x = [v_out, i_ctrl, i_h]; v_out = 5, i_ctrl = 2 mA → res = 5 − 2 = 3.
        let (j, r) = stamp(|c, s| h.stamp(c, s), &[5.0, 2e-3, 0.0]);
        assert!((r[2] - 3.0).abs() < 1e-12);
        assert_eq!(j.get(2, 1), -1e3);
        assert_eq!(j.get(0, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "control branch not resolved")]
    fn cccs_requires_resolution() {
        let f = Cccs::new("F1", Node::new(0), Node::GROUND, "V1", 2.0);
        let _ = f.ctrl_branch();
    }

    #[test]
    fn accessors() {
        let f = Cccs::new("F1", Node::new(0), Node::new(1), "Vx", -3.0);
        assert_eq!(f.name(), "F1");
        assert_eq!(f.ctrl_source(), "Vx");
        assert_eq!(f.gain(), -3.0);
        let h = Ccvs::new("H1", Node::new(0), Node::new(1), "Vy", 50.0);
        assert_eq!(h.transresistance(), 50.0);
        assert_eq!(h.ctrl_source(), "Vy");
    }
}
