//! Independent and controlled sources.

use crate::{EvalCtx, JacSink, Node, Stamper};

/// Independent DC voltage source with a branch-current unknown.
///
/// The source value is multiplied by [`EvalCtx::source_scale`], which is how
/// source stepping ramps the circuit up from the trivial all-zero solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Vsource {
    name: String,
    pos: Node,
    neg: Node,
    dc: f64,
    branch: usize,
}

impl Vsource {
    /// Creates a DC voltage source of `dc` volts from `pos` to `neg`.
    pub fn new(name: impl Into<String>, pos: Node, neg: Node, dc: f64) -> Self {
        assert!(dc.is_finite(), "source voltage must be finite");
        Self {
            name: name.into(),
            pos,
            neg,
            dc,
            branch: usize::MAX,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Positive terminal.
    pub fn pos(&self) -> Node {
        self.pos
    }

    /// Negative terminal.
    pub fn neg(&self) -> Node {
        self.neg
    }

    /// DC value in volts.
    pub fn dc(&self) -> f64 {
        self.dc
    }

    /// Changes the DC value (used by DC sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `dc` is not finite.
    pub fn set_dc(&mut self, dc: f64) {
        assert!(dc.is_finite(), "source voltage must be finite");
        self.dc = dc;
    }

    /// Global branch-current unknown index.
    ///
    /// # Panics
    ///
    /// Panics if the branch has not been assigned yet.
    pub fn branch(&self) -> usize {
        assert_ne!(self.branch, usize::MAX, "vsource branch not assigned");
        self.branch
    }

    /// Assigns the global branch-current unknown index.
    pub fn set_branch(&mut self, branch: usize) {
        self.branch = branch;
    }

    pub(crate) fn stamp<S: JacSink>(&self, ctx: &EvalCtx<'_>, st: &mut Stamper<'_, S>) {
        let br = self.branch();
        let i = ctx.x[br];
        st.current(self.pos, self.neg, i);
        st.jac_node_branch(self.pos, br, 1.0);
        st.jac_node_branch(self.neg, br, -1.0);
        // Branch equation: v_pos − v_neg − λ·V = 0.
        st.res_branch(
            br,
            self.pos.voltage(ctx.x) - self.neg.voltage(ctx.x) - ctx.source_scale * self.dc,
        );
        st.jac_branch_node(br, self.pos, 1.0);
        st.jac_branch_node(br, self.neg, -1.0);
    }
}

/// Independent DC current source (current flows internally from `pos` to
/// `neg`, i.e. it *injects* into `neg`'s node and draws from `pos`'s KCL).
///
/// Scaled by [`EvalCtx::source_scale`] like [`Vsource`].
#[derive(Debug, Clone, PartialEq)]
pub struct Isource {
    name: String,
    pos: Node,
    neg: Node,
    dc: f64,
}

impl Isource {
    /// Creates a DC current source of `dc` amperes flowing from `pos` to
    /// `neg` through the source.
    pub fn new(name: impl Into<String>, pos: Node, neg: Node, dc: f64) -> Self {
        assert!(dc.is_finite(), "source current must be finite");
        Self {
            name: name.into(),
            pos,
            neg,
            dc,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Positive terminal.
    pub fn pos(&self) -> Node {
        self.pos
    }

    /// Negative terminal.
    pub fn neg(&self) -> Node {
        self.neg
    }

    /// DC value in amperes.
    pub fn dc(&self) -> f64 {
        self.dc
    }

    /// Changes the DC value (used by DC sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `dc` is not finite.
    pub fn set_dc(&mut self, dc: f64) {
        assert!(dc.is_finite(), "source current must be finite");
        self.dc = dc;
    }

    pub(crate) fn stamp<S: JacSink>(&self, ctx: &EvalCtx<'_>, st: &mut Stamper<'_, S>) {
        // SPICE convention: positive current flows from pos, through the
        // source, to neg — i.e. it leaves the pos node.
        st.current(self.pos, self.neg, ctx.source_scale * self.dc);
    }
}

/// Voltage-controlled voltage source (SPICE `E` element):
/// `v(out_p) − v(out_n) = gain · (v(ctl_p) − v(ctl_n))`.
#[derive(Debug, Clone, PartialEq)]
pub struct Vcvs {
    name: String,
    out_p: Node,
    out_n: Node,
    ctl_p: Node,
    ctl_n: Node,
    gain: f64,
    branch: usize,
}

impl Vcvs {
    /// Creates a VCVS with the given output and control node pairs.
    pub fn new(
        name: impl Into<String>,
        out_p: Node,
        out_n: Node,
        ctl_p: Node,
        ctl_n: Node,
        gain: f64,
    ) -> Self {
        assert!(gain.is_finite(), "gain must be finite");
        Self {
            name: name.into(),
            out_p,
            out_n,
            ctl_p,
            ctl_n,
            gain,
            branch: usize::MAX,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Voltage gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Global branch-current unknown index.
    ///
    /// # Panics
    ///
    /// Panics if the branch has not been assigned yet.
    pub fn branch(&self) -> usize {
        assert_ne!(self.branch, usize::MAX, "vcvs branch not assigned");
        self.branch
    }

    /// Assigns the global branch-current unknown index.
    pub fn set_branch(&mut self, branch: usize) {
        self.branch = branch;
    }

    pub(crate) fn stamp<S: JacSink>(&self, ctx: &EvalCtx<'_>, st: &mut Stamper<'_, S>) {
        let br = self.branch();
        let i = ctx.x[br];
        st.current(self.out_p, self.out_n, i);
        st.jac_node_branch(self.out_p, br, 1.0);
        st.jac_node_branch(self.out_n, br, -1.0);
        // Branch: v_out − gain · v_ctl = 0.
        let v_out = self.out_p.voltage(ctx.x) - self.out_n.voltage(ctx.x);
        let v_ctl = self.ctl_p.voltage(ctx.x) - self.ctl_n.voltage(ctx.x);
        st.res_branch(br, v_out - self.gain * v_ctl);
        st.jac_branch_node(br, self.out_p, 1.0);
        st.jac_branch_node(br, self.out_n, -1.0);
        st.jac_branch_node(br, self.ctl_p, -self.gain);
        st.jac_branch_node(br, self.ctl_n, self.gain);
    }
}

/// Voltage-controlled current source (SPICE `G` element): current
/// `gm · (v(ctl_p) − v(ctl_n))` flows from `out_p` to `out_n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Vccs {
    name: String,
    out_p: Node,
    out_n: Node,
    ctl_p: Node,
    ctl_n: Node,
    gm: f64,
}

impl Vccs {
    /// Creates a VCCS with transconductance `gm` (siemens).
    pub fn new(
        name: impl Into<String>,
        out_p: Node,
        out_n: Node,
        ctl_p: Node,
        ctl_n: Node,
        gm: f64,
    ) -> Self {
        assert!(gm.is_finite(), "transconductance must be finite");
        Self {
            name: name.into(),
            out_p,
            out_n,
            ctl_p,
            ctl_n,
            gm,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Transconductance in siemens.
    pub fn gm(&self) -> f64 {
        self.gm
    }

    pub(crate) fn stamp<S: JacSink>(&self, ctx: &EvalCtx<'_>, st: &mut Stamper<'_, S>) {
        let v_ctl = self.ctl_p.voltage(ctx.x) - self.ctl_n.voltage(ctx.x);
        st.current(self.out_p, self.out_n, self.gm * v_ctl);
        st.transconductance(self.out_p, self.out_n, self.ctl_p, self.ctl_n, self.gm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpta_linalg::Triplet;

    fn stamp<F: FnOnce(&EvalCtx<'_>, &mut Stamper<'_>)>(
        f: F,
        x: &[f64],
        scale: f64,
    ) -> (rlpta_linalg::CsrMatrix, Vec<f64>) {
        let n = x.len();
        let mut j = Triplet::new(n, n);
        let mut r = vec![0.0; n];
        let ctx = EvalCtx::dc(x).with_source_scale(scale);
        f(&ctx, &mut Stamper::new(&mut j, &mut r).erased());
        (j.to_csr(), r)
    }

    #[test]
    fn vsource_branch_equation() {
        let mut v = Vsource::new("V1", Node::new(0), Node::GROUND, 5.0);
        v.set_branch(1);
        // x = [v0, iV]; v0 = 3 → residual = 3 − 5 = −2.
        let (j, r) = stamp(|c, s| v.stamp(c, s), &[3.0, 0.1], 1.0);
        assert!((r[1] + 2.0).abs() < 1e-15);
        assert!((r[0] - 0.1).abs() < 1e-15);
        assert_eq!(j.get(0, 1), 1.0);
        assert_eq!(j.get(1, 0), 1.0);
    }

    #[test]
    fn vsource_respects_scale() {
        let mut v = Vsource::new("V1", Node::new(0), Node::GROUND, 10.0);
        v.set_branch(1);
        let (_, r) = stamp(|c, s| v.stamp(c, s), &[0.0, 0.0], 0.25);
        // residual = 0 − 0.25·10 = −2.5
        assert!((r[1] + 2.5).abs() < 1e-15);
    }

    #[test]
    fn isource_injects_current() {
        let i = Isource::new("I1", Node::new(0), Node::new(1), 2e-3);
        let (j, r) = stamp(|c, s| i.stamp(c, s), &[0.0, 0.0], 1.0);
        assert_eq!(j.nnz(), 0);
        assert!((r[0] - 2e-3).abs() < 1e-18);
        assert!((r[1] + 2e-3).abs() < 1e-18);
    }

    #[test]
    fn vcvs_constrains_output() {
        let mut e = Vcvs::new(
            "E1",
            Node::new(0),
            Node::GROUND,
            Node::new(1),
            Node::GROUND,
            4.0,
        );
        e.set_branch(2);
        // x = [vout, vctl, i]; vout = 8, vctl = 1 → residual = 8 − 4 = 4.
        let (j, r) = stamp(|c, s| e.stamp(c, s), &[8.0, 1.0, 0.0], 1.0);
        assert!((r[2] - 4.0).abs() < 1e-15);
        assert_eq!(j.get(2, 1), -4.0);
    }

    #[test]
    fn vccs_output_current() {
        let g = Vccs::new(
            "G1",
            Node::new(0),
            Node::GROUND,
            Node::new(1),
            Node::GROUND,
            1e-3,
        );
        let (j, r) = stamp(|c, s| g.stamp(c, s), &[0.0, 2.0], 1.0);
        assert!((r[0] - 2e-3).abs() < 1e-18);
        assert_eq!(j.get(0, 1), 1e-3);
    }

    #[test]
    fn getters() {
        let v = Vsource::new("V1", Node::new(0), Node::GROUND, 5.0);
        assert_eq!(v.name(), "V1");
        assert_eq!(v.dc(), 5.0);
        assert_eq!(v.pos(), Node::new(0));
        let i = Isource::new("I1", Node::GROUND, Node::new(0), 1.0);
        assert_eq!(i.neg(), Node::new(0));
        assert_eq!(i.dc(), 1.0);
    }
}
