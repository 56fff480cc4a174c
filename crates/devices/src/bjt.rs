//! Ebers–Moll bipolar junction transistor.

use crate::limit::{junction_vcrit, landed, limexp, limexp_deriv, pnjlim};
use crate::{EvalCtx, JacSink, Node, Stamper, THERMAL_VOLTAGE};

/// BJT polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BjtPolarity {
    /// NPN transistor.
    Npn,
    /// PNP transistor.
    Pnp,
}

impl BjtPolarity {
    /// `+1.0` for NPN, `−1.0` for PNP.
    pub fn sign(self) -> f64 {
        match self {
            BjtPolarity::Npn => 1.0,
            BjtPolarity::Pnp => -1.0,
        }
    }
}

/// BJT model parameters (`.model ... NPN(...)` / `PNP(...)`),
/// transport-form Ebers–Moll.
#[derive(Debug, Clone, PartialEq)]
pub struct BjtModel {
    /// Polarity (NPN/PNP).
    pub polarity: BjtPolarity,
    /// Transport saturation current `IS` in amperes.
    pub is: f64,
    /// Forward current gain `BF`.
    pub bf: f64,
    /// Reverse current gain `BR`.
    pub br: f64,
}

impl BjtModel {
    /// NPN model with the given `IS`, `BF`, `BR`.
    pub fn npn(is: f64, bf: f64, br: f64) -> Self {
        Self {
            polarity: BjtPolarity::Npn,
            is,
            bf,
            br,
        }
    }

    /// PNP model with the given `IS`, `BF`, `BR`.
    pub fn pnp(is: f64, bf: f64, br: f64) -> Self {
        Self {
            polarity: BjtPolarity::Pnp,
            is,
            bf,
            br,
        }
    }

    /// Critical junction voltage for limiting.
    pub fn vcrit(&self) -> f64 {
        junction_vcrit(THERMAL_VOLTAGE, self.is)
    }
}

impl Default for BjtModel {
    fn default() -> Self {
        Self::npn(1e-16, 100.0, 1.0)
    }
}

/// Terminal currents and their junction-voltage derivatives at an operating
/// point, as returned by [`Bjt::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BjtOperatingPoint {
    /// Collector current (into the collector, polarity-adjusted).
    pub ic: f64,
    /// Base current (into the base).
    pub ib: f64,
    /// ∂ic/∂vbe.
    pub dic_dvbe: f64,
    /// ∂ic/∂vbc.
    pub dic_dvbc: f64,
    /// ∂ib/∂vbe.
    pub dib_dvbe: f64,
    /// ∂ib/∂vbc.
    pub dib_dvbc: f64,
}

/// An Ebers–Moll BJT instance (collector, base, emitter).
#[derive(Debug, Clone, PartialEq)]
pub struct Bjt {
    name: String,
    collector: Node,
    base: Node,
    emitter: Node,
    model: BjtModel,
    /// `model.vcrit()`, computed once at construction.
    vcrit: f64,
    /// `is / vt` and `1 + 1 / br`, computed once at construction.
    is_over_vt: f64,
    one_plus_inv_br: f64,
}

impl Bjt {
    /// Creates a BJT with terminals in SPICE order: collector, base, emitter.
    pub fn new(
        name: impl Into<String>,
        collector: Node,
        base: Node,
        emitter: Node,
        model: BjtModel,
    ) -> Self {
        let vcrit = model.vcrit();
        Self {
            name: name.into(),
            collector,
            base,
            emitter,
            vcrit,
            is_over_vt: model.is / THERMAL_VOLTAGE,
            one_plus_inv_br: 1.0 + 1.0 / model.br,
            model,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Collector terminal.
    pub fn collector(&self) -> Node {
        self.collector
    }

    /// Base terminal.
    pub fn base(&self) -> Node {
        self.base
    }

    /// Emitter terminal.
    pub fn emitter(&self) -> Node {
        self.emitter
    }

    /// Model parameters.
    pub fn model(&self) -> &BjtModel {
        &self.model
    }

    /// Evaluates terminal currents and derivatives at *polarity-adjusted*
    /// junction voltages `vbe`, `vbc` (i.e. already multiplied by the
    /// polarity sign), with junction shunt conductance `gmin`.
    pub fn eval(&self, vbe: f64, vbc: f64, gmin: f64) -> BjtOperatingPoint {
        let vt = THERMAL_VOLTAGE;
        let m = &self.model;
        let ebe = limexp(vbe / vt);
        let ebc = limexp(vbc / vt);
        let gbe = self.is_over_vt * limexp_deriv(vbe / vt);
        let gbc = self.is_over_vt * limexp_deriv(vbc / vt);
        let ibe = m.is * (ebe - 1.0);
        let ibc = m.is * (ebc - 1.0);

        // Transport model: icc = ibe − ibc; ic = icc − ibc/βr.
        let ic = ibe - ibc * self.one_plus_inv_br + gmin * (vbe - 2.0 * vbc);
        let ib = ibe / m.bf + ibc / m.br + gmin * (vbe + vbc);

        BjtOperatingPoint {
            ic,
            ib,
            dic_dvbe: gbe + gmin,
            dic_dvbc: -gbc * self.one_plus_inv_br - 2.0 * gmin,
            dib_dvbe: gbe / m.bf + gmin,
            dib_dvbc: gbc / m.br + gmin,
        }
    }

    /// Polarity-adjusted junction voltages `(vbe, vbc)` at `x`.
    fn junction_voltages(&self, x: &[f64]) -> (f64, f64) {
        let s = self.model.polarity.sign();
        let vb = self.base.voltage(x);
        let vc = self.collector.voltage(x);
        let ve = self.emitter.voltage(x);
        (s * (vb - ve), s * (vb - vc))
    }

    /// Limits both junction voltages against the last *evaluated* (limited)
    /// ones carried in `state` and stores the results there.
    fn limit(&self, vbe: f64, vbc: f64, state: &mut [f64]) -> (f64, f64) {
        let vt = THERMAL_VOLTAGE;
        let (vbe_l, _) = pnjlim(vbe, state[0], vt, self.vcrit);
        let (vbc_l, _) = pnjlim(vbc, state[1], vt, self.vcrit);
        state[0] = vbe_l;
        state[1] = vbc_l;
        (vbe_l, vbc_l)
    }

    /// The limiter update of [`Bjt::stamp`] alone: `state` ends exactly
    /// where a stamp at `x` leaves it, with no device evaluation. Returns
    /// whether both junction voltages [`landed`].
    pub(crate) fn limit_state(&self, x: &[f64], state: &mut [f64]) -> bool {
        let (vbe, vbc) = self.junction_voltages(x);
        let (vbe_l, vbc_l) = self.limit(vbe, vbc, state);
        landed(vbe, vbe_l) & landed(vbc, vbc_l)
    }

    pub(crate) fn stamp<S: JacSink>(
        &self,
        ctx: &EvalCtx<'_>,
        st: &mut Stamper<'_, S>,
        state: &mut [f64],
    ) {
        let s = self.model.polarity.sign();
        let (vbe, vbc) = self.junction_voltages(ctx.x);
        let (vbe_l, vbc_l) = self.limit(vbe, vbc, state);

        let op = self.eval(vbe_l, vbc_l, ctx.gmin);
        // First-order correction back to the unlimited voltages keeps the
        // Newton step consistent with the stamped Jacobian.
        let ic = op.ic + op.dic_dvbe * (vbe - vbe_l) + op.dic_dvbc * (vbc - vbc_l);
        let ib = op.ib + op.dib_dvbe * (vbe - vbe_l) + op.dib_dvbc * (vbc - vbc_l);
        let ie = -(ic + ib);

        // Polarity-adjust terminal currents.
        st.res_node(self.collector, s * ic);
        st.res_node(self.base, s * ib);
        st.res_node(self.emitter, s * ie);

        // Jacobian by chain rule. vbe = s(vb − ve), vbc = s(vb − vc) and the
        // outer s on the currents cancel: d(s·ic)/dvb = s²(∂ic/∂vbe + ∂ic/∂vbc).
        let (b, c, e) = (self.base, self.collector, self.emitter);
        // Collector row.
        st.jac_nodes(c, b, op.dic_dvbe + op.dic_dvbc);
        st.jac_nodes(c, e, -op.dic_dvbe);
        st.jac_nodes(c, c, -op.dic_dvbc);
        // Base row.
        st.jac_nodes(b, b, op.dib_dvbe + op.dib_dvbc);
        st.jac_nodes(b, e, -op.dib_dvbe);
        st.jac_nodes(b, c, -op.dib_dvbc);
        // Emitter row = −(collector + base rows).
        let die_dvbe = -(op.dic_dvbe + op.dib_dvbe);
        let die_dvbc = -(op.dic_dvbc + op.dib_dvbc);
        st.jac_nodes(e, b, die_dvbe + die_dvbc);
        st.jac_nodes(e, e, -die_dvbe);
        st.jac_nodes(e, c, -die_dvbc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn npn() -> Bjt {
        Bjt::new(
            "Q1",
            Node::new(0),
            Node::new(1),
            Node::new(2),
            BjtModel::default(),
        )
    }

    #[test]
    fn cutoff_currents_are_tiny() {
        let op = npn().eval(-1.0, -1.0, 0.0);
        assert!(op.ic.abs() < 1e-12);
        assert!(op.ib.abs() < 1e-12);
    }

    #[test]
    fn forward_active_gain() {
        // vbe = 0.65 V, vbc = −2 V: forward-active; ic/ib ≈ BF.
        let op = npn().eval(0.65, -2.0, 0.0);
        assert!(op.ic > 1e-6, "collector conducts, ic = {}", op.ic);
        let beta = op.ic / op.ib;
        assert!((beta - 100.0).abs() / 100.0 < 0.01, "β = {beta}");
    }

    #[test]
    fn saturation_both_junctions_forward() {
        let op = npn().eval(0.7, 0.5, 0.0);
        // In saturation ic is reduced relative to BF·ib.
        assert!(op.ic / op.ib < 100.0);
    }

    #[test]
    fn derivatives_match_finite_difference() {
        let q = npn();
        let h = 1e-8;
        for (vbe, vbc) in [(0.6, -1.0), (0.65, 0.3), (-0.5, -0.5), (0.7, 0.7)] {
            let op = q.eval(vbe, vbc, 0.0);
            let fic_vbe = (q.eval(vbe + h, vbc, 0.0).ic - q.eval(vbe - h, vbc, 0.0).ic) / (2.0 * h);
            let fic_vbc = (q.eval(vbe, vbc + h, 0.0).ic - q.eval(vbe, vbc - h, 0.0).ic) / (2.0 * h);
            let fib_vbe = (q.eval(vbe + h, vbc, 0.0).ib - q.eval(vbe - h, vbc, 0.0).ib) / (2.0 * h);
            let fib_vbc = (q.eval(vbe, vbc + h, 0.0).ib - q.eval(vbe, vbc - h, 0.0).ib) / (2.0 * h);
            let tol = |g: f64| g.abs().max(1e-9) * 1e-3;
            assert!(
                (fic_vbe - op.dic_dvbe).abs() < tol(op.dic_dvbe),
                "dic/dvbe at {vbe},{vbc}"
            );
            assert!(
                (fic_vbc - op.dic_dvbc).abs() < tol(op.dic_dvbc),
                "dic/dvbc at {vbe},{vbc}"
            );
            assert!(
                (fib_vbe - op.dib_dvbe).abs() < tol(op.dib_dvbe),
                "dib/dvbe at {vbe},{vbc}"
            );
            assert!(
                (fib_vbc - op.dib_dvbc).abs() < tol(op.dib_dvbc),
                "dib/dvbc at {vbe},{vbc}"
            );
        }
    }

    #[test]
    fn terminal_currents_sum_to_zero() {
        let op = npn().eval(0.62, -0.8, 1e-12);
        let ie = -(op.ic + op.ib);
        assert!((op.ic + op.ib + ie).abs() < 1e-18);
    }

    #[test]
    fn stamp_jacobian_rows_sum_to_zero() {
        // KCL: each Jacobian row of a floating 3-terminal device sums to 0
        // (shifting all node voltages equally changes nothing).
        use rlpta_linalg::Triplet;
        let q = npn();
        let x = [1.5, 0.7, 0.0];
        let mut j = Triplet::new(3, 3);
        let mut r = vec![0.0; 3];
        let ctx = EvalCtx::dc(&x);
        let mut state = [0.7, 0.7 - 1.5];
        q.stamp(&ctx, &mut Stamper::new(&mut j, &mut r), &mut state);
        let m = j.to_csr();
        for row in 0..3 {
            let sum: f64 = (0..3).map(|col| m.get(row, col)).sum();
            assert!(sum.abs() < 1e-9, "row {row} sums to {sum}");
        }
        // Currents also sum to zero.
        let total: f64 = r.iter().sum();
        assert!(total.abs() < 1e-12);
    }

    #[test]
    fn pnp_mirror_symmetry() {
        let pnp = Bjt::new(
            "Q2",
            Node::new(0),
            Node::new(1),
            Node::new(2),
            BjtModel::pnp(1e-16, 100.0, 1.0),
        );
        // PNP with VEB = 0.65 conducts like NPN with VBE = 0.65.
        let op = pnp.eval(0.65, -2.0, 0.0);
        let npn_op = npn().eval(0.65, -2.0, 0.0);
        assert!((op.ic - npn_op.ic).abs() < 1e-18);
    }

    #[test]
    fn polarity_sign() {
        assert_eq!(BjtPolarity::Npn.sign(), 1.0);
        assert_eq!(BjtPolarity::Pnp.sign(), -1.0);
    }
}
