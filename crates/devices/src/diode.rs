//! Shockley junction diode.

use crate::limit::{junction_vcrit, landed, limexp, limexp_deriv, pnjlim};
use crate::{EvalCtx, JacSink, Node, Stamper, THERMAL_VOLTAGE};

/// Diode model parameters (`.model ... D(...)`).
#[derive(Debug, Clone, PartialEq)]
pub struct DiodeModel {
    /// Saturation current `IS` in amperes.
    pub is: f64,
    /// Emission coefficient `N` (ideality factor).
    pub n: f64,
    /// Ohmic series resistance `RS` (0 disables it; series resistance is
    /// folded into the conductance rather than adding an internal node).
    pub rs: f64,
    /// Reverse breakdown voltage `BV` in volts (0 disables breakdown;
    /// positive values give Zener-style conduction for `v < −BV`).
    pub bv: f64,
    /// Current at the breakdown knee `IBV` in amperes (SPICE default 1 mA),
    /// anchoring the exponential so the clamp sits close to `BV`.
    pub ibv: f64,
}

impl DiodeModel {
    /// Effective thermal voltage `n · vt`.
    pub fn nvt(&self) -> f64 {
        self.n * THERMAL_VOLTAGE
    }

    /// Critical junction voltage for `pnjlim`.
    pub fn vcrit(&self) -> f64 {
        junction_vcrit(self.nvt(), self.is)
    }
}

impl Default for DiodeModel {
    fn default() -> Self {
        Self {
            is: 1e-14,
            n: 1.0,
            rs: 0.0,
            bv: 0.0,
            ibv: 1e-3,
        }
    }
}

/// A p–n junction diode instance.
///
/// Evaluated with the overflow-safe exponential and SPICE `pnjlim`
/// junction-voltage limiting; the stamp is the standard Newton companion
/// model linearized at the *limited* junction voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct Diode {
    name: String,
    anode: Node,
    cathode: Node,
    model: DiodeModel,
    /// `model.vcrit()`, computed once at construction.
    vcrit: f64,
    /// `model.nvt()`, `is / nvt` and `ibv / nvt`, computed once at
    /// construction.
    nvt: f64,
    is_over_nvt: f64,
    ibv_over_nvt: f64,
}

impl Diode {
    /// Creates a diode from `anode` to `cathode` with the given model.
    pub fn new(name: impl Into<String>, anode: Node, cathode: Node, model: DiodeModel) -> Self {
        let vcrit = model.vcrit();
        let nvt = model.nvt();
        Self {
            name: name.into(),
            anode,
            cathode,
            vcrit,
            nvt,
            is_over_nvt: model.is / nvt,
            ibv_over_nvt: model.ibv / nvt,
            model,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Anode terminal.
    pub fn anode(&self) -> Node {
        self.anode
    }

    /// Cathode terminal.
    pub fn cathode(&self) -> Node {
        self.cathode
    }

    /// Model parameters.
    pub fn model(&self) -> &DiodeModel {
        &self.model
    }

    /// Evaluates the junction current and conductance at junction voltage
    /// `vd` (no limiting). Includes the reverse-breakdown branch when the
    /// model sets `BV > 0`.
    pub fn eval(&self, vd: f64, gmin: f64) -> (f64, f64) {
        let nvt = self.nvt;
        let arg = vd / nvt;
        let mut i = self.model.is * (limexp(arg) - 1.0) + gmin * vd;
        let mut g = self.is_over_nvt * limexp_deriv(arg) + gmin;
        if self.model.bv > 0.0 {
            // Zener branch anchored at the knee: i = −IBV·e^{−(v+BV)/nvt},
            // so the device carries IBV at exactly v = −BV.
            let zarg = -(vd + self.model.bv) / nvt;
            i -= self.model.ibv * limexp(zarg);
            g += self.ibv_over_nvt * limexp_deriv(zarg);
        }
        (i, g)
    }

    /// Junction voltage `v(anode) − v(cathode)` at `x`.
    fn junction_voltage(&self, x: &[f64]) -> f64 {
        self.anode.voltage(x) - self.cathode.voltage(x)
    }

    /// Limits `vd` against the last evaluated junction voltage in
    /// `state[0]` and stores the result there — the SPICE state-vector
    /// trick that keeps pnjlim stable across iterations.
    fn limit(&self, vd: f64, state: &mut [f64]) -> f64 {
        let (vlim, _) = pnjlim(vd, state[0], self.nvt, self.vcrit);
        state[0] = vlim;
        vlim
    }

    /// The limiter update of [`Diode::stamp`] alone: `state` ends exactly
    /// where a stamp at `x` leaves it, with no device evaluation. Returns
    /// whether the junction voltage [`landed`].
    pub(crate) fn limit_state(&self, x: &[f64], state: &mut [f64]) -> bool {
        let vd = self.junction_voltage(x);
        landed(vd, self.limit(vd, state))
    }

    pub(crate) fn stamp<S: JacSink>(
        &self,
        ctx: &EvalCtx<'_>,
        st: &mut Stamper<'_, S>,
        state: &mut [f64],
    ) {
        let vd = self.junction_voltage(ctx.x);
        let vlim = self.limit(vd, state);
        let (i0, g) = self.eval(vlim, ctx.gmin);
        // Linearize at the limited voltage: i(vd) ≈ i(vlim) + g·(vd − vlim).
        let i = i0 + g * (vd - vlim);
        // Fold series resistance into an effective conductance when present.
        let (g_eff, i_eff) = if self.model.rs > 0.0 {
            let ge = g / (1.0 + g * self.model.rs);
            (ge, i / (1.0 + g * self.model.rs))
        } else {
            (g, i)
        };
        st.conductance(self.anode, self.cathode, g_eff);
        st.current(self.anode, self.cathode, i_eff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpta_linalg::Triplet;

    fn diode() -> Diode {
        Diode::new("D1", Node::new(0), Node::GROUND, DiodeModel::default())
    }

    #[test]
    fn zero_bias_zero_current() {
        let (i, g) = diode().eval(0.0, 0.0);
        assert_eq!(i, 0.0);
        // Conductance at zero bias equals Is/vt.
        assert!((g - 1e-14 / THERMAL_VOLTAGE).abs() < 1e-15);
    }

    #[test]
    fn forward_bias_exponential() {
        let (i, _) = diode().eval(0.6, 0.0);
        let expect = 1e-14 * ((0.6f64 / THERMAL_VOLTAGE).exp() - 1.0);
        assert!((i - expect).abs() / expect < 1e-12);
        assert!(i > 1e-5, "0.6 V silicon diode conducts ~0.1 mA, got {i}");
    }

    #[test]
    fn reverse_bias_saturates() {
        let (i, _) = diode().eval(-5.0, 0.0);
        assert!((i + 1e-14).abs() < 1e-20, "reverse current ≈ −Is");
    }

    #[test]
    fn conductance_matches_finite_difference() {
        let d = diode();
        for vd in [-1.0, 0.0, 0.3, 0.6, 0.7] {
            let h = 1e-9;
            let (ip, _) = d.eval(vd + h, 0.0);
            let (im, _) = d.eval(vd - h, 0.0);
            let fd = (ip - im) / (2.0 * h);
            let (_, g) = d.eval(vd, 0.0);
            let denom = g.abs().max(1e-12);
            assert!((fd - g).abs() / denom < 1e-4, "vd={vd}: {fd} vs {g}");
        }
    }

    #[test]
    fn gmin_adds_linear_leak() {
        let (i, g) = diode().eval(-2.0, 1e-9);
        assert!((i - (-1e-14 - 2e-9)).abs() < 1e-15);
        assert!(g >= 1e-9);
    }

    #[test]
    fn huge_forward_voltage_is_finite() {
        let (i, g) = diode().eval(100.0, 0.0);
        assert!(i.is_finite() && g.is_finite());
    }

    #[test]
    fn stamp_is_symmetric_conductance() {
        let d = diode();
        let x = [0.5];
        let mut j = Triplet::new(1, 1);
        let mut r = vec![0.0; 1];
        let ctx = EvalCtx::dc(&x);
        let mut state = [0.5];
        d.stamp(&ctx, &mut Stamper::new(&mut j, &mut r), &mut state);
        let (i, g) = d.eval(0.5, EvalCtx::DEFAULT_GMIN);
        assert!((j.to_csr().get(0, 0) - g).abs() / g < 1e-12);
        assert!((r[0] - i).abs() / i.abs().max(1e-12) < 1e-9);
    }

    #[test]
    fn stamp_limits_overshoot_from_previous_evaluation() {
        // x jumps to 5 V while the last evaluated junction voltage was
        // 0.6 V: pnjlim must clamp the linearization point so the stamped
        // conductance stays finite and moderate.
        let d = diode();
        let x = [5.0];
        let mut j = Triplet::new(1, 1);
        let mut r = vec![0.0; 1];
        let ctx = EvalCtx::dc(&x);
        let mut state = [0.6];
        d.stamp(&ctx, &mut Stamper::new(&mut j, &mut r), &mut state);
        let g = j.to_csr().get(0, 0);
        assert!(g.is_finite());
        // Unlimited conductance at 5 V would be astronomically large.
        let (_, g_unlimited) = d.eval(5.0, 0.0);
        assert!(g < g_unlimited / 1e10, "g={g}, unlimited={g_unlimited}");
        // The state remembers the limited voltage, not the raw 5 V.
        assert!(
            state[0] < 1.2,
            "state kept at the limited value: {}",
            state[0]
        );
    }

    #[test]
    fn repeated_limiting_creeps_toward_the_junction_knee() {
        // Iterating the limiter from deep overshoot must walk the evaluated
        // voltage up slowly (vt·ln-sized steps), never jumping to the raw
        // overshoot voltage. (In a real Newton loop the node voltage
        // collapses long before the walk passes the knee.)
        let d = diode();
        let mut state = [0.0];
        let mut last = 0.0;
        for i in 0..10 {
            let x = [5.0];
            let mut j = Triplet::new(1, 1);
            let mut r = vec![0.0; 1];
            let ctx = EvalCtx::dc(&x);
            d.stamp(&ctx, &mut Stamper::new(&mut j, &mut r), &mut state);
            assert!(state[0].is_finite());
            assert!(state[0] >= last - 1e-12, "monotone walk");
            assert!(
                state[0] - last < 0.25,
                "iteration {i} jumped by {}",
                state[0] - last
            );
            last = state[0];
        }
        assert!(last < 1.6, "walk stays controlled, got {last}");
    }

    #[test]
    fn default_model_values() {
        let m = DiodeModel::default();
        assert_eq!(m.is, 1e-14);
        assert_eq!(m.n, 1.0);
        assert_eq!(m.bv, 0.0);
        assert!(m.vcrit() > 0.5);
    }

    #[test]
    fn zener_breakdown_conducts_in_reverse() {
        let z = Diode::new(
            "DZ",
            Node::new(0),
            Node::GROUND,
            DiodeModel {
                bv: 5.0,
                ..DiodeModel::default()
            },
        );
        // Below −BV the diode conducts strongly in reverse.
        let (i_past, g_past) = z.eval(-5.5, 0.0);
        assert!(i_past < -1e-2, "breakdown current {i_past}");
        assert!(g_past > 1e-6, "breakdown conductance {g_past}");
        // Between −BV and 0 it still blocks.
        let (i_block, _) = z.eval(-3.0, 0.0);
        assert!(i_block.abs() < 1e-9, "blocking current {i_block}");
    }

    #[test]
    fn zener_derivative_matches_finite_difference() {
        let z = Diode::new(
            "DZ",
            Node::new(0),
            Node::GROUND,
            DiodeModel {
                bv: 5.0,
                ..DiodeModel::default()
            },
        );
        for vd in [-6.0, -5.2, -4.0, 0.3] {
            let h = 1e-8;
            let fd = (z.eval(vd + h, 0.0).0 - z.eval(vd - h, 0.0).0) / (2.0 * h);
            let (_, g) = z.eval(vd, 0.0);
            assert!(
                (fd - g).abs() <= 1e-4 * g.abs().max(1e-12),
                "vd={vd}: {fd} vs {g}"
            );
        }
    }
}
