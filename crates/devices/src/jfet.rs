//! Junction field-effect transistor (SPICE level-1 JFET, Shichman–Hodges).
//!
//! The channel follows the same square law as the level-1 MOSFET, but the
//! gate is a p–n junction: gate–source and gate–drain diodes conduct when
//! forward-biased, which both clamps the gate and makes the JFET a stiffer
//! Newton customer than an insulated-gate FET.

use crate::limit::{junction_vcrit, landed, limexp, limexp_deriv, pnjlim};
use crate::{EvalCtx, JacSink, Node, Stamper, THERMAL_VOLTAGE};

/// JFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JfetPolarity {
    /// N-channel (depletion, negative pinch-off).
    Njf,
    /// P-channel.
    Pjf,
}

impl JfetPolarity {
    /// `+1.0` for N-channel, `−1.0` for P-channel.
    pub fn sign(self) -> f64 {
        match self {
            JfetPolarity::Njf => 1.0,
            JfetPolarity::Pjf => -1.0,
        }
    }
}

/// Level-1 JFET model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct JfetModel {
    /// Polarity.
    pub polarity: JfetPolarity,
    /// Threshold (pinch-off) voltage `VTO`, typically negative (depletion).
    pub vto: f64,
    /// Transconductance parameter `BETA` in A/V².
    pub beta: f64,
    /// Channel-length modulation `LAMBDA` in 1/V.
    pub lambda: f64,
    /// Gate-junction saturation current `IS` in amperes.
    pub is: f64,
}

impl JfetModel {
    /// N-channel model with the given pinch-off voltage and beta.
    pub fn njf(vto: f64, beta: f64) -> Self {
        Self {
            polarity: JfetPolarity::Njf,
            vto,
            beta,
            lambda: 0.01,
            is: 1e-14,
        }
    }

    /// P-channel model with the given pinch-off voltage and beta.
    pub fn pjf(vto: f64, beta: f64) -> Self {
        Self {
            polarity: JfetPolarity::Pjf,
            ..Self::njf(vto, beta)
        }
    }
}

impl Default for JfetModel {
    fn default() -> Self {
        Self::njf(-2.0, 1e-4)
    }
}

/// Channel current and conductances at a JFET operating point (normalized
/// N-channel frame, `vds ≥ 0`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JfetOperatingPoint {
    /// Drain–source channel current.
    pub ids: f64,
    /// Gate transconductance ∂ids/∂vgs.
    pub gm: f64,
    /// Output conductance ∂ids/∂vds.
    pub gds: f64,
}

/// A three-terminal JFET (drain, gate, source).
#[derive(Debug, Clone, PartialEq)]
pub struct Jfet {
    name: String,
    drain: Node,
    gate: Node,
    source: Node,
    model: JfetModel,
    /// Gate-junction critical voltage for `pnjlim`, computed once at
    /// construction.
    vcrit: f64,
    /// The gate junctions' `is / vt`, computed once at construction.
    is_over_vt: f64,
}

/// Polarity-normalized terminal voltages at one iterate: the channel frame
/// (source and drain swapped when needed so `vds ≥ 0`) and the two gate
/// junctions.
struct JfetBias {
    vgs: f64,
    vds: f64,
    reversed: bool,
    /// Gate–source and gate–drain junction voltages (state slots 0 and 1).
    junctions: [f64; 2],
}

impl Jfet {
    /// Creates a JFET with terminals in SPICE order (D, G, S).
    pub fn new(
        name: impl Into<String>,
        drain: Node,
        gate: Node,
        source: Node,
        model: JfetModel,
    ) -> Self {
        Self {
            name: name.into(),
            drain,
            gate,
            source,
            vcrit: junction_vcrit(THERMAL_VOLTAGE, model.is),
            is_over_vt: model.is / THERMAL_VOLTAGE,
            model,
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Drain terminal.
    pub fn drain(&self) -> Node {
        self.drain
    }

    /// Gate terminal.
    pub fn gate(&self) -> Node {
        self.gate
    }

    /// Source terminal.
    pub fn source(&self) -> Node {
        self.source
    }

    /// Model parameters.
    pub fn model(&self) -> &JfetModel {
        &self.model
    }

    /// Evaluates the square-law channel in the normalized frame.
    pub fn eval_channel(&self, vgs: f64, vds: f64) -> JfetOperatingPoint {
        // A NaN iterate passes through to the solvers' non-finite guards.
        debug_assert!(
            vds >= 0.0 || vds.is_nan(),
            "normalized frame requires vds >= 0"
        );
        let m = &self.model;
        let vov = vgs - m.vto;
        if vov <= 0.0 {
            return JfetOperatingPoint::default();
        }
        let clm = 1.0 + m.lambda * vds;
        if vds < vov {
            let ids = m.beta * (2.0 * vov - vds) * vds * clm;
            JfetOperatingPoint {
                ids,
                gm: 2.0 * m.beta * vds * clm,
                gds: 2.0 * m.beta * (vov - vds) * clm + m.beta * (2.0 * vov - vds) * vds * m.lambda,
            }
        } else {
            let ids = m.beta * vov * vov * clm;
            JfetOperatingPoint {
                ids,
                gm: 2.0 * m.beta * vov * clm,
                gds: m.beta * vov * vov * m.lambda,
            }
        }
    }

    fn gate_junction(&self, v: f64, gmin: f64) -> (f64, f64) {
        let vt = THERMAL_VOLTAGE;
        let i = self.model.is * (limexp(v / vt) - 1.0) + gmin * v;
        let g = self.is_over_vt * limexp_deriv(v / vt) + gmin;
        (i, g)
    }

    /// Normalized bias at `x`.
    fn bias(&self, x: &[f64]) -> JfetBias {
        let s = self.model.polarity.sign();
        let vd = self.drain.voltage(x);
        let vg = self.gate.voltage(x);
        let vs = self.source.voltage(x);

        let vgs_raw = s * (vg - vs);
        let vds_raw = s * (vd - vs);
        let reversed = vds_raw < 0.0;
        let (vgs, vds) = if reversed {
            (vgs_raw - vds_raw, -vds_raw)
        } else {
            (vgs_raw, vds_raw)
        };
        JfetBias {
            vgs,
            vds,
            reversed,
            junctions: [s * (vg - vs), s * (vg - vd)],
        }
    }

    /// Limits both gate junctions (`pnjlim`) against the last evaluated
    /// (limited) values carried in `state` and stores the results there.
    fn limit(&self, bias: &JfetBias, state: &mut [f64]) -> [f64; 2] {
        let mut junctions_l = [0.0; 2];
        for (k, &v) in bias.junctions.iter().enumerate() {
            let (v_l, _) = pnjlim(v, state[k], THERMAL_VOLTAGE, self.vcrit);
            state[k] = v_l;
            junctions_l[k] = v_l;
        }
        junctions_l
    }

    /// The limiter update of [`Jfet::stamp`] alone: `state` ends exactly
    /// where a stamp at `x` leaves it, with no device evaluation. Returns
    /// whether both gate-junction voltages [`landed`].
    pub(crate) fn limit_state(&self, x: &[f64], state: &mut [f64]) -> bool {
        let bias = self.bias(x);
        let junctions_l = self.limit(&bias, state);
        landed(bias.junctions[0], junctions_l[0]) & landed(bias.junctions[1], junctions_l[1])
    }

    pub(crate) fn stamp<S: JacSink>(
        &self,
        ctx: &EvalCtx<'_>,
        st: &mut Stamper<'_, S>,
        state: &mut [f64],
    ) {
        let s = self.model.polarity.sign();
        let bias = self.bias(ctx.x);
        let reversed = bias.reversed;
        let junctions_l = self.limit(&bias, state);

        let op = self.eval_channel(bias.vgs, bias.vds);
        let (d_eff, s_eff) = if reversed {
            (self.source, self.drain)
        } else {
            (self.drain, self.source)
        };
        st.current(d_eff, s_eff, s * op.ids);
        // Fixed push targets in declared (drain, source) terms — the stamp
        // sequence must be operating-point independent so a precompiled
        // stamp plan can replay it; orientation only permutes the values.
        let g_sum = op.gm + op.gds;
        let [dg, dd, ds, sg, sd, ss] = if reversed {
            [-op.gm, g_sum, -op.gds, op.gm, -g_sum, op.gds]
        } else {
            [op.gm, op.gds, -g_sum, -op.gm, -op.gds, g_sum]
        };
        st.jac_nodes(self.drain, self.gate, dg);
        st.jac_nodes(self.drain, self.drain, dd);
        st.jac_nodes(self.drain, self.source, ds);
        st.jac_nodes(self.source, self.gate, sg);
        st.jac_nodes(self.source, self.drain, sd);
        st.jac_nodes(self.source, self.source, ss);

        // Gate junctions (gate→source and gate→drain for N-channel), with
        // stateful pnjlim like every junction in this engine.
        for ((other, v), v_l) in [self.source, self.drain]
            .into_iter()
            .zip(bias.junctions)
            .zip(junctions_l)
        {
            let (i0, g) = self.gate_junction(v_l, ctx.gmin);
            let i = i0 + g * (v - v_l);
            st.current(self.gate, other, s * i);
            st.conductance(self.gate, other, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpta_linalg::Triplet;

    fn njf() -> Jfet {
        Jfet::new(
            "J1",
            Node::new(0),
            Node::new(1),
            Node::new(2),
            JfetModel::default(),
        )
    }

    #[test]
    fn pinched_off_below_vto() {
        // vgs = −3 < vto = −2: no channel.
        let op = njf().eval_channel(-3.0, 2.0);
        assert_eq!(op.ids, 0.0);
    }

    #[test]
    fn idss_at_zero_gate_bias() {
        // vgs = 0: ids = β·vto²·(1+λvds) — the classic IDSS point.
        let op = njf().eval_channel(0.0, 10.0);
        let expect = 1e-4 * 4.0 * (1.0 + 0.01 * 10.0);
        assert!((op.ids - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn conductances_match_finite_difference() {
        let j = njf();
        let h = 1e-7;
        for (vgs, vds) in [(-1.0, 0.2), (-1.0, 4.0), (-0.2, 1.0)] {
            let op = j.eval_channel(vgs, vds);
            let gm_fd =
                (j.eval_channel(vgs + h, vds).ids - j.eval_channel(vgs - h, vds).ids) / (2.0 * h);
            let gds_fd =
                (j.eval_channel(vgs, vds + h).ids - j.eval_channel(vgs, vds - h).ids) / (2.0 * h);
            assert!(
                (gm_fd - op.gm).abs() < 1e-4 * op.gm.max(1e-9),
                "gm at {vgs},{vds}"
            );
            assert!(
                (gds_fd - op.gds).abs() < 1e-4 * op.gds.abs().max(1e-9),
                "gds at {vgs},{vds}"
            );
        }
    }

    #[test]
    fn current_continuous_at_pinchoff_boundary() {
        let j = njf();
        let vov = 1.5; // vgs − vto
        let below = j.eval_channel(-0.5, vov - 1e-9).ids;
        let above = j.eval_channel(-0.5, vov + 1e-9).ids;
        assert!((below - above).abs() / above < 1e-6);
    }

    #[test]
    fn stamp_conserves_charge() {
        let j = njf();
        let x = [5.0, -1.0, 0.0];
        let mut jac = Triplet::new(3, 3);
        let mut r = vec![0.0; 3];
        let ctx = EvalCtx::dc(&x);
        let mut state = [-1.0, -6.0];
        j.stamp(&ctx, &mut Stamper::new(&mut jac, &mut r), &mut state);
        let m = jac.to_csr();
        for row in 0..3 {
            let sum: f64 = (0..3).map(|c| m.get(row, c)).sum();
            assert!(sum.abs() < 1e-9, "row {row} sums to {sum}");
        }
        assert!(r.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn gate_junction_conducts_when_forward() {
        let j = njf();
        let (i, g) = j.gate_junction(0.7, 0.0);
        assert!(i > 1e-5);
        assert!(g > 1e-4);
    }

    #[test]
    fn pjf_polarity() {
        assert_eq!(JfetPolarity::Pjf.sign(), -1.0);
        let p = JfetModel::pjf(-1.5, 2e-4);
        assert_eq!(p.polarity, JfetPolarity::Pjf);
    }
}
