//! Shichman–Hodges (SPICE level-1) MOSFET.

use crate::limit::{
    fetlim, fetlim_lands_from_zero, junction_vcrit, landed, limexp, limexp_deriv, pnjlim,
    pnjlim_lands_from_zero,
};
use crate::{EvalCtx, JacSink, Node, Stamper, THERMAL_VOLTAGE};

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

impl MosPolarity {
    /// `+1.0` for NMOS, `−1.0` for PMOS.
    pub fn sign(self) -> f64 {
        match self {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        }
    }
}

/// Level-1 MOSFET model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Polarity (NMOS/PMOS).
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage `VTO` (positive for enhancement NMOS;
    /// stored magnitude-style, the polarity handles PMOS signs).
    pub vto: f64,
    /// Transconductance parameter `KP` in A/V².
    pub kp: f64,
    /// Channel-length modulation `LAMBDA` in 1/V.
    pub lambda: f64,
    /// Body-effect coefficient `GAMMA` in √V.
    pub gamma: f64,
    /// Surface potential `PHI` in volts.
    pub phi: f64,
    /// Bulk-junction saturation current `IS` in amperes.
    pub is: f64,
}

impl MosModel {
    /// NMOS model with the given threshold and transconductance.
    pub fn nmos(vto: f64, kp: f64) -> Self {
        Self {
            polarity: MosPolarity::Nmos,
            vto,
            kp,
            lambda: 0.01,
            gamma: 0.0,
            phi: 0.6,
            is: 1e-14,
        }
    }

    /// PMOS model with the given threshold magnitude and transconductance.
    pub fn pmos(vto: f64, kp: f64) -> Self {
        Self {
            polarity: MosPolarity::Pmos,
            ..Self::nmos(vto, kp)
        }
    }
}

impl Default for MosModel {
    fn default() -> Self {
        Self::nmos(1.0, 2e-5)
    }
}

/// Channel current and small-signal conductances at an operating point, as
/// returned by [`Mosfet::eval_channel`]. All quantities are in the
/// polarity-normalized frame (NMOS convention, `vds ≥ 0`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosOperatingPoint {
    /// Drain–source channel current.
    pub ids: f64,
    /// Gate transconductance ∂ids/∂vgs.
    pub gm: f64,
    /// Output conductance ∂ids/∂vds.
    pub gds: f64,
    /// Body transconductance ∂ids/∂vbs.
    pub gmbs: f64,
}

/// A four-terminal level-1 MOSFET (drain, gate, source, bulk).
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    name: String,
    drain: Node,
    gate: Node,
    source: Node,
    bulk: Node,
    model: MosModel,
    /// Width/length ratio multiplying `KP`.
    w_over_l: f64,
    /// Bulk-junction critical voltage for `pnjlim`, computed once at
    /// construction.
    vcrit: f64,
    /// `kp · w_over_l` and the bulk junctions' `is / vt`, computed once at
    /// construction.
    beta: f64,
    is_over_vt: f64,
}

/// Polarity-normalized terminal voltages at one iterate: the channel frame
/// (source and drain swapped when needed so `vds ≥ 0`) and the two bulk
/// junctions.
struct MosBias {
    vgs: f64,
    vds: f64,
    vbs: f64,
    reversed: bool,
    /// Bulk–drain and bulk–source junction voltages (state slots 1 and 2).
    junctions: [f64; 2],
}

impl Mosfet {
    /// Creates a MOSFET with terminals in SPICE order (D, G, S, B) and
    /// geometry ratio `w_over_l`.
    ///
    /// # Panics
    ///
    /// Panics if `w_over_l` is not positive and finite.
    pub fn new(
        name: impl Into<String>,
        drain: Node,
        gate: Node,
        source: Node,
        bulk: Node,
        model: MosModel,
        w_over_l: f64,
    ) -> Self {
        assert!(
            w_over_l.is_finite() && w_over_l > 0.0,
            "W/L must be positive and finite, got {w_over_l}"
        );
        Self {
            name: name.into(),
            drain,
            gate,
            source,
            bulk,
            vcrit: junction_vcrit(THERMAL_VOLTAGE, model.is),
            beta: model.kp * w_over_l,
            is_over_vt: model.is / THERMAL_VOLTAGE,
            model,
            w_over_l,
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

    /// Bulk terminal.
    pub fn bulk(&self) -> Node {
        self.bulk
    }

    /// Model parameters.
    pub fn model(&self) -> &MosModel {
        &self.model
    }

    /// Geometry ratio W/L.
    pub fn w_over_l(&self) -> f64 {
        self.w_over_l
    }

    /// Threshold voltage including body effect, in the normalized frame.
    pub fn vth(&self, vbs: f64) -> f64 {
        let m = &self.model;
        if m.gamma == 0.0 {
            return m.vto;
        }
        let sqrt_phi = m.phi.sqrt();
        // Clamp the argument: the square-root body-effect expression is only
        // valid for vbs < phi.
        let arg = (m.phi - vbs).max(0.0);
        m.vto + m.gamma * (arg.sqrt() - sqrt_phi)
    }

    /// Evaluates the channel in the normalized (NMOS, `vds ≥ 0`) frame.
    pub fn eval_channel(&self, vgs: f64, vds: f64, vbs: f64) -> MosOperatingPoint {
        // A NaN iterate passes through to the solvers' non-finite guards.
        debug_assert!(
            vds >= 0.0 || vds.is_nan(),
            "normalized frame requires vds >= 0"
        );
        let m = &self.model;
        let beta = self.beta;
        let vth = self.vth(vbs);
        let vov = vgs - vth;
        if vov <= 0.0 {
            return MosOperatingPoint::default();
        }
        let clm = 1.0 + m.lambda * vds;
        let (ids, gm, gds) = if vds < vov {
            // Triode region.
            let ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
            let gm = beta * vds * clm;
            let gds = beta * (vov - vds) * clm + beta * (vov * vds - 0.5 * vds * vds) * m.lambda;
            (ids, gm, gds)
        } else {
            // Saturation.
            let ids = 0.5 * beta * vov * vov * clm;
            let gm = beta * vov * clm;
            let gds = 0.5 * beta * vov * vov * m.lambda;
            (ids, gm, gds)
        };
        // Body transconductance through dvth/dvbs.
        let gmbs = if m.gamma == 0.0 {
            0.0
        } else {
            let arg = (m.phi - vbs).max(1e-12);
            gm * m.gamma / (2.0 * arg.sqrt())
        };
        MosOperatingPoint { ids, gm, gds, gmbs }
    }

    /// Evaluates one bulk junction diode (current + conductance) at the
    /// polarity-normalized junction voltage `v` (bulk positive w.r.t.
    /// drain/source forward-biases it for NMOS).
    fn bulk_junction(&self, v: f64, gmin: f64) -> (f64, f64) {
        let vt = THERMAL_VOLTAGE;
        let i = self.model.is * (limexp(v / vt) - 1.0) + gmin * v;
        let g = self.is_over_vt * limexp_deriv(v / vt) + gmin;
        (i, g)
    }

    /// Normalized bias at `x`.
    fn bias(&self, x: &[f64]) -> MosBias {
        let s = self.model.polarity.sign();
        let vd = self.drain.voltage(x);
        let vg = self.gate.voltage(x);
        let vs = self.source.voltage(x);
        let vb = self.bulk.voltage(x);

        // Normalized terminal voltages.
        let vgs_raw = s * (vg - vs);
        let vds_raw = s * (vd - vs);
        let vbs_raw = s * (vb - vs);

        // Source/drain swap so the channel is always evaluated with vds >= 0.
        let reversed = vds_raw < 0.0;
        let (vgs, vds, vbs) = if reversed {
            (vgs_raw - vds_raw, -vds_raw, vbs_raw - vds_raw)
        } else {
            (vgs_raw, vds_raw, vbs_raw)
        };
        MosBias {
            vgs,
            vds,
            vbs,
            reversed,
            junctions: [s * (vb - vd), s * (vb - vs)],
        }
    }

    /// Limits the gate voltage (`fetlim`) and both bulk junctions
    /// (`pnjlim`) against the last evaluated (limited) values carried in
    /// `state` (slots: vgs, vbd, vbs) and stores the results there.
    fn limit(&self, bias: &MosBias, state: &mut [f64]) -> (f64, [f64; 2]) {
        let (vgs_l, _) = fetlim(bias.vgs, state[0], self.model.vto);
        state[0] = vgs_l;
        let mut junctions_l = [0.0; 2];
        for (k, &v) in bias.junctions.iter().enumerate() {
            let (v_l, _) = pnjlim(v, state[k + 1], THERMAL_VOLTAGE, self.vcrit);
            state[k + 1] = v_l;
            junctions_l[k] = v_l;
        }
        (vgs_l, junctions_l)
    }

    /// The limiter update of [`Mosfet::stamp`] alone: `state` ends exactly
    /// where a stamp at `x` leaves it, with no device evaluation. Returns
    /// whether the gate and both junction voltages [`landed`].
    pub(crate) fn limit_state(&self, x: &[f64], state: &mut [f64]) -> bool {
        let bias = self.bias(x);
        let (vgs_l, junctions_l) = self.limit(&bias, state);
        landed(bias.vgs, vgs_l)
            & landed(bias.junctions[0], junctions_l[0])
            & landed(bias.junctions[1], junctions_l[1])
    }

    /// Whether the seeding walk from a zeroed state lands on the gate and
    /// both junction voltages at `x` (see
    /// [`Device::seeding_lands`](crate::Device::seeding_lands)).
    pub(crate) fn seeding_lands(&self, x: &[f64]) -> bool {
        let bias = self.bias(x);
        fetlim_lands_from_zero(bias.vgs, self.model.vto)
            && pnjlim_lands_from_zero(bias.junctions[0], THERMAL_VOLTAGE, self.vcrit)
            && pnjlim_lands_from_zero(bias.junctions[1], THERMAL_VOLTAGE, self.vcrit)
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
        let (vgs_l, junctions_l) = self.limit(&bias, state);

        let op = self.eval_channel(vgs_l, bias.vds, bias.vbs.min(self.model.phi - 1e-3));
        // Consistent first-order correction for the limited vgs.
        let ids = op.ids + op.gm * (bias.vgs - vgs_l);

        // Map back to the original orientation: in reversed mode the channel
        // current flows source→drain.
        let (d_eff, s_eff) = if reversed {
            (self.source, self.drain)
        } else {
            (self.drain, self.source)
        };

        // Channel current: from effective drain to effective source.
        st.current(d_eff, s_eff, s * ids);

        // Jacobian: i_deff = f(vgs, vds, vbs) in the normalized frame with
        // v* measured against the *effective* source. Chain rule over the
        // polarity sign cancels as with the BJT.
        //
        // The push *targets* are fixed in declared (drain, source) terms so
        // the stamp sequence is operating-point independent — a precompiled
        // stamp plan replays it blindly. Orientation only permutes the
        // values: the reversed case is the forward stamp with the roles of
        // the (d, ·) and (s, ·) rows and the d/s columns exchanged.
        let g_sum = op.gm + op.gds + op.gmbs;
        let [dg, dd, db, ds, sg, sd, sb, ss] = if reversed {
            [
                -op.gm, g_sum, -op.gmbs, -op.gds, op.gm, -g_sum, op.gmbs, op.gds,
            ]
        } else {
            [
                op.gm, op.gds, op.gmbs, -g_sum, -op.gm, -op.gds, -op.gmbs, g_sum,
            ]
        };
        // Row drain.
        st.jac_nodes(self.drain, self.gate, dg);
        st.jac_nodes(self.drain, self.drain, dd);
        st.jac_nodes(self.drain, self.bulk, db);
        st.jac_nodes(self.drain, self.source, ds);
        // Row source.
        st.jac_nodes(self.source, self.gate, sg);
        st.jac_nodes(self.source, self.drain, sd);
        st.jac_nodes(self.source, self.bulk, sb);
        st.jac_nodes(self.source, self.source, ss);

        // Bulk junction diodes (bulk→drain and bulk→source for NMOS),
        // normally reverse-biased; they keep the bulk node well connected.
        for ((other, v), v_l) in [self.drain, self.source]
            .into_iter()
            .zip(bias.junctions)
            .zip(junctions_l)
        {
            let (i0, g) = self.bulk_junction(v_l, ctx.gmin);
            let i = i0 + g * (v - v_l);
            st.current(self.bulk, other, s * i);
            st.conductance(self.bulk, other, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpta_linalg::Triplet;

    fn nmos() -> Mosfet {
        Mosfet::new(
            "M1",
            Node::new(0),
            Node::new(1),
            Node::new(2),
            Node::new(2),
            MosModel::nmos(1.0, 2e-5),
            10.0,
        )
    }

    #[test]
    fn cutoff_below_threshold() {
        let op = nmos().eval_channel(0.5, 2.0, 0.0);
        assert_eq!(op.ids, 0.0);
        assert_eq!(op.gm, 0.0);
    }

    #[test]
    fn saturation_square_law() {
        let m = nmos();
        let op = m.eval_channel(2.0, 5.0, 0.0);
        // ids = 0.5 · kp · W/L · vov² · (1 + λ·vds)
        let expect = 0.5 * 2e-5 * 10.0 * 1.0 * (1.0 + 0.01 * 5.0);
        assert!((op.ids - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn triode_region() {
        let m = nmos();
        let op = m.eval_channel(3.0, 0.5, 0.0);
        let expect = 2e-4 * (2.0 * 0.5 - 0.125) * (1.0 + 0.005);
        assert!((op.ids - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn current_is_continuous_at_pinchoff() {
        let m = nmos();
        let vov = 1.0;
        let below = m.eval_channel(1.0 + vov, vov - 1e-9, 0.0).ids;
        let above = m.eval_channel(1.0 + vov, vov + 1e-9, 0.0).ids;
        assert!((below - above).abs() / above < 1e-6);
    }

    #[test]
    fn conductances_match_finite_difference() {
        let m = nmos();
        let h = 1e-7;
        for (vgs, vds) in [(1.5, 0.2), (1.5, 3.0), (2.5, 1.0), (3.0, 0.1)] {
            let op = m.eval_channel(vgs, vds, 0.0);
            let gm_fd = (m.eval_channel(vgs + h, vds, 0.0).ids
                - m.eval_channel(vgs - h, vds, 0.0).ids)
                / (2.0 * h);
            let gds_fd = (m.eval_channel(vgs, vds + h, 0.0).ids
                - m.eval_channel(vgs, vds - h, 0.0).ids)
                / (2.0 * h);
            assert!(
                (gm_fd - op.gm).abs() < 1e-4 * op.gm.max(1e-9),
                "gm at {vgs},{vds}"
            );
            assert!(
                (gds_fd - op.gds).abs() < 1e-4 * op.gds.abs().max(1e-9),
                "gds at {vgs},{vds}: {gds_fd} vs {}",
                op.gds
            );
        }
    }

    #[test]
    fn body_effect_raises_threshold() {
        let mut model = MosModel::nmos(1.0, 2e-5);
        model.gamma = 0.5;
        let m = Mosfet::new(
            "M1",
            Node::new(0),
            Node::new(1),
            Node::new(2),
            Node::new(3),
            model,
            1.0,
        );
        assert!(m.vth(-2.0) > m.vth(0.0), "reverse body bias raises vth");
    }

    #[test]
    fn gmbs_matches_finite_difference() {
        let mut model = MosModel::nmos(1.0, 2e-5);
        model.gamma = 0.4;
        let m = Mosfet::new(
            "M1",
            Node::new(0),
            Node::new(1),
            Node::new(2),
            Node::new(3),
            model,
            5.0,
        );
        let (vgs, vds, vbs) = (2.0, 3.0, -1.0);
        let h = 1e-7;
        let fd = (m.eval_channel(vgs, vds, vbs + h).ids - m.eval_channel(vgs, vds, vbs - h).ids)
            / (2.0 * h);
        let op = m.eval_channel(vgs, vds, vbs);
        assert!(
            (fd - op.gmbs).abs() < 1e-4 * op.gmbs.max(1e-9),
            "{fd} vs {}",
            op.gmbs
        );
    }

    #[test]
    fn stamp_jacobian_rows_sum_to_zero() {
        let m = nmos();
        // x = [vd, vg, vs(=vb)]
        let x = [3.0, 2.0, 0.0];
        let mut j = Triplet::new(3, 3);
        let mut r = vec![0.0; 3];
        let ctx = EvalCtx::dc(&x);
        // Pre-seed the limiting state at the actual vgs so fetlim passes
        // the operating point through unchanged.
        let mut state = [2.0, -3.0, 0.0];
        m.stamp(&ctx, &mut Stamper::new(&mut j, &mut r), &mut state);
        let mat = j.to_csr();
        for row in 0..3 {
            let sum: f64 = (0..3).map(|c| mat.get(row, c)).sum();
            assert!(sum.abs() < 1e-9, "row {row} sums to {sum}");
        }
        let total: f64 = r.iter().sum();
        assert!(total.abs() < 1e-12, "currents sum to {total}");
    }

    #[test]
    fn reversed_operation_swaps_roles() {
        // vds < 0: source acts as drain. Current must flow the other way.
        let m = nmos();
        let x_fwd = [3.0, 2.0, 0.0];
        let x_rev = [0.0, 2.0, 3.0]; // drain and source voltages swapped
        let stamp_res = |x: &[f64]| {
            let mut j = Triplet::new(3, 3);
            let mut r = vec![0.0; 3];
            let ctx = EvalCtx::dc(x);
            let mut state = [2.0, -3.0, 0.0];
            m.stamp(&ctx, &mut Stamper::new(&mut j, &mut r), &mut state);
            r
        };
        let rf = stamp_res(&x_fwd);
        let rr = stamp_res(&x_rev);
        // In the reversed case the current through node 0 flips sign but the
        // magnitude differs because the bulk tie moves with the source node;
        // the key invariant is direction reversal.
        assert!(rf[0] > 0.0, "forward: current leaves drain node");
        assert!(rr[0] < 0.0, "reversed: current enters node 0");
    }

    #[test]
    fn pmos_conducts_with_negative_vgs() {
        let p = Mosfet::new(
            "M2",
            Node::new(0),
            Node::new(1),
            Node::new(2),
            Node::new(2),
            MosModel::pmos(1.0, 1e-5),
            2.0,
        );
        // Normalized frame: |vgs| = 2 > vto = 1.
        let op = p.eval_channel(2.0, 3.0, 0.0);
        assert!(op.ids > 0.0);
    }

    #[test]
    #[should_panic(expected = "W/L must be positive")]
    fn rejects_bad_geometry() {
        let _ = Mosfet::new(
            "M",
            Node::GROUND,
            Node::GROUND,
            Node::GROUND,
            Node::GROUND,
            MosModel::default(),
            0.0,
        );
    }
}
