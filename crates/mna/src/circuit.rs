//! The finalized circuit and MNA assembly.

use rlpta_devices::{Device, EvalCtx, Stamper};
use rlpta_linalg::Triplet;
use std::collections::HashMap;
use std::fmt;

/// A finalized circuit: named nodes, devices with assigned branch unknowns.
///
/// Produced by [`CircuitBuilder::build`](crate::CircuitBuilder::build) or the
/// netlist parser; consumed by the solvers in `rlpta-core`.
#[derive(Debug, Clone)]
pub struct Circuit {
    title: String,
    node_names: Vec<String>,
    name_to_node: HashMap<String, usize>,
    devices: Vec<Device>,
    num_branches: usize,
    /// Per-device offsets into the junction-limiting state vector.
    state_offsets: Vec<usize>,
    state_len: usize,
    /// Indices of the devices that carry limiter state, in device order.
    limited: Vec<usize>,
}

impl Circuit {
    pub(crate) fn from_parts(
        title: String,
        node_names: Vec<String>,
        name_to_node: HashMap<String, usize>,
        devices: Vec<Device>,
        num_branches: usize,
    ) -> Self {
        let mut state_offsets = Vec::with_capacity(devices.len());
        let mut state_len = 0;
        let mut limited = Vec::new();
        for (i, d) in devices.iter().enumerate() {
            state_offsets.push(state_len);
            state_len += d.state_len();
            if d.state_len() > 0 {
                limited.push(i);
            }
        }
        Self {
            title,
            node_names,
            name_to_node,
            devices,
            num_branches,
            state_offsets,
            state_len,
            limited,
        }
    }

    /// Netlist title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of non-ground nodes (voltage unknowns).
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of branch-current unknowns.
    pub fn num_branches(&self) -> usize {
        self.num_branches
    }

    /// Total MNA dimension (`num_nodes + num_branches`).
    pub fn dim(&self) -> usize {
        self.num_nodes() + self.num_branches
    }

    /// The devices of this circuit.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Voltage-unknown index of a named node, or `None` if unknown. Ground
    /// aliases return `None` as well (ground has no unknown).
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.name_to_node.get(name).copied()
    }

    /// Name of the node behind voltage unknown `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_nodes()`.
    pub fn node_name(&self, index: usize) -> &str {
        &self.node_names[index]
    }

    /// Returns `true` if any device is nonlinear.
    pub fn is_nonlinear(&self) -> bool {
        self.devices.iter().any(Device::is_nonlinear)
    }

    /// Changes the DC value of a named independent source (V or I),
    /// returning `false` when no such source exists. Used by DC sweeps.
    pub fn set_source_dc(&mut self, name: &str, value: f64) -> bool {
        for d in &mut self.devices {
            match d {
                Device::Vsource(v) if v.name().eq_ignore_ascii_case(name) => {
                    v.set_dc(value);
                    return true;
                }
                Device::Isource(i) if i.name().eq_ignore_ascii_case(name) => {
                    i.set_dc(value);
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Length of the junction-limiting device state vector.
    pub fn state_len(&self) -> usize {
        self.state_len
    }

    /// Per-device offsets into the junction-limiting state vector, aligned
    /// with [`Circuit::devices`].
    pub(crate) fn state_offsets(&self) -> &[usize] {
        &self.state_offsets
    }

    /// Allocates a fresh (zeroed) device state vector. Pass it to every
    /// [`Circuit::assemble_into`] of a Newton run so devices remember their
    /// limited junction voltages between iterations.
    pub fn new_state(&self) -> Vec<f64> {
        vec![0.0; self.state_len]
    }

    /// Assembles the Newton system at the operating point in `ctx` into the
    /// supplied Jacobian builder and residual vector, reusing their
    /// allocations. `state` is the device state vector created by
    /// [`Circuit::new_state`]; nonlinear devices update their limited
    /// junction voltages in it.
    ///
    /// On return `jacobian` holds `J(x)` (as summed triplets) and `residual`
    /// holds `F(x)`; the Newton step is the solution of `J·Δx = −F`.
    ///
    /// # Panics
    ///
    /// Panics if `jacobian`, `residual` or `state` have the wrong size.
    pub fn assemble_into(
        &self,
        ctx: &EvalCtx<'_>,
        jacobian: &mut Triplet,
        residual: &mut [f64],
        state: &mut [f64],
    ) {
        assert_eq!(jacobian.rows(), self.dim(), "jacobian dimension mismatch");
        assert_eq!(residual.len(), self.dim(), "residual dimension mismatch");
        assert_eq!(state.len(), self.state_len, "state dimension mismatch");
        jacobian.clear();
        residual.fill(0.0);
        let mut stamper = Stamper::new(jacobian, residual);
        for (d, &off) in self.devices.iter().zip(&self.state_offsets) {
            d.stamp(ctx, &mut stamper, &mut state[off..off + d.state_len()]);
        }
    }

    /// Convenience wrapper allocating fresh storage (including a fresh
    /// zeroed state) for [`Circuit::assemble_into`].
    pub fn assemble(&self, ctx: &EvalCtx<'_>) -> (Triplet, Vec<f64>) {
        let mut j = Triplet::with_capacity(self.dim(), self.dim(), 8 * self.devices.len());
        let mut r = vec![0.0; self.dim()];
        let mut s = self.new_state();
        self.assemble_into(ctx, &mut j, &mut r, &mut s);
        (j, r)
    }

    /// Evaluates only the residual `F(x)` of the *original* system (default
    /// gmin, full sources) — the steady-state test used by the PTA loop.
    /// Allocating wrapper over [`Circuit::residual_into`].
    pub fn residual(&self, x: &[f64]) -> Vec<f64> {
        let mut r = vec![0.0; self.dim()];
        self.residual_into(x, &mut r, &mut ResidualScratch::default());
        r
    }

    /// Writes the residual `F(x)` of the *original* system (default gmin,
    /// full sources) into `residual`, reusing `scratch` (so repeat calls
    /// allocate nothing).
    ///
    /// Junction limiting is bypassed by pre-seeding a throwaway state with
    /// the actual junction voltages ([`Circuit::seeded_state_into`]), so the
    /// result is the true `F(x)` rather than a limited linearization. The
    /// seeding evaluates no device; the residual then takes one device pass
    /// through a residual-only [`Stamper`], so no Jacobian is built and the
    /// residual is bit-identical to a triplet assembly's from the seeded
    /// state. Under fault injection that pass consumes exactly one
    /// assembly's worth of draws, and the seeding none.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `residual` is not of length [`Circuit::dim`].
    pub fn residual_into(&self, x: &[f64], residual: &mut [f64], scratch: &mut ResidualScratch) {
        assert_eq!(residual.len(), self.dim(), "residual dimension mismatch");
        let ResidualScratch { state, before } = scratch;
        state.resize(self.state_len, 0.0);
        self.seed_state(x, state, before);
        let ctx = EvalCtx::dc(x);
        residual.fill(0.0);
        let mut stamper = Stamper::residual_only(residual);
        for (d, &off) in self.devices.iter().zip(&self.state_offsets) {
            d.stamp(&ctx, &mut stamper, &mut state[off..off + d.state_len()]);
        }
    }

    /// Builds a state vector whose limited junction voltages equal the
    /// actual junction voltages at `x`, so the next evaluation at `x` is
    /// limit-free. Allocating wrapper over [`Circuit::seeded_state_into`].
    pub fn seeded_state(&self, x: &[f64]) -> Vec<f64> {
        let mut s = self.new_state();
        self.seeded_state_into(x, &mut s, &mut ResidualScratch::default());
        s
    }

    /// Overwrites `state` with limited junction voltages equal to the
    /// actual junction voltages at `x`, reusing `scratch`.
    ///
    /// Starting from a zeroed state, the junction limiters (`pnjlim`,
    /// `fetlim`) are applied at `x` pass after pass until no slot moves by
    /// `1e-12` or more, at most 64 passes: once the state is close, the
    /// limiter walk lands on the true voltage. A pass after which every
    /// device landed (each limited voltage bitwise its finite input) ends
    /// the walk at once: the next pass would move nothing. Each pass is
    /// [`Device::limit_state`](rlpta_devices::Device::limit_state) on every
    /// device with state, so the result is bit for bit the state repeated
    /// stamps at `x` would reach, yet no device equation is evaluated and
    /// no fault-injection draw is consumed.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not of length [`Circuit::dim`] or `state` not of
    /// length [`Circuit::state_len`].
    pub fn seeded_state_into(&self, x: &[f64], state: &mut [f64], scratch: &mut ResidualScratch) {
        self.seed_state(x, state, &mut scratch.before);
    }

    /// The limiter walk behind [`Circuit::seeded_state_into`], with
    /// `before` as reusable scratch.
    fn seed_state(&self, x: &[f64], state: &mut [f64], before: &mut Vec<f64>) {
        assert_eq!(state.len(), self.state_len, "state dimension mismatch");
        state.fill(0.0);
        // A handful of walks is enough for any realistic bias point.
        for _ in 0..64 {
            before.clear();
            before.extend_from_slice(state);
            let mut landed = true;
            for &i in &self.limited {
                let (d, off) = (&self.devices[i], self.state_offsets[i]);
                landed &= d.limit_state(x, &mut state[off..off + d.state_len()]);
            }
            if landed {
                break;
            }
            let moved = state
                .iter()
                .zip(before.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if moved < 1e-12 {
                break;
            }
        }
    }
}

/// Reusable buffers for [`Circuit::residual_into`] (the seeded state and
/// the seeding's per-pass snapshot) and [`Circuit::seeded_state_into`]
/// (the snapshot). Start from `default()`; the buffers size themselves on
/// first use and are kept by later calls on circuits of the same shape.
#[derive(Debug, Clone, Default)]
pub struct ResidualScratch {
    /// Seeded limiter state of [`Circuit::residual_into`].
    state: Vec<f64>,
    /// Limiter state before the latest seeding pass.
    before: Vec<f64>,
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} nodes, {} branches, {} devices",
            self.title,
            self.num_nodes(),
            self.num_branches,
            self.devices.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;
    use rlpta_devices::{Isource, Node, Resistor, Vsource};
    use rlpta_linalg::SparseLu;

    /// 5 V source into a 1k/1k divider.
    fn divider() -> Circuit {
        let mut b = CircuitBuilder::new("divider");
        let vin = b.node("in");
        let vout = b.node("out");
        b.add(Vsource::new("V1", vin, Node::GROUND, 5.0));
        b.add(Resistor::new("R1", vin, vout, 1e3));
        b.add(Resistor::new("R2", vout, Node::GROUND, 1e3));
        b.build().unwrap()
    }

    #[test]
    fn linear_circuit_solves_in_one_newton_step() {
        let c = divider();
        let x0 = vec![0.0; c.dim()];
        let ctx = EvalCtx::dc(&x0);
        let (j, r) = c.assemble(&ctx);
        let lu = SparseLu::factorize(&j.to_csr()).unwrap();
        let neg_r: Vec<f64> = r.iter().map(|v| -v).collect();
        let dx = lu.solve(&neg_r).unwrap();
        let x: Vec<f64> = x0.iter().zip(&dx).map(|(a, b)| a + b).collect();
        let vin = c.node_index("in").unwrap();
        let vout = c.node_index("out").unwrap();
        assert!((x[vin] - 5.0).abs() < 1e-12);
        assert!((x[vout] - 2.5).abs() < 1e-12);
        // Source current: 5 V / 2 kΩ = 2.5 mA (flowing out of + terminal
        // through the circuit, so the branch current is −2.5 mA).
        assert!((x[2] + 2.5e-3).abs() < 1e-12);
    }

    #[test]
    fn residual_vanishes_at_solution() {
        let c = divider();
        let x = vec![5.0, 2.5, -2.5e-3];
        let r = c.residual(&x);
        for v in r {
            assert!(v.abs() < 1e-12, "residual component {v}");
        }
    }

    #[test]
    fn current_source_with_resistor() {
        // 1 mA into 1 kΩ → 1 V. Isource pos=gnd, neg=node: injects into node.
        let mut b = CircuitBuilder::new("isrc");
        let n = b.node("n1");
        b.add(Isource::new("I1", Node::GROUND, n, 1e-3));
        b.add(Resistor::new("R1", n, Node::GROUND, 1e3));
        let c = b.build().unwrap();
        let x0 = vec![0.0; c.dim()];
        let ctx = EvalCtx::dc(&x0);
        let (j, r) = c.assemble(&ctx);
        let lu = SparseLu::factorize(&j.to_csr()).unwrap();
        let neg_r: Vec<f64> = r.iter().map(|v| -v).collect();
        let x = lu.solve(&neg_r).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12, "v = {}", x[0]);
    }

    #[test]
    fn assemble_into_reuses_buffers() {
        let c = divider();
        let mut j = Triplet::new(c.dim(), c.dim());
        let mut r = vec![0.0; c.dim()];
        let mut s = c.new_state();
        let x = vec![0.0; c.dim()];
        let ctx = EvalCtx::dc(&x);
        c.assemble_into(&ctx, &mut j, &mut r, &mut s);
        let n1 = j.len();
        c.assemble_into(&ctx, &mut j, &mut r, &mut s);
        assert_eq!(j.len(), n1, "second assembly must not accumulate");
    }

    #[test]
    fn metadata_accessors() {
        let c = divider();
        assert_eq!(c.title(), "divider");
        assert_eq!(c.node_name(0), "in");
        assert_eq!(c.node_index("out"), Some(1));
        assert_eq!(c.node_index("missing"), None);
        assert!(!c.is_nonlinear());
        assert_eq!(c.devices().len(), 3);
        assert!(c.to_string().contains("divider"));
    }
}
