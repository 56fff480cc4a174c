//! The device sum type dispatched by the MNA assembler.

use crate::{
    Bjt, Capacitor, Cccs, Ccvs, Diode, EvalCtx, Inductor, Isource, JacSink, Jfet, Mosfet, Nodes,
    Resistor, Stamper, Vccs, Vcvs, Vsource,
};

/// Any circuit element the simulator understands.
///
/// Enum dispatch keeps the hot assembly loop free of virtual calls; each
/// variant delegates to its model's `stamp`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Device {
    /// Linear resistor (`R`).
    Resistor(Resistor),
    /// Linear capacitor (`C`, DC open).
    Capacitor(Capacitor),
    /// Linear inductor (`L`, DC short, one branch unknown).
    Inductor(Inductor),
    /// Independent voltage source (`V`, one branch unknown).
    Vsource(Vsource),
    /// Independent current source (`I`).
    Isource(Isource),
    /// Voltage-controlled voltage source (`E`, one branch unknown).
    Vcvs(Vcvs),
    /// Voltage-controlled current source (`G`).
    Vccs(Vccs),
    /// Current-controlled current source (`F`).
    Cccs(Cccs),
    /// Current-controlled voltage source (`H`, one branch unknown).
    Ccvs(Ccvs),
    /// Junction diode (`D`).
    Diode(Diode),
    /// Bipolar junction transistor (`Q`).
    Bjt(Bjt),
    /// Level-1 MOSFET (`M`).
    Mosfet(Mosfet),
    /// Level-1 JFET (`J`).
    Jfet(Jfet),
}

impl Device {
    /// Element name as written in the netlist.
    pub fn name(&self) -> &str {
        match self {
            Device::Resistor(d) => d.name(),
            Device::Capacitor(d) => d.name(),
            Device::Inductor(d) => d.name(),
            Device::Vsource(d) => d.name(),
            Device::Isource(d) => d.name(),
            Device::Vcvs(d) => d.name(),
            Device::Vccs(d) => d.name(),
            Device::Cccs(d) => d.name(),
            Device::Ccvs(d) => d.name(),
            Device::Diode(d) => d.name(),
            Device::Bjt(d) => d.name(),
            Device::Mosfet(d) => d.name(),
            Device::Jfet(d) => d.name(),
        }
    }

    /// Number of branch-current unknowns this device needs (0 or 1).
    pub fn branch_count(&self) -> usize {
        match self {
            Device::Inductor(_) | Device::Vsource(_) | Device::Vcvs(_) | Device::Ccvs(_) => 1,
            _ => 0,
        }
    }

    /// Assigns the device's branch-current unknown (no-op for devices
    /// without one).
    pub fn set_branch(&mut self, branch: usize) {
        match self {
            Device::Inductor(d) => d.set_branch(branch),
            Device::Vsource(d) => d.set_branch(branch),
            Device::Vcvs(d) => d.set_branch(branch),
            Device::Ccvs(d) => d.set_branch(branch),
            _ => {}
        }
    }

    /// Returns `true` for devices whose stamps depend on the operating
    /// point (diodes, BJTs, MOSFETs).
    pub fn is_nonlinear(&self) -> bool {
        matches!(
            self,
            Device::Diode(_) | Device::Bjt(_) | Device::Mosfet(_) | Device::Jfet(_)
        )
    }

    /// Terminal nodes of the device, in declaration order (none for the
    /// controlled sources). Allocates nothing.
    pub fn nodes(&self) -> Nodes {
        match self {
            Device::Resistor(d) => Nodes::new(&[d.node_a(), d.node_b()]),
            Device::Capacitor(d) => Nodes::new(&[d.node_a(), d.node_b()]),
            Device::Inductor(d) => Nodes::new(&[d.node_a(), d.node_b()]),
            Device::Vsource(d) => Nodes::new(&[d.pos(), d.neg()]),
            Device::Isource(d) => Nodes::new(&[d.pos(), d.neg()]),
            Device::Vcvs(_) | Device::Vccs(_) | Device::Cccs(_) | Device::Ccvs(_) => {
                Nodes::new(&[])
            }
            Device::Diode(d) => Nodes::new(&[d.anode(), d.cathode()]),
            Device::Bjt(d) => Nodes::new(&[d.collector(), d.base(), d.emitter()]),
            Device::Mosfet(d) => Nodes::new(&[d.drain(), d.gate(), d.source(), d.bulk()]),
            Device::Jfet(d) => Nodes::new(&[d.drain(), d.gate(), d.source()]),
        }
    }

    /// Number of junction-limiting state slots this device needs between
    /// Newton iterations (SPICE "state vector" semantics).
    pub fn state_len(&self) -> usize {
        match self {
            Device::Diode(_) => 1,
            Device::Bjt(_) | Device::Jfet(_) => 2,
            Device::Mosfet(_) => 3,
            _ => 0,
        }
    }

    /// Stamps this device's Jacobian and residual contributions at the
    /// operating point in `ctx`, through whichever sink `st` carries (the
    /// body is compiled once per sink type).
    ///
    /// `state` is this device's slice of the circuit state vector (length
    /// [`Device::state_len`]); nonlinear devices read their previously
    /// *limited* junction voltages from it and write the new limited values
    /// back — the mechanism that keeps SPICE junction limiting stable
    /// across iterations.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.state_len()` or a branch-owning device
    /// has not had [`Device::set_branch`] called (the MNA builder always
    /// does).
    pub fn stamp<S: JacSink>(&self, ctx: &EvalCtx<'_>, st: &mut Stamper<'_, S>, state: &mut [f64]) {
        assert_eq!(state.len(), self.state_len(), "device state slice mismatch");
        match self {
            Device::Resistor(d) => d.stamp(ctx, st),
            Device::Capacitor(d) => d.stamp(ctx, st),
            Device::Inductor(d) => d.stamp(ctx, st),
            Device::Vsource(d) => d.stamp(ctx, st),
            Device::Isource(d) => d.stamp(ctx, st),
            Device::Vcvs(d) => d.stamp(ctx, st),
            Device::Vccs(d) => d.stamp(ctx, st),
            Device::Cccs(d) => d.stamp(ctx, st),
            Device::Ccvs(d) => d.stamp(ctx, st),
            Device::Diode(d) => d.stamp(ctx, st, state),
            Device::Bjt(d) => d.stamp(ctx, st, state),
            Device::Mosfet(d) => d.stamp(ctx, st, state),
            Device::Jfet(d) => d.stamp(ctx, st, state),
        }
    }

    /// Applies only the junction limiting of [`Device::stamp`] at `x`:
    /// `state` ends bit for bit where a stamp at `x` from the same state
    /// would leave it, but no device equation is evaluated, nothing is
    /// stamped and no fault-injection draw is consumed. A no-op for devices
    /// without state.
    ///
    /// Returns whether the device *landed*: every limited voltage came
    /// back bitwise equal to its finite input. The state then holds the
    /// limiters' fixed point at `x` (`pnjlim(v, v)` and `fetlim(v, v, vto)`
    /// return `v` for finite `v`), so a further call at `x` moves nothing.
    /// Devices without state always land.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.state_len()`.
    pub fn limit_state(&self, x: &[f64], state: &mut [f64]) -> bool {
        assert_eq!(state.len(), self.state_len(), "device state slice mismatch");
        match self {
            Device::Diode(d) => d.limit_state(x, state),
            Device::Bjt(d) => d.limit_state(x, state),
            Device::Mosfet(d) => d.limit_state(x, state),
            Device::Jfet(d) => d.limit_state(x, state),
            _ => true,
        }
    }

    /// Structural half of the split stamping interface: records this
    /// device's ground-filtered `(row, col)` Jacobian targets, in push
    /// order, without producing numbers.
    ///
    /// Every model's stamp sequence is operating-point *independent* (the
    /// FETs normalize their source/drain swap into fixed targets), so one
    /// declare pass — conventionally at `x = 0` with scratch state and
    /// residual — yields the target list every later evaluation replays.
    /// No fault-injection draws are consumed.
    pub fn declare_stamps(
        &self,
        ctx: &EvalCtx<'_>,
        targets: &mut Vec<(usize, usize)>,
        scratch_residual: &mut [f64],
        state: &mut [f64],
    ) {
        let mut st = Stamper::declare(targets, scratch_residual);
        self.stamp(ctx, &mut st, state);
    }

    /// Numeric half of the split stamping interface: evaluates the device
    /// at `ctx` and writes values through a scatter-mode [`Stamper`]
    /// (slot-table writes, no hashing or searching) or a residual-only one,
    /// plus the residual.
    ///
    /// Delegates to the same `stamp` body as the triplet reference path —
    /// that single code path is what guarantees plan-based assembly is
    /// bit-identical to triplet assembly.
    pub fn eval_into<S: JacSink>(
        &self,
        ctx: &EvalCtx<'_>,
        st: &mut Stamper<'_, S>,
        state: &mut [f64],
    ) {
        self.stamp(ctx, st, state);
    }
}

impl From<Resistor> for Device {
    fn from(d: Resistor) -> Self {
        Device::Resistor(d)
    }
}

impl From<Capacitor> for Device {
    fn from(d: Capacitor) -> Self {
        Device::Capacitor(d)
    }
}

impl From<Inductor> for Device {
    fn from(d: Inductor) -> Self {
        Device::Inductor(d)
    }
}

impl From<Vsource> for Device {
    fn from(d: Vsource) -> Self {
        Device::Vsource(d)
    }
}

impl From<Isource> for Device {
    fn from(d: Isource) -> Self {
        Device::Isource(d)
    }
}

impl From<Vcvs> for Device {
    fn from(d: Vcvs) -> Self {
        Device::Vcvs(d)
    }
}

impl From<Vccs> for Device {
    fn from(d: Vccs) -> Self {
        Device::Vccs(d)
    }
}

impl From<Cccs> for Device {
    fn from(d: Cccs) -> Self {
        Device::Cccs(d)
    }
}

impl From<Ccvs> for Device {
    fn from(d: Ccvs) -> Self {
        Device::Ccvs(d)
    }
}

impl From<Diode> for Device {
    fn from(d: Diode) -> Self {
        Device::Diode(d)
    }
}

impl From<Bjt> for Device {
    fn from(d: Bjt) -> Self {
        Device::Bjt(d)
    }
}

impl From<Mosfet> for Device {
    fn from(d: Mosfet) -> Self {
        Device::Mosfet(d)
    }
}

impl From<Jfet> for Device {
    fn from(d: Jfet) -> Self {
        Device::Jfet(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BjtModel, DiodeModel, Node};

    #[test]
    fn branch_counts() {
        let r: Device = Resistor::new("R", Node::new(0), Node::GROUND, 1.0).into();
        let v: Device = Vsource::new("V", Node::new(0), Node::GROUND, 1.0).into();
        let l: Device = Inductor::new("L", Node::new(0), Node::GROUND, 1.0).into();
        assert_eq!(r.branch_count(), 0);
        assert_eq!(v.branch_count(), 1);
        assert_eq!(l.branch_count(), 1);
    }

    #[test]
    fn nonlinearity_flags() {
        let d: Device = Diode::new("D", Node::new(0), Node::GROUND, DiodeModel::default()).into();
        let q: Device = Bjt::new(
            "Q",
            Node::new(0),
            Node::new(1),
            Node::new(2),
            BjtModel::default(),
        )
        .into();
        let r: Device = Resistor::new("R", Node::new(0), Node::GROUND, 1.0).into();
        assert!(d.is_nonlinear());
        assert!(q.is_nonlinear());
        assert!(!r.is_nonlinear());
    }

    #[test]
    fn names_forwarded() {
        let r: Device = Resistor::new("Rload", Node::new(0), Node::GROUND, 50.0).into();
        assert_eq!(r.name(), "Rload");
    }

    #[test]
    fn set_branch_noop_for_branchless() {
        let mut r: Device = Resistor::new("R", Node::new(0), Node::GROUND, 1.0).into();
        r.set_branch(7); // must not panic
    }

    #[test]
    fn nodes_listed_in_declaration_order() {
        let q: Device = Bjt::new(
            "Q",
            Node::new(2),
            Node::new(1),
            Node::new(0),
            BjtModel::default(),
        )
        .into();
        assert_eq!(q.nodes()[..], [Node::new(2), Node::new(1), Node::new(0)]);
    }
}
