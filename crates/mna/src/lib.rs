//! Circuit graph and modified nodal analysis (MNA) assembly.
//!
//! A [`Circuit`] owns named nodes and a list of
//! [`Device`](rlpta_devices::Device)s. Building it assigns every voltage
//! node an MNA unknown index and every branch-owning device (voltage
//! sources, inductors, VCVS) a branch-current unknown appended after the
//! node voltages, giving the unknown vector
//! `x = [v_0 … v_{N−1}, i_0 … i_{M−1}]`.
//!
//! [`Circuit::assemble_into`] produces the Newton system `J(x)·Δx = −F(x)`
//! by folding every device stamp at the operating point into a triplet
//! list: the reference the solvers' precompiled [`StampPlan`]s are held
//! bitwise equal to. Newton and certification assemble through plans, and
//! [`DeclareScratch`] runs the structural declare pass that plans and
//! structure keys come from.
//!
//! [`CircuitFeatures`] extracts the seven netlist statistics (plus the
//! BJT/MOS type flag) the DAC'22 paper uses to characterize a circuit for
//! the Gaussian-process initial-parameter predictor.
//!
//! # Example
//!
//! ```
//! use rlpta_mna::CircuitBuilder;
//! use rlpta_devices::{Node, Resistor, Vsource};
//!
//! # fn main() -> Result<(), rlpta_mna::BuildCircuitError> {
//! let mut b = CircuitBuilder::new("divider");
//! let vin = b.node("in");
//! let vout = b.node("out");
//! b.add(Vsource::new("V1", vin, Node::GROUND, 5.0));
//! b.add(Resistor::new("R1", vin, vout, 1e3));
//! b.add(Resistor::new("R2", vout, Node::GROUND, 1e3));
//! let circuit = b.build()?;
//! assert_eq!(circuit.num_nodes(), 2);
//! assert_eq!(circuit.dim(), 3); // two nodes + one source branch
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod circuit;
mod features;
mod plan;

pub use builder::{BuildCircuitError, CircuitBuilder};
pub use circuit::{Circuit, ResidualScratch};
pub use features::CircuitFeatures;
pub use plan::{BumpPlan, DeclareScratch, DeviceSnapshot, StampPlan};
