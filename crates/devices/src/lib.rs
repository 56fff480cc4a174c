//! SPICE device models and their MNA stamps.
//!
//! Every element a DC operating-point analysis needs, implemented from
//! scratch:
//!
//! * passives — [`Resistor`], [`Capacitor`] (DC open), [`Inductor`]
//!   (DC short via a branch current),
//! * independent sources — [`Vsource`], [`Isource`] (both respect the
//!   source-stepping scale factor in [`EvalCtx`]),
//! * controlled sources — [`Vcvs`] (E), [`Vccs`] (G), [`Cccs`] (F),
//!   [`Ccvs`] (H),
//! * nonlinear devices — Shockley [`Diode`] (optional Zener breakdown),
//!   Ebers–Moll [`Bjt`], Shichman–Hodges level-1 [`Mosfet`] and [`Jfet`],
//! * the SPICE junction-voltage limiting helpers in [`limit`].
//!
//! # Conventions
//!
//! The MNA unknown vector is `x = [v_0 … v_{N-1}, i_0 … i_{M-1}]`: node
//! voltages followed by branch currents (voltage sources and inductors).
//! Devices contribute to the Newton system `J(x)·Δx = −F(x)` through a
//! [`Stamper`]: `stamp` adds the device's KCL/branch residual contributions
//! to `F` and its linearized conductances to `J`, both evaluated at the
//! current iterate in [`EvalCtx`].
//!
//! # Example
//!
//! ```
//! use rlpta_devices::{Device, EvalCtx, Node, Resistor, Stamper};
//! use rlpta_linalg::Triplet;
//!
//! let r = Device::from(Resistor::new("R1", Node::new(0), Node::GROUND, 1_000.0));
//! let x = [2.0]; // 2 V across the resistor
//! let mut jac = Triplet::new(1, 1);
//! let mut res = vec![0.0; 1];
//! let ctx = EvalCtx::dc(&x);
//! r.stamp(&ctx, &mut Stamper::new(&mut jac, &mut res), &mut []);
//! assert!((res[0] - 0.002).abs() < 1e-15); // 2 mA leaving node 0
//! assert!((jac.to_csr().get(0, 0) - 0.001).abs() < 1e-15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bjt;
mod current_controlled;
mod device;
mod diode;
#[cfg(feature = "faults")]
pub mod faults;
mod jfet;
pub mod limit;
mod mosfet;
mod node;
mod passive;
mod source;
mod stamp;

pub use bjt::{Bjt, BjtModel, BjtPolarity};
pub use current_controlled::{Cccs, Ccvs};
pub use device::Device;
pub use diode::{Diode, DiodeModel};
pub use jfet::{Jfet, JfetModel, JfetOperatingPoint, JfetPolarity};
pub use mosfet::{MosModel, MosPolarity, Mosfet};
pub use node::{Node, Nodes};
pub use passive::{Capacitor, Inductor, Resistor};
pub use source::{Isource, Vccs, Vcvs, Vsource};
pub use stamp::{Declare, Discard, EvalCtx, JacSink, Stamper};

/// Thermal voltage `kT/q` at 300.15 K, in volts.
pub const THERMAL_VOLTAGE: f64 = 0.02585;
