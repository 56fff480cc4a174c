//! AC small-signal analysis.
//!
//! The paper's introduction: DC analysis "determines small signal model
//! parameters of nonlinear devices in AC analysis" — this module is that
//! consumer. The circuit is linearized at the DC operating point (the
//! small-signal conductance matrix **G** is exactly the Newton Jacobian the
//! DC engine already assembles), reactive elements contribute the
//! susceptance matrix **B(ω)** (capacitors `ωC`, inductor branches `−ωL`),
//! and the complex system `(G + jB)·X = U` is solved per frequency through
//! its real-equivalent `2n×2n` form `[G −B; B G]` — reusing the same sparse
//! LU as every Newton iteration.

use crate::{Solution, SolveError};
use rlpta_devices::{Device, EvalCtx};
use rlpta_linalg::{LuWorkspace, StampSlots, Triplet};
use rlpta_mna::Circuit;

/// A sinusoidal excitation bound to a named independent source.
#[derive(Debug, Clone, PartialEq)]
pub struct AcStimulus {
    /// Name of the V or I source.
    pub source: String,
    /// Magnitude (volts or amperes).
    pub magnitude: f64,
    /// Phase in degrees.
    pub phase_deg: f64,
}

/// The complex solution at one frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct AcPoint {
    /// Frequency in hertz.
    pub frequency: f64,
    /// Real parts of the MNA unknowns.
    pub re: Vec<f64>,
    /// Imaginary parts of the MNA unknowns.
    pub im: Vec<f64>,
}

impl AcPoint {
    /// Magnitude of unknown `idx`.
    pub fn magnitude(&self, idx: usize) -> f64 {
        self.re[idx].hypot(self.im[idx])
    }

    /// Magnitude in decibels (`20·log10 |X|`).
    pub fn magnitude_db(&self, idx: usize) -> f64 {
        20.0 * self.magnitude(idx).max(1e-300).log10()
    }

    /// Phase of unknown `idx` in degrees.
    pub fn phase_deg(&self, idx: usize) -> f64 {
        self.im[idx].atan2(self.re[idx]).to_degrees()
    }
}

/// An AC frequency sweep at a fixed DC operating point.
///
/// # Example
///
/// ```
/// use rlpta_core::{AcSweep, NewtonRaphson};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // RC low-pass, corner at 1/(2π·RC) ≈ 159 Hz.
/// let c = rlpta_netlist::parse("rc\nV1 in 0 0\nR1 in out 1k\nC1 out 0 1u\n")?;
/// let op = NewtonRaphson::default().solve(&c)?;
/// let sweep = AcSweep::log(159.0, 159.0, 1)?.with_source("V1", 1.0, 0.0);
/// let pts = sweep.run(&c, &op)?;
/// let out = c.node_index("out").expect("node exists");
/// // At the corner frequency the gain is 1/√2 ≈ −3 dB.
/// assert!((pts[0].magnitude(out) - 0.7071).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AcSweep {
    frequencies: Vec<f64>,
    stimuli: Vec<AcStimulus>,
}

impl AcSweep {
    /// Logarithmic sweep from `f_start` to `f_stop` (inclusive-ish) with
    /// `points_per_decade` samples per decade. Equal start/stop gives a
    /// single point.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidConfig`] for non-positive frequencies or
    /// a reversed range.
    pub fn log(f_start: f64, f_stop: f64, points_per_decade: usize) -> Result<Self, SolveError> {
        if !(f_start > 0.0 && f_stop >= f_start && points_per_decade >= 1) {
            return Err(SolveError::InvalidConfig {
                detail: format!("bad AC sweep: {f_start} .. {f_stop} @ {points_per_decade}/dec"),
            });
        }
        let mut frequencies = Vec::new();
        let decades = (f_stop / f_start).log10();
        let n = (decades * points_per_decade as f64).ceil() as usize;
        for i in 0..=n {
            let f = f_start * 10f64.powf(i as f64 / points_per_decade as f64);
            frequencies.push(f.min(f_stop));
            if frequencies.last().copied() == Some(f_stop) {
                break;
            }
        }
        Ok(Self {
            frequencies,
            stimuli: Vec::new(),
        })
    }

    /// Explicit frequency list.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidConfig`] for an empty or non-positive
    /// list.
    pub fn with_frequencies(frequencies: Vec<f64>) -> Result<Self, SolveError> {
        if frequencies.is_empty() || frequencies.iter().any(|f| !f.is_finite() || *f <= 0.0) {
            return Err(SolveError::InvalidConfig {
                detail: "bad frequency list".into(),
            });
        }
        Ok(Self {
            frequencies,
            stimuli: Vec::new(),
        })
    }

    /// Adds an AC excitation on a named source.
    #[must_use]
    pub fn with_source(
        mut self,
        source: impl Into<String>,
        magnitude: f64,
        phase_deg: f64,
    ) -> Self {
        self.stimuli.push(AcStimulus {
            source: source.into(),
            magnitude,
            phase_deg,
        });
        self
    }

    /// The sweep frequencies.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Runs the sweep at the DC operating point `op`.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InvalidConfig`] when no stimulus was added or one
    ///   names a missing source,
    /// * [`SolveError::Singular`] if the small-signal system is singular at
    ///   some frequency.
    pub fn run(&self, circuit: &Circuit, op: &Solution) -> Result<Vec<AcPoint>, SolveError> {
        if self.stimuli.is_empty() {
            return Err(SolveError::InvalidConfig {
                detail: "no AC stimulus".into(),
            });
        }
        let n = circuit.dim();

        // Small-signal conductance matrix at the operating point.
        let ctx = EvalCtx::dc(&op.x);
        let mut g = Triplet::with_capacity(n, n, 16 * circuit.devices().len());
        let mut scratch_res = vec![0.0; n];
        let mut state = circuit.seeded_state(&op.x);
        circuit.assemble_into(&ctx, &mut g, &mut scratch_res, &mut state);

        // Frequency-independent susceptance pattern (scaled by ω each point):
        // capacitors contribute +C between their nodes, inductors −L on
        // their branch diagonal.
        let mut b_pattern: Vec<(usize, usize, f64)> = Vec::new();
        for d in circuit.devices() {
            match d {
                Device::Capacitor(c) => {
                    let (a, b) = (c.node_a(), c.node_b());
                    if let Some(i) = a.index() {
                        b_pattern.push((i, i, c.capacitance()));
                        if let Some(j) = b.index() {
                            b_pattern.push((i, j, -c.capacitance()));
                        }
                    }
                    if let Some(j) = b.index() {
                        b_pattern.push((j, j, c.capacitance()));
                        if let Some(i) = a.index() {
                            b_pattern.push((j, i, -c.capacitance()));
                        }
                    }
                }
                Device::Inductor(l) => {
                    b_pattern.push((l.branch(), l.branch(), -l.inductance()));
                }
                _ => {}
            }
        }

        // Excitation vector (complex, frequency-independent).
        let mut u_re = vec![0.0; n];
        let mut u_im = vec![0.0; n];
        for s in &self.stimuli {
            let (re, im) = {
                let phi = s.phase_deg.to_radians();
                (s.magnitude * phi.cos(), s.magnitude * phi.sin())
            };
            let mut found = false;
            for d in circuit.devices() {
                match d {
                    Device::Vsource(v) if v.name().eq_ignore_ascii_case(&s.source) => {
                        u_re[v.branch()] += re;
                        u_im[v.branch()] += im;
                        found = true;
                    }
                    Device::Isource(i) if i.name().eq_ignore_ascii_case(&s.source) => {
                        // F convention: +I leaves the pos node, so the
                        // excitation enters with opposite sign.
                        if let Some(p) = i.pos().index() {
                            u_re[p] -= re;
                            u_im[p] -= im;
                        }
                        if let Some(q) = i.neg().index() {
                            u_re[q] += re;
                            u_im[q] += im;
                        }
                        found = true;
                    }
                    _ => {}
                }
            }
            if !found {
                return Err(SolveError::InvalidConfig {
                    detail: format!("no independent source named `{}`", s.source),
                });
            }
        }

        // The real-equivalent 2n×2n pattern is frequency-independent: only
        // the susceptance values scale with ω. Resolve the push sequence to
        // nnz slots once, then every frequency is an in-place value rewrite
        // into one persistent matrix (no triplet allocation, no sort), a
        // symbolic-LU replay into the workspace's numeric shell after the
        // first full factorization, and an in-place solve.
        let g_entries: Vec<(usize, usize, f64)> = g.to_csr().iter().collect();
        let mut targets = Vec::with_capacity(2 * g_entries.len() + 2 * b_pattern.len());
        for &(i, j, _) in &g_entries {
            targets.push((i, j));
            targets.push((n + i, n + j));
        }
        for &(i, j, _) in &b_pattern {
            targets.push((i, n + j));
            targets.push((n + i, j));
        }
        let (mut sys, slots) = StampSlots::build(2 * n, 2 * n, &targets);
        let mut lu_ws = LuWorkspace::new();
        let mut rhs = Vec::with_capacity(2 * n);
        rhs.extend_from_slice(&u_re);
        rhs.extend_from_slice(&u_im);
        // Solved in place each point: `sol` starts as a copy of `rhs`.
        let mut sol = vec![0.0; 2 * n];
        let mut solve_scratch = Vec::with_capacity(2 * n);

        let mut points = Vec::with_capacity(self.frequencies.len());
        for &f in &self.frequencies {
            let omega = 2.0 * std::f64::consts::PI * f;
            let mut w = slots.writer(&mut sys);
            for &(_, _, v) in &g_entries {
                w.write(v);
                w.write(v);
            }
            for &(_, _, c) in &b_pattern {
                let b = omega * c;
                w.write(-b);
                w.write(b);
            }
            w.finish();
            sol.copy_from_slice(&rhs);
            lu_ws
                .factorize(&sys)?
                .solve_into(&mut sol, &mut solve_scratch)?;
            points.push(AcPoint {
                frequency: f,
                re: sol[..n].to_vec(),
                im: sol[n..].to_vec(),
            });
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NewtonRaphson;

    fn rc() -> (Circuit, Solution) {
        let c = rlpta_netlist::parse("rc\nV1 in 0 0\nR1 in out 1k\nC1 out 0 1u\n").unwrap();
        let op = NewtonRaphson::default().solve(&c).unwrap();
        (c, op)
    }

    #[test]
    fn rc_lowpass_matches_analytic_response() {
        let (c, op) = rc();
        let out = c.node_index("out").unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-6); // ≈ 159 Hz
        let sweep = AcSweep::with_frequencies(vec![fc / 100.0, fc, fc * 100.0])
            .unwrap()
            .with_source("V1", 1.0, 0.0);
        let pts = sweep.run(&c, &op).unwrap();
        // Passband: unity. Corner: 1/√2 and −45°. Far stopband: −40 dB/2dec.
        assert!((pts[0].magnitude(out) - 1.0).abs() < 1e-3);
        assert!((pts[1].magnitude(out) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((pts[1].phase_deg(out) + 45.0).abs() < 0.5);
        assert!((pts[2].magnitude_db(out) + 40.0).abs() < 0.1);
    }

    #[test]
    fn rl_highpass_behaviour() {
        // Series R with L to ground: v(out) rises with frequency.
        let c = rlpta_netlist::parse("rl\nV1 in 0 0\nR1 in out 1k\nL1 out 0 1m\n").unwrap();
        let op = NewtonRaphson::default().solve(&c).unwrap();
        let out = c.node_index("out").unwrap();
        let fc = 1e3 / (2.0 * std::f64::consts::PI * 1e-3); // R/(2πL)
        let sweep = AcSweep::with_frequencies(vec![fc / 100.0, fc, fc * 100.0])
            .unwrap()
            .with_source("V1", 1.0, 0.0);
        let pts = sweep.run(&c, &op).unwrap();
        assert!(pts[0].magnitude(out) < 0.02, "low f: inductor shorts");
        assert!((pts[1].magnitude(out) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(pts[2].magnitude(out) > 0.999, "high f: inductor opens");
    }

    #[test]
    fn bjt_amplifier_small_signal_gain() {
        // The AC gain of a degenerated CE stage ≈ −RC/RE in midband.
        let c = rlpta_netlist::parse(
            "ce
             V1 vcc 0 12
             VIN in 0 0
             CIN in b 100u
             RB1 vcc b 100k
             RB2 b 0 22k
             RC vcc col 4.7k
             RE e 0 1k
             Q1 col b e QN
             .model QN NPN(IS=1e-15 BF=150)",
        )
        .unwrap();
        let op = NewtonRaphson::default().solve(&c).unwrap();
        let col = c.node_index("col").unwrap();
        let sweep = AcSweep::with_frequencies(vec![1e3])
            .unwrap()
            .with_source("VIN", 1.0, 0.0);
        let pts = sweep.run(&c, &op).unwrap();
        let gain = pts[0].magnitude(col);
        assert!(gain > 3.0 && gain < 4.7, "|A| = {gain} (≈ RC/RE expected)");
        // Inverting stage: phase near ±180°.
        assert!(pts[0].phase_deg(col).abs() > 170.0);
    }

    #[test]
    fn log_sweep_spacing() {
        let s = AcSweep::log(1.0, 1000.0, 2).unwrap();
        assert_eq!(s.frequencies().len(), 7);
        assert!((s.frequencies()[2] - 10.0).abs() < 1e-9);
        assert_eq!(*s.frequencies().last().unwrap(), 1000.0);
    }

    #[test]
    fn validates_inputs() {
        assert!(AcSweep::log(0.0, 10.0, 1).is_err());
        assert!(AcSweep::log(10.0, 1.0, 1).is_err());
        assert!(AcSweep::with_frequencies(vec![]).is_err());
        let (c, op) = rc();
        let no_stim = AcSweep::log(1.0, 10.0, 1).unwrap();
        assert!(no_stim.run(&c, &op).is_err());
        let bad_src = AcSweep::log(1.0, 10.0, 1)
            .unwrap()
            .with_source("V9", 1.0, 0.0);
        assert!(bad_src.run(&c, &op).is_err());
    }

    #[test]
    fn current_source_excitation() {
        // 1 A AC into R ∥ C: at DC-ish frequency |v| = R·|I|.
        let c = rlpta_netlist::parse("ri\nI1 0 a 0\nR1 a 0 1k\nC1 a 0 1n\n").unwrap();
        let op = NewtonRaphson::default().solve(&c).unwrap();
        let a = c.node_index("a").unwrap();
        let sweep = AcSweep::with_frequencies(vec![1.0])
            .unwrap()
            .with_source("I1", 1e-3, 0.0);
        let pts = sweep.run(&c, &op).unwrap();
        assert!(
            (pts[0].magnitude(a) - 1.0).abs() < 1e-6,
            "|v| = {}",
            pts[0].magnitude(a)
        );
    }
}
