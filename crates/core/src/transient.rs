//! Transient analysis: backward-Euler time integration with real
//! capacitor/inductor companion models and waveform stimuli.
//!
//! The paper's DC operating point is "the initial solution for transient
//! analysis" — this module is that consumer. It reuses the exact same
//! Newton core and device stamps as the DC engine; only the reactive
//! companion models (now with *physical* C/L values rather than pseudo
//! elements) and the time-varying sources are added on top.

use crate::assembly::NewtonWorkspace;
use crate::newton::{newton_iterate, NewtonConfig};
use crate::recovery::BudgetMeter;
use crate::telemetry::{Payload, StatsFold, Tele};
use crate::SolveError;
use rlpta_devices::{Device, Stamper};
use rlpta_mna::Circuit;

/// A time-dependent source waveform (the SPICE `DC`/`PULSE`/`SIN` shapes).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Trapezoidal pulse train.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge.
        delay: f64,
        /// Rise time (0 snaps instantly).
        rise: f64,
        /// Fall time.
        fall: f64,
        /// Pulse width at `v2`.
        width: f64,
        /// Repetition period (≤ 0 for a single pulse).
        period: f64,
    },
    /// Sinusoid `offset + ampl·sin(2π·freq·t)`.
    Sin {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency in hertz.
        freq: f64,
    },
}

impl Waveform {
    /// The waveform value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < delay {
                    return v1;
                }
                let mut tau = t - delay;
                if period > 0.0 {
                    tau %= period;
                }
                if tau < rise {
                    if rise <= 0.0 {
                        v2
                    } else {
                        v1 + (v2 - v1) * tau / rise
                    }
                } else if tau < rise + width {
                    v2
                } else if tau < rise + width + fall {
                    if fall <= 0.0 {
                        v1
                    } else {
                        v2 + (v1 - v2) * (tau - rise - width) / fall
                    }
                } else {
                    v1
                }
            }
            Waveform::Sin { offset, ampl, freq } => {
                offset + ampl * (2.0 * std::f64::consts::PI * freq * t).sin()
            }
        }
    }
}

/// Binds a waveform to a named independent source.
#[derive(Debug, Clone, PartialEq)]
pub struct Stimulus {
    /// Name of the V or I source to drive.
    pub source: String,
    /// The waveform.
    pub waveform: Waveform,
}

/// One accepted time point of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientPoint {
    /// Simulation time in seconds.
    pub time: f64,
    /// MNA solution at that time.
    pub x: Vec<f64>,
}

/// Backward-Euler transient analysis over `[0, t_stop]` with a fixed
/// nominal step (halved on NR rejection, recovered afterwards).
///
/// # Example
///
/// ```
/// use rlpta_core::{Transient, Waveform, Stimulus};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // RC low-pass charging toward 5 V (τ = 1 ms); after 5τ it is ≈ full.
/// let c = rlpta_netlist::parse("rc\nV1 in 0 5\nR1 in out 1k\nC1 out 0 1u\n")?;
/// let tran = Transient::new(5e-3, 1e-5);
/// let points = tran.run(&c, None)?;
/// let out = c.node_index("out").expect("node exists");
/// let v_end = points.last().expect("has points").x[out];
/// assert!((v_end - 5.0).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Transient {
    /// End time of the run.
    pub t_stop: f64,
    /// Nominal step size.
    pub h: f64,
    /// Time-varying source bindings (sources not listed keep their DC
    /// value).
    pub stimuli: Vec<Stimulus>,
    /// Newton settings per time point.
    pub newton: NewtonConfig,
    /// Consecutive halvings allowed before declaring failure.
    pub max_halvings: usize,
}

impl Transient {
    /// Creates a transient run over `[0, t_stop]` with nominal step `h`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < h <= t_stop`.
    pub fn new(t_stop: f64, h: f64) -> Self {
        assert!(h > 0.0 && h <= t_stop, "need 0 < h <= t_stop");
        Self {
            t_stop,
            h,
            stimuli: Vec::new(),
            newton: NewtonConfig {
                max_iterations: 20,
                ..NewtonConfig::default()
            },
            max_halvings: 20,
        }
    }

    /// Adds a stimulus binding.
    #[must_use]
    pub fn with_stimulus(mut self, source: impl Into<String>, waveform: Waveform) -> Self {
        self.stimuli.push(Stimulus {
            source: source.into(),
            waveform,
        });
        self
    }

    /// Runs the analysis. `x0` supplies the initial condition (typically
    /// the DC operating point); `None` starts from all zeros (a circuit at
    /// rest).
    ///
    /// Returns the accepted time points including `t = 0`.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InvalidConfig`] when a stimulus names a missing
    ///   source,
    /// * [`SolveError::NonConvergent`] when a time point fails even at the
    ///   smallest step,
    /// * [`SolveError::Singular`] for structural defects.
    pub fn run(
        &self,
        circuit: &Circuit,
        x0: Option<&[f64]>,
    ) -> Result<Vec<TransientPoint>, SolveError> {
        let mut work = circuit.clone();
        for s in &self.stimuli {
            if !work.set_source_dc(&s.source, s.waveform.value(0.0)) {
                return Err(SolveError::InvalidConfig {
                    detail: format!("no independent source named `{}`", s.source),
                });
            }
        }
        let dim = work.dim();
        let mut x = match x0 {
            Some(x0) => {
                debug_assert_eq!(x0.len(), dim, "x0 dimension mismatch");
                x0.to_vec()
            }
            None => vec![0.0; dim],
        };
        let mut state = work.seeded_state(&x);
        let mut meter = BudgetMeter::unlimited();
        // Time points fold into the same stats shape as PTA steps so that a
        // non-convergence error carries the usual counters.
        let fold = StatsFold::default();
        let root = Tele::disabled();
        let tele = root.child(&fold);

        // Reactive elements: (a, b, C) for capacitors, (a, b, branch, L)
        // for inductors.
        let caps: Vec<_> = work
            .devices()
            .iter()
            .filter_map(|d| match d {
                Device::Capacitor(c) => Some((c.node_a(), c.node_b(), c.capacitance())),
                _ => None,
            })
            .collect();
        let inds: Vec<_> = work
            .devices()
            .iter()
            .filter_map(|d| match d {
                Device::Inductor(l) => Some((l.node_a(), l.node_b(), l.branch(), l.inductance())),
                _ => None,
            })
            .collect();

        let mut points = vec![TransientPoint {
            time: 0.0,
            x: x.clone(),
        }];
        let mut t = 0.0;
        let mut h = self.h;
        let mut halvings = 0usize;
        // Companion-model stamps keep a fixed pattern across time steps
        // (only conductance values track the step size), so every point
        // replays one symbolic analysis and reuses one stamp plan.
        let mut ws = NewtonWorkspace::new();
        // Stop when the remaining interval is a negligible fraction of the
        // nominal step: float accumulation otherwise leaves a ~1e-19 s
        // sliver whose companion conductance C/h overflows any tolerance.
        while self.t_stop - t > 1e-9 * self.h {
            let h_step = h.min(self.t_stop - t);
            let t_next = t + h_step;
            for s in &self.stimuli {
                work.set_source_dc(&s.source, s.waveform.value(t_next));
            }
            let x_prev = x.clone();
            let caps_ref = caps.as_slice();
            let inds_ref = inds.as_slice();
            let xp = x_prev.as_slice();
            let mut companion = move |x_cur: &[f64], st: &mut Stamper<'_>| {
                for &(a, b, c) in caps_ref {
                    let g = c / h_step;
                    let dv =
                        (a.voltage(x_cur) - b.voltage(x_cur)) - (a.voltage(xp) - b.voltage(xp));
                    let i = g * dv;
                    if let Some(ia) = a.index() {
                        st.res_raw(ia, i);
                        st.jac_raw(ia, ia, g);
                        if let Some(ib) = b.index() {
                            st.jac_raw(ia, ib, -g);
                        }
                    }
                    if let Some(ib) = b.index() {
                        st.res_raw(ib, -i);
                        st.jac_raw(ib, ib, g);
                        if let Some(ia) = a.index() {
                            st.jac_raw(ib, ia, -g);
                        }
                    }
                }
                for &(_, _, br, l) in inds_ref {
                    // Branch equation gains the inductor voltage term:
                    // v_a − v_b − (L/h)(i − i_prev) = 0 replaces the DC short.
                    let gl = l / h_step;
                    st.res_raw(br, -(gl * (x_cur[br] - xp[br])));
                    st.jac_raw(br, br, -gl);
                }
            };
            let saved_state = state.clone();
            let out = newton_iterate(
                &work,
                &self.newton,
                &x,
                &mut state,
                &mut companion,
                &mut meter,
                &mut ws,
                &tele,
            )?;
            let accepted = out.converged;
            if accepted {
                x = out.x;
                t = t_next;
                points.push(TransientPoint {
                    time: t,
                    x: x.clone(),
                });
                if halvings > 0 {
                    h = (h * 2.0).min(self.h);
                    halvings -= 1;
                }
            } else {
                state = saved_state;
                halvings += 1;
                h /= 2.0;
            }
            tele.emit(Payload::PtaStep {
                accepted,
                h: h_step,
                h_next: h,
                gamma: None,
                nr_iterations: out.iterations,
                residual: out.residual,
                pta_converged: false,
                time: t_next,
            });
            if !accepted && halvings > self.max_halvings {
                return Err(SolveError::NonConvergent {
                    stats: fold.snapshot(),
                });
            }
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NewtonRaphson;

    fn rc_circuit() -> Circuit {
        rlpta_netlist::parse("rc\nV1 in 0 5\nR1 in out 1k\nC1 out 0 1u\n").unwrap()
    }

    #[test]
    fn rc_charging_matches_analytic_exponential() {
        let c = rc_circuit();
        let tau = 1e-3; // R·C = 1k · 1µ
        let tran = Transient::new(3.0 * tau, tau / 200.0);
        let points = tran.run(&c, None).unwrap();
        let out = c.node_index("out").unwrap();
        for p in points.iter().step_by(50) {
            let expect = 5.0 * (1.0 - (-p.time / tau).exp());
            assert!(
                (p.x[out] - expect).abs() < 0.05,
                "t = {:.3e}: {} vs {}",
                p.time,
                p.x[out],
                expect
            );
        }
    }

    #[test]
    fn rl_current_rise_matches_analytic() {
        // Series RL: i(t) = (V/R)(1 − e^{−tR/L}).
        let c = rlpta_netlist::parse("rl\nV1 in 0 10\nR1 in a 100\nL1 a 0 10m\n").unwrap();
        let tau = 10e-3 / 100.0; // L/R = 100 µs
        let tran = Transient::new(5.0 * tau, tau / 200.0);
        let points = tran.run(&c, None).unwrap();
        // Inductor branch current is the last unknown of its branch index.
        let l_branch = c
            .devices()
            .iter()
            .find_map(|d| match d {
                rlpta_devices::Device::Inductor(l) => Some(l.branch()),
                _ => None,
            })
            .unwrap();
        let last = points.last().unwrap();
        let expect = 0.1 * (1.0 - (-last.time / tau).exp());
        assert!(
            (last.x[l_branch] - expect).abs() < 2e-3,
            "i = {} vs {}",
            last.x[l_branch],
            expect
        );
    }

    #[test]
    fn dc_operating_point_is_a_transient_fixed_point() {
        // Starting from the DC solution with DC sources, nothing moves.
        let c = rlpta_netlist::parse(
            "amp\nV1 vcc 0 12\nR1 vcc b 100k\nR2 b 0 22k\nRC vcc c 2.2k\nRE e 0 1k\nC1 c 0 1n\nQ1 c b e QN\n.model QN NPN(IS=1e-15 BF=120)\n",
        )
        .unwrap();
        let dc = NewtonRaphson::default().solve(&c).unwrap();
        let tran = Transient::new(1e-6, 1e-8);
        let points = tran.run(&c, Some(&dc.x)).unwrap();
        let first = &points[0].x;
        let last = &points.last().unwrap().x;
        for (a, b) in first.iter().zip(last) {
            assert!((a - b).abs() < 1e-6, "drifted: {a} vs {b}");
        }
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 5.0,
            delay: 1e-6,
            rise: 1e-7,
            fall: 1e-7,
            width: 1e-6,
            period: 4e-6,
        };
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(0.5e-6), 0.0);
        assert!((w.value(1.05e-6) - 2.5).abs() < 1e-9, "mid-rise");
        assert_eq!(w.value(1.5e-6), 5.0);
        assert_eq!(w.value(3.0e-6), 0.0);
        // Periodic repeat.
        assert_eq!(w.value(5.5e-6), 5.0);
    }

    #[test]
    fn sin_waveform_shape() {
        let w = Waveform::Sin {
            offset: 1.0,
            ampl: 2.0,
            freq: 1e3,
        };
        assert!((w.value(0.0) - 1.0).abs() < 1e-12);
        assert!((w.value(0.25e-3) - 3.0).abs() < 1e-9);
        assert!((w.value(0.75e-3) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn pulsed_rc_follows_the_drive() {
        let c = rc_circuit();
        let tran = Transient::new(4e-3, 5e-6).with_stimulus(
            "V1",
            Waveform::Pulse {
                v1: 0.0,
                v2: 5.0,
                delay: 0.0,
                rise: 0.0,
                fall: 0.0,
                width: 2e-3,
                period: 1e9,
            },
        );
        let points = tran.run(&c, None).unwrap();
        let out = c.node_index("out").unwrap();
        // Near the end of the 2 ms pulse (2τ) the cap has charged to ~86%;
        // 2 ms after the fall it has discharged back toward 0.
        let at = |t: f64| {
            points
                .iter()
                .min_by(|p, q| {
                    (p.time - t)
                        .abs()
                        .partial_cmp(&(q.time - t).abs())
                        .expect("finite")
                })
                .unwrap()
                .x[out]
        };
        assert!(at(2e-3) > 4.0, "charged: {}", at(2e-3));
        assert!(at(4e-3) < 1.0, "discharged: {}", at(4e-3));
    }

    #[test]
    fn missing_stimulus_source_is_reported() {
        let c = rc_circuit();
        let tran = Transient::new(1e-3, 1e-5).with_stimulus("V99", Waveform::Dc(1.0));
        assert!(matches!(
            tran.run(&c, None),
            Err(SolveError::InvalidConfig { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "need 0 < h <= t_stop")]
    fn rejects_bad_step() {
        let _ = Transient::new(1e-3, 2e-3);
    }
}
