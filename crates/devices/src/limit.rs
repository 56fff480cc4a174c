//! SPICE junction-voltage limiting and overflow-safe exponentials.
//!
//! Newton–Raphson on exponential device equations diverges instantly if a
//! junction voltage overshoots: `exp(1 V / 0.0259 V)` overflows any float.
//! Every SPICE engine therefore (a) evaluates the exponential with a linear
//! continuation beyond a cut-off ([`limexp`]) and (b) pulls each new junction
//! voltage back toward the previous iterate when it tries to jump too far
//! ([`pnjlim`], [`fetlim`]). Both are reproduced here following Nagel's
//! SPICE2 formulas.

/// Argument beyond which [`limexp`] switches to linear continuation.
const EXP_LIMIT: f64 = 80.0;

/// Overflow-safe exponential: exact `exp(x)` for `x ≤ 80`, first-order linear
/// continuation `exp(80)·(1 + x − 80)` above.
///
/// The continuation keeps the function C¹, so Newton still sees a consistent
/// derivative (see [`limexp_deriv`]).
///
/// # Example
///
/// ```
/// use rlpta_devices::limit::limexp;
///
/// assert_eq!(limexp(0.0), 1.0);
/// assert!(limexp(1000.0).is_finite());
/// ```
pub fn limexp(x: f64) -> f64 {
    if x <= EXP_LIMIT {
        x.exp()
    } else {
        EXP_LIMIT.exp() * (1.0 + x - EXP_LIMIT)
    }
}

/// Derivative of [`limexp`].
pub fn limexp_deriv(x: f64) -> f64 {
    if x <= EXP_LIMIT {
        x.exp()
    } else {
        EXP_LIMIT.exp()
    }
}

/// Critical voltage of a junction: the voltage where the diode current slope
/// equals `1/√2 · vt/Is` — above it Newton steps must be damped.
///
/// `vcrit = vt · ln(vt / (√2 · Is))`.
pub fn junction_vcrit(vt: f64, is: f64) -> f64 {
    vt * (vt / (std::f64::consts::SQRT_2 * is)).ln()
}

/// SPICE2 `pnjlim`: limits the update of a p–n junction voltage.
///
/// Given the proposed new junction voltage `vnew`, the previous iterate
/// `vold`, the thermal voltage `vt` and the critical voltage `vcrit`,
/// returns the limited voltage and whether limiting occurred (SPICE treats a
/// limited device as non-converged for that iteration).
///
/// # Example
///
/// ```
/// use rlpta_devices::limit::{junction_vcrit, pnjlim};
///
/// let vt = 0.02585;
/// let vcrit = junction_vcrit(vt, 1e-14);
/// let (v, limited) = pnjlim(5.0, 0.6, vt, vcrit);
/// assert!(limited);
/// assert!(v < 1.0); // pulled back near the junction knee
/// ```
pub fn pnjlim(vnew: f64, vold: f64, vt: f64, vcrit: f64) -> (f64, bool) {
    if vnew > vcrit && (vnew - vold).abs() > 2.0 * vt {
        if vold > 0.0 {
            let arg = 1.0 + (vnew - vold) / vt;
            if arg > 0.0 {
                (vold + vt * arg.ln(), true)
            } else {
                (vcrit, true)
            }
        } else {
            (vt * (vnew / vt).ln().max(1.0), true)
        }
    } else {
        (vnew, false)
    }
}

/// Whether a limiter's output `out` is its finite input `v`, bit for bit. For finite
/// `v`, `pnjlim(v, v, ..)` and `fetlim(v, v, ..)` return `v`, so a limiter
/// state holding a landed voltage is the limiter's fixed point: limiting
/// the same `v` again moves nothing. The limiters' own `limited` flag
/// cannot stand in for this: `fetlim` clamps a NaN `vnew` through
/// `f64::max`/`min` and reports it unlimited.
pub(crate) fn landed(v: f64, out: f64) -> bool {
    v.is_finite() && v.to_bits() == out.to_bits()
}

/// SPICE `fetlim`: limits the update of a MOSFET gate–source voltage around
/// the threshold `vto`, keeping Newton from bouncing across the square-law
/// knee.
pub fn fetlim(vnew: f64, vold: f64, vto: f64) -> (f64, bool) {
    let vtsthi = 2.0 * (vold - vto).abs() + 2.0;
    let vtstlo = vtsthi / 2.0 + 2.0;
    let vtox = vto + 3.5;
    let delv = vnew - vold;

    let limited;
    let out = if vold >= vto {
        if vold >= vtox {
            if delv <= 0.0 {
                // going off
                if vnew >= vtox {
                    if -delv > vtstlo {
                        limited = true;
                        vold - vtstlo
                    } else {
                        limited = false;
                        vnew
                    }
                } else {
                    limited = true;
                    vnew.max(vto + 2.0)
                }
            } else {
                // staying on
                if delv >= vtsthi {
                    limited = true;
                    vold + vtsthi
                } else {
                    limited = false;
                    vnew
                }
            }
        } else {
            // middle region
            if delv <= 0.0 {
                limited = vnew < vto - 0.5;
                vnew.max(vto - 0.5)
            } else {
                limited = vnew > vto + 4.0;
                vnew.min(vto + 4.0)
            }
        }
    } else {
        // off
        if delv <= 0.0 {
            if -delv > vtsthi {
                limited = true;
                vold - vtsthi
            } else {
                limited = false;
                vnew
            }
        } else {
            let vtemp = vto + 0.5;
            if vnew <= vtemp {
                if delv > vtstlo {
                    limited = true;
                    vold + vtstlo
                } else {
                    limited = false;
                    vnew
                }
            } else {
                limited = true;
                vtemp
            }
        }
    };
    (out, limited)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limexp_matches_exp_below_cutoff() {
        for x in [-5.0, 0.0, 1.0, 40.0, 79.9] {
            assert_eq!(limexp(x), x.exp());
        }
    }

    #[test]
    fn limexp_is_continuous_at_cutoff() {
        let below = limexp(EXP_LIMIT - 1e-9);
        let above = limexp(EXP_LIMIT + 1e-9);
        assert!((below - above).abs() / below < 1e-6);
    }

    #[test]
    fn limexp_is_finite_and_monotone_far_out() {
        let a = limexp(100.0);
        let b = limexp(200.0);
        assert!(a.is_finite() && b.is_finite());
        assert!(b > a);
    }

    #[test]
    fn limexp_deriv_matches_finite_difference() {
        for x in [0.0, 10.0, 79.0, 90.0, 150.0] {
            let h = 1e-6;
            let fd = (limexp(x + h) - limexp(x - h)) / (2.0 * h);
            let d = limexp_deriv(x);
            assert!((fd - d).abs() / d.max(1.0) < 1e-4, "x={x}: {fd} vs {d}");
        }
    }

    #[test]
    fn vcrit_for_typical_diode() {
        let vcrit = junction_vcrit(0.02585, 1e-14);
        // Typical silicon junction: a bit under a volt.
        assert!(vcrit > 0.5 && vcrit < 1.0, "vcrit = {vcrit}");
    }

    #[test]
    fn pnjlim_passes_small_updates() {
        let (v, limited) = pnjlim(0.61, 0.6, 0.02585, 0.9);
        assert_eq!(v, 0.61);
        assert!(!limited);
    }

    #[test]
    fn pnjlim_limits_large_forward_jump() {
        let vt = 0.02585;
        let vcrit = junction_vcrit(vt, 1e-14);
        let (v, limited) = pnjlim(10.0, 0.7, vt, vcrit);
        assert!(limited);
        assert!(v > 0.7 && v < 1.2, "limited to {v}");
    }

    #[test]
    fn pnjlim_limits_jump_from_reverse() {
        let vt = 0.02585;
        let vcrit = junction_vcrit(vt, 1e-14);
        let (v, limited) = pnjlim(5.0, -1.0, vt, vcrit);
        assert!(limited);
        assert!(v > 0.0 && v < 1.0, "limited to {v}");
    }

    #[test]
    fn pnjlim_ignores_reverse_bias() {
        let (v, limited) = pnjlim(-3.0, -1.0, 0.02585, 0.9);
        assert_eq!(v, -3.0);
        assert!(!limited);
    }

    #[test]
    fn fetlim_passes_small_updates() {
        let (v, limited) = fetlim(1.55, 1.5, 1.0);
        assert_eq!(v, 1.55);
        assert!(!limited);
    }

    #[test]
    fn fetlim_limits_huge_turn_on() {
        let (v, limited) = fetlim(50.0, 0.0, 1.0);
        assert!(limited);
        assert!(v <= 5.0, "limited to {v}");
    }

    /// `(v, v)` is a fixed point of both limiters for finite `v`, bit for
    /// bit: in every `fetlim` region (off, middle, fully on), with `±0.0`
    /// in each of them, so a state that landed is never moved again.
    #[test]
    fn limiters_fix_a_landed_voltage_bitwise() {
        let vt = 0.02585;
        let vcrit = junction_vcrit(vt, 1e-14);
        let volts = [
            0.0, -0.0, 1e-300, -1e-300, 0.3, 0.7, 0.9, 2.0, 5.0, 40.0, -3.0, -50.0, 1e300,
        ];
        for v in volts {
            let (out, _) = pnjlim(v, v, vt, vcrit);
            assert_eq!(out.to_bits(), v.to_bits(), "pnjlim({v}, {v})");
            assert!(landed(v, out));
        }
        // The offsets from vto cover every region: off below vto, middle
        // in [vto, vto + 3.5), fully on above. For ±0.0 itself, vto = 1.0
        // puts it off, vto = -3.0 in the middle and vto = -4.0 fully on.
        for vto in [1.0, -3.0, -4.0, 0.0, -0.0, 0.7, -2.0] {
            for offset in [-10.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.4, 3.5, 3.6, 10.0] {
                for v in [vto + offset, 0.0, -0.0] {
                    let (out, limited) = fetlim(v, v, vto);
                    assert_eq!(out.to_bits(), v.to_bits(), "fetlim({v}, {v}, {vto})");
                    assert!(!limited);
                    assert!(landed(v, out));
                }
            }
        }
    }

    /// The NaN clamp the `limited` flag misses: a NaN gate voltage in the
    /// middle region comes back as `vto + 4` with `limited == false`, yet
    /// it has not landed, so seeding keeps walking as the device would.
    #[test]
    fn fetlim_clamps_nan_without_flagging_it() {
        let (out, limited) = fetlim(f64::NAN, 2.0, 1.0);
        assert_eq!(out, 5.0);
        assert!(!limited);
        assert!(!landed(f64::NAN, out));
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!landed(v, v), "an infinite voltage never lands");
        }
    }

    #[test]
    fn fetlim_limits_huge_turn_off() {
        let (v, limited) = fetlim(-50.0, 6.0, 1.0);
        assert!(limited);
        assert!(v >= -20.0, "limited to {v}");
    }
}
