//! Vector norms and SPICE-style weighted convergence checks.

/// Infinity norm `max |x_i|`; returns `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(rlpta_linalg::norms::inf_norm(&[1.0, -3.0, 2.0]), 3.0);
/// ```
pub fn inf_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).fold(0.0, f64::max)
}

/// Infinity norm of the difference `max |a_i - b_i|`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn diff_inf_norm(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "diff_inf_norm length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// SPICE-style relative update check: `|Δx_i| <= reltol·|x_i| + abstol` for
/// every component.
///
/// This is the per-unknown convergence criterion used for Newton iterations
/// ("`reltol`/`vntol`/`abstol`" in SPICE option decks).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// use rlpta_linalg::norms::within_weighted_tolerance;
///
/// let old = [1.0, 5.0];
/// let new = [1.000001, 5.000004];
/// assert!(within_weighted_tolerance(&new, &old, 1e-3, 1e-6));
/// assert!(!within_weighted_tolerance(&[2.0, 5.0], &old, 1e-3, 1e-6));
/// ```
pub fn within_weighted_tolerance(new: &[f64], old: &[f64], reltol: f64, abstol: f64) -> bool {
    assert_eq!(new.len(), old.len(), "tolerance check length mismatch");
    new.iter().zip(old).all(|(n, o)| {
        let limit = reltol * n.abs().max(o.abs()) + abstol;
        (n - o).abs() <= limit
    })
}

/// Maximum relative change `max |Δx_i| / (|x_i| + floor)`, the paper's Γ
/// ("relative change of the solution") state component.
///
/// `floor` guards against division by zero on nodes near 0 V.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_relative_change(new: &[f64], old: &[f64], floor: f64) -> f64 {
    assert_eq!(new.len(), old.len(), "relative change length mismatch");
    new.iter()
        .zip(old)
        .map(|(n, o)| (n - o).abs() / (o.abs() + floor))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inf_norm_empty_is_zero() {
        assert_eq!(inf_norm(&[]), 0.0);
    }

    #[test]
    fn inf_norm_picks_max_abs() {
        assert_eq!(inf_norm(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn diff_inf_norm_basic() {
        assert_eq!(diff_inf_norm(&[1.0, 2.0], &[0.0, 5.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn diff_inf_norm_panics_on_mismatch() {
        diff_inf_norm(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn weighted_tolerance_absolute_floor() {
        // Tiny values pass on abstol alone.
        assert!(within_weighted_tolerance(&[1e-9], &[0.0], 1e-3, 1e-6));
        assert!(!within_weighted_tolerance(&[1e-3], &[0.0], 1e-3, 1e-6));
    }

    #[test]
    fn weighted_tolerance_relative_part() {
        // 0.05% change on a large value passes with reltol 1e-3.
        assert!(within_weighted_tolerance(&[1000.5], &[1000.0], 1e-3, 1e-6));
        // 1% change fails.
        assert!(!within_weighted_tolerance(&[1010.0], &[1000.0], 1e-3, 1e-6));
    }

    #[test]
    fn max_relative_change_with_floor() {
        let g = max_relative_change(&[2.0], &[1.0], 0.0);
        assert!((g - 1.0).abs() < 1e-15);
        // Floor prevents blow-up at zero.
        let g0 = max_relative_change(&[1.0], &[0.0], 1.0);
        assert!((g0 - 1.0).abs() < 1e-15);
    }
}
