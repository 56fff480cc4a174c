//! Assembly-layer identity of the precompiled stamp plan against the
//! triplet reference.
//!
//! Every Newton run assembles through [`StampPlan::eval_into`] into a
//! persistent CSR buffer and escalates singular systems through a
//! [`BumpPlan`]. The reference — [`Circuit::assemble_into`], the solver's
//! extra pushes, appended Gmin-shunt pushes and [`Triplet::to_csr`] — stays
//! as the oracle. Both drive the same device `stamp` bodies through
//! different sinks, so for a generated family holding every device kind, at
//! random iterates and at the engine's converged operating point, with a
//! PTA-shaped extra hook and Gmin-bump levels 1–3, the two must agree bit
//! for bit: pattern, values (signed zeros included), residual, limiter
//! state and finiteness flag.
//!
//! The residual-only sink behind [`Circuit::residual_into`] and Newton's
//! convergence re-evaluation is held to the same standard: its residual
//! and limiter state equal a triplet assembly's bit for bit, and it
//! consumes fault-injection draws exactly like one. The limiter-only
//! seeding behind [`Circuit::seeded_state_into`] reaches the state of the
//! evaluate-until-still triplet walk bit for bit, on generated decks and on
//! every named benchmark circuit, and consumes no draws.

use proptest::prelude::*;
use rlpta_core::DcEngine;
use rlpta_devices::{Device, EvalCtx, JacSink, Stamper};
use rlpta_linalg::{CsrMatrix, Triplet};
use rlpta_mna::{Circuit, ResidualScratch, StampPlan};

/// Number of deck kinds [`deck`] generates.
const KINDS: usize = 9;

/// A small generated family holding every device kind, so every model's
/// `stamp` body is exercised through every sink: resistor ladders
/// (linear), diode clamps (two-terminal nonlinear), NPN bias chains
/// (three-terminal), NMOS inverters (four-terminal with
/// orientation-dependent operand permutation), N- and P-channel JFET
/// stages, CMOS inverters (PMOS), PNP bias chains, Zener clamps (`BV` and
/// `RS`), and a linear deck holding C, L, I and the E/G/F/H controlled
/// sources.
fn deck(kind: usize, v: f64, r: f64, n: usize) -> String {
    match kind % KINDS {
        0 => {
            let mut d = format!("ladder\nV1 n0 0 {v}\n");
            for i in 0..n {
                d += &format!("R{i} n{i} n{} {r}\n", i + 1);
            }
            d += &format!("RL n{n} 0 {r}\n");
            d
        }
        1 => format!(
            "clamp\nV1 in 0 {v}\nR1 in out {r}\nD1 out 0 DX\nD2 0 out DX\n.model DX D(IS=1e-14)\n"
        ),
        2 => format!(
            "bias\nV1 vcc 0 {v}\nR1 vcc b {r}\nR2 b 0 22k\nRC vcc c 4.7k\nRE e 0 1k\nQ1 c b e QN\n.model QN NPN(IS=1e-15 BF=100)\n"
        ),
        3 => format!(
            "inv\nVDD vdd 0 {v}\nVIN g 0 {}\nRD vdd d {r}\nM1 d g 0 0 NM W=20u L=2u\n.model NM NMOS(VTO=0.7 KP=1e-4)\n",
            v * 0.5
        ),
        4 => format!(
            "jfet\nV1 vdd 0 {v}\nRD vdd d {r}\nJ1 d g s JN\nRS s 0 1k\nRG g 0 100k\nJ2 0 pg ps JP\nRP vdd ps {r}\nRPG pg vdd 100k\n.model JN NJF(VTO=-2 BETA=1e-4)\n.model JP PJF(VTO=-2 BETA=1e-4)\n"
        ),
        5 => format!(
            "cmos\nVDD vdd 0 {v}\nVIN g 0 {}\nM1 d g 0 0 NM W=20u L=2u\nM2 d g vdd vdd PM W=40u L=2u\nRL d 0 {}\n.model NM NMOS(VTO=0.7 KP=1e-4)\n.model PM PMOS(VTO=-0.7 KP=5e-5)\n",
            v * 0.3,
            r * 10.0
        ),
        6 => format!(
            "pnp\nV1 vcc 0 {v}\nR1 b 0 {r}\nR2 vcc b 22k\nRC c 0 4.7k\nRE vcc e 1k\nQ1 c b e QP\n.model QP PNP(IS=1e-15 BF=80)\n"
        ),
        7 => format!(
            "zener\nV1 in 0 {v}\nR1 in out {r}\nD1 0 out DZ\nR2 out 0 10k\n.model DZ D(IS=1e-14 BV=3.3 IBV=1m RS=5)\n"
        ),
        _ => format!(
            "ctrl\nV1 a 0 {v}\nVS a b 0\nR1 b 0 {r}\nL1 b c 1m\nR2 c 0 {r}\nC1 c 0 1u\nI1 0 c 1m\nE1 e 0 c 0 2\nRE e 0 1k\nG1 0 g c 0 1m\nRG g 0 1k\nF1 0 f VS 0.5\nRF f 0 1k\nH1 h 0 VS 100\nRH h 0 1k\n"
        ),
    }
}

fn parse(kind: usize, v: f64, r: f64, n: usize) -> Circuit {
    rlpta_netlist::parse(&deck(kind, v, r, n)).expect("generated deck parses")
}

/// The family holds every device kind, both polarities of every
/// transistor and a diode with breakdown, so the properties below reach
/// every model's `stamp` body.
#[test]
fn deck_family_covers_every_device_kind() {
    use rlpta_devices::{BjtPolarity, JfetPolarity, MosPolarity};
    let mut seen = std::collections::BTreeSet::new();
    for kind in 0..KINDS {
        for d in parse(kind, 5.0, 1_000.0, 2).devices() {
            seen.insert(match d {
                Device::Resistor(_) => "R",
                Device::Capacitor(_) => "C",
                Device::Inductor(_) => "L",
                Device::Vsource(_) => "V",
                Device::Isource(_) => "I",
                Device::Vcvs(_) => "E",
                Device::Vccs(_) => "G",
                Device::Cccs(_) => "F",
                Device::Ccvs(_) => "H",
                Device::Diode(x) if x.model().bv > 0.0 => "D(BV)",
                Device::Diode(_) => "D",
                Device::Bjt(q) if q.model().polarity == BjtPolarity::Npn => "NPN",
                Device::Bjt(_) => "PNP",
                Device::Mosfet(m) if m.model().polarity == MosPolarity::Nmos => "NMOS",
                Device::Mosfet(_) => "PMOS",
                Device::Jfet(j) if j.model().polarity == JfetPolarity::Njf => "NJF",
                Device::Jfet(_) => "PJF",
                _ => "unknown",
            });
        }
    }
    let want = [
        "R", "C", "L", "V", "I", "E", "G", "F", "H", "D", "D(BV)", "NPN", "PNP", "NMOS", "PMOS",
        "NJF", "PJF",
    ];
    assert_eq!(seen, want.into_iter().collect());
}

/// A deterministic pseudo-random vector in `[-span, span]` (SplitMix64).
fn random_vec(seed: u64, len: usize, span: f64) -> Vec<f64> {
    let mut z = seed;
    (0..len)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut h = z;
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            span * (2.0 * (h >> 11) as f64 / (1u64 << 53) as f64 - 1.0)
        })
        .collect()
}

/// The pseudo-element shape the PTA solver injects: node-diagonal
/// companions and source-branch pseudo-inductors, with values that depend
/// on the current iterate (targets never do).
struct PtaExtra {
    num_nodes: usize,
    vsrc_branches: Vec<usize>,
    x_ref: Vec<f64>,
    g_node: f64,
    g_branch: f64,
}

impl PtaExtra {
    fn new(c: &Circuit, seed: u64) -> Self {
        Self {
            num_nodes: c.num_nodes(),
            vsrc_branches: c
                .devices()
                .iter()
                .filter_map(|d| match d {
                    Device::Vsource(v) => Some(v.branch()),
                    _ => None,
                })
                .collect(),
            x_ref: random_vec(seed ^ 0xA5A5, c.dim(), 1.0),
            g_node: 1e-3 * (1 + seed % 7) as f64,
            g_branch: 0.5,
        }
    }

    fn stamp<S: JacSink>(&self, x: &[f64], st: &mut Stamper<'_, S>) {
        for (i, (xi, ri)) in x.iter().zip(&self.x_ref).take(self.num_nodes).enumerate() {
            st.res_raw(i, self.g_node * (xi - ri));
            st.jac_raw(i, i, self.g_node * (1.0 + xi.abs()));
        }
        for &br in &self.vsrc_branches {
            let r_t = 1e-2 * x[br].abs();
            st.res_raw(
                br,
                -(self.g_branch * (x[br] - self.x_ref[br]) + r_t * x[br]),
            );
            st.jac_raw(br, br, -(self.g_branch + r_t));
        }
    }
}

/// One side's assembled system: the plain matrix, the bumped matrices at
/// Gmin-bump levels 1–3, the residual, the limiter state after the pass,
/// and the finiteness flag.
struct Assembled {
    matrix: CsrMatrix,
    bumped: Vec<CsrMatrix>,
    residual: Vec<f64>,
    state: Vec<f64>,
    finite: bool,
}

/// The shunt Newton adds on every node diagonal at bump `level`.
fn gshunt(level: i32) -> f64 {
    1e-9 * 100f64.powi(level)
}

/// Reference side: triplet assembly, extra pushes, appended shunt pushes.
fn via_triplet(c: &Circuit, x: &[f64], extra: &PtaExtra) -> Assembled {
    let dim = c.dim();
    let mut jac = Triplet::new(dim, dim);
    let mut residual = vec![0.0; dim];
    let mut state = c.seeded_state(x);
    c.assemble_into(&EvalCtx::dc(x), &mut jac, &mut residual, &mut state);
    extra.stamp(x, &mut Stamper::new(&mut jac, &mut residual));
    let finite = jac.all_finite();
    let matrix = jac.to_csr();
    let bumped = (1..=3)
        .map(|level| {
            for i in 0..c.num_nodes() {
                jac.push(i, i, gshunt(level));
            }
            jac.to_csr()
        })
        .collect();
    Assembled {
        matrix,
        bumped,
        residual,
        state,
        finite,
    }
}

/// Newton's side: plan scatter into a persistent buffer, bump companion.
fn via_plan(c: &Circuit, plan: &StampPlan, x: &[f64], extra: &PtaExtra) -> Assembled {
    let mut matrix = plan.new_matrix();
    let mut residual = vec![0.0; c.dim()];
    let mut state = c.seeded_state(x);
    let finite = plan.eval_into(
        c,
        &EvalCtx::dc(x),
        &mut matrix,
        &mut residual,
        &mut state,
        &mut |st| extra.stamp(x, st),
    );
    let bump = plan.bump_plan(c.num_nodes());
    let mut work = bump.new_matrix();
    bump.scatter_base(&matrix, &mut work);
    let bumped = (1..=3)
        .map(|level| {
            bump.add_diag(&mut work, gshunt(level));
            work.clone()
        })
        .collect();
    Assembled {
        matrix,
        bumped,
        residual,
        state,
        finite,
    }
}

/// One device pass at `x` from `state` through `st`, limiter state
/// updated in place (the circuit's own per-device state layout).
fn stamp_devices<S: JacSink>(c: &Circuit, x: &[f64], st: &mut Stamper<'_, S>, state: &mut [f64]) {
    let ctx = EvalCtx::dc(x);
    let mut off = 0;
    for d in c.devices() {
        let len = d.state_len();
        d.stamp(&ctx, st, &mut state[off..off + len]);
        off += len;
    }
}

/// One plan pass at `x` from `state0` with `extra`, through
/// [`StampPlan::eval_into`] or, when `residual_only`, through
/// [`StampPlan::eval_residual_into`]. Returns the residual and the state.
fn plan_pass(
    c: &Circuit,
    plan: &StampPlan,
    x: &[f64],
    state0: &[f64],
    extra: &PtaExtra,
    residual_only: bool,
) -> (Vec<f64>, Vec<f64>) {
    let ctx = EvalCtx::dc(x);
    let mut residual = vec![0.0; c.dim()];
    let mut state = state0.to_vec();
    let mut hook = |st: &mut Stamper<'_>| extra.stamp(x, st);
    if residual_only {
        plan.eval_residual_into(c, &ctx, &mut residual, &mut state, &mut hook);
    } else {
        let mut matrix = plan.new_matrix();
        plan.eval_into(c, &ctx, &mut matrix, &mut residual, &mut state, &mut hook);
    }
    (residual, state)
}

/// The evaluate-until-still limiter walk [`Circuit::seeded_state`] is
/// held to: from a zeroed state, full triplet assemblies at `x` until no
/// slot moves by `1e-12` or more, at most 64 of them. Returns the state
/// and the number of assemblies run.
fn walk_reference(c: &Circuit, x: &[f64]) -> (Vec<f64>, usize) {
    let dim = c.dim();
    let mut jac = Triplet::new(dim, dim);
    let mut r = vec![0.0; dim];
    let mut s = c.new_state();
    for pass in 1..=64 {
        let before = s.clone();
        c.assemble_into(&EvalCtx::dc(x), &mut jac, &mut r, &mut s);
        let moved = s
            .iter()
            .zip(&before)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if moved < 1e-12 {
            return (s, pass);
        }
    }
    (s, 64)
}

/// One triplet assembly at `x` from `state`; returns the residual.
fn triplet_pass(c: &Circuit, x: &[f64], mut state: Vec<f64>) -> Vec<f64> {
    let dim = c.dim();
    let mut jac = Triplet::new(dim, dim);
    let mut r = vec![0.0; dim];
    c.assemble_into(&EvalCtx::dc(x), &mut jac, &mut r, &mut state);
    r
}

/// The triplet reference of [`Circuit::residual`]: the limiter walk to a
/// seeded state, then one more triplet pass. Returns the residual and the
/// seeded state.
fn triplet_residual(c: &Circuit, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (seeded, _) = walk_reference(c, x);
    (triplet_pass(c, x, seeded.clone()), seeded)
}

fn resolve(c: &Circuit, extra: &PtaExtra) -> StampPlan {
    let x0 = vec![0.0; c.dim()];
    StampPlan::resolve(c, &mut |st| extra.stamp(&x0, st))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_matrix(a: &CsrMatrix, b: &CsrMatrix, what: &str) {
    assert!(a.same_pattern(b), "{what}: pattern differs");
    assert_eq!(bits(a.values()), bits(b.values()), "{what}: values differ");
}

fn assert_identical(reference: &Assembled, plan: &Assembled) {
    assert_same_matrix(&reference.matrix, &plan.matrix, "matrix");
    for (level, (a, b)) in reference.bumped.iter().zip(&plan.bumped).enumerate() {
        assert_same_matrix(a, b, &format!("gmin bump level {}", level + 1));
    }
    assert_eq!(
        bits(&reference.residual),
        bits(&plan.residual),
        "residual differs"
    );
    assert_eq!(
        bits(&reference.state),
        bits(&plan.state),
        "limiter state differs"
    );
    assert_eq!(reference.finite, plan.finite, "finiteness flag differs");
}

/// Compares both sides at `x` with one plan resolved up front.
fn check_at(c: &Circuit, x: &[f64], seed: u64) {
    let extra = PtaExtra::new(c, seed);
    let plan = resolve(c, &extra);
    assert_identical(&via_triplet(c, x, &extra), &via_plan(c, &plan, x, &extra));
}

proptest! {
    /// Random iterates, including far-from-solution ones that drive the
    /// junction limiters, assemble identically through both paths.
    #[test]
    fn plan_matches_triplet_at_random_iterates(
        kind in 0usize..KINDS,
        v in 0.5f64..15.0,
        r in 50.0f64..50_000.0,
        n in 1usize..8,
        seed in any::<u64>(),
        decade in -1i32..2,
    ) {
        let c = parse(kind, v, r, n);
        check_at(&c, &random_vec(seed, c.dim(), 10f64.powi(decade)), seed);
    }

    /// The engine's converged operating point — the system every warm
    /// Newton iteration re-assembles — is identical through both paths.
    #[test]
    fn plan_matches_triplet_at_converged_point(
        kind in 0usize..KINDS,
        v in 0.5f64..15.0,
        r in 50.0f64..50_000.0,
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let c = parse(kind, v, r, n);
        let sol = DcEngine::builder().build().solve(&c).expect("generated deck solves");
        check_at(&c, &sol.x, seed);
    }

    /// A persistent buffer re-evaluated at a second iterate holds exactly
    /// what a fresh triplet assembly there produces: plan writes overwrite,
    /// they never accumulate across Newton iterations.
    #[test]
    fn persistent_buffer_matches_fresh_triplet(
        kind in 0usize..KINDS,
        v in 0.5f64..15.0,
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let c = parse(kind, v, 1_000.0, n);
        let extra = PtaExtra::new(&c, seed);
        let plan = resolve(&c, &extra);
        let x1 = random_vec(seed, c.dim(), 1.0);
        let x2 = random_vec(seed.wrapping_add(1), c.dim(), 1.0);
        let mut matrix = plan.new_matrix();
        let mut residual = vec![0.0; c.dim()];
        for x in [&x1, &x2] {
            let mut state = c.seeded_state(x);
            plan.eval_into(&c, &EvalCtx::dc(x), &mut matrix, &mut residual, &mut state, &mut |st| {
                extra.stamp(x, st)
            });
        }
        let reference = via_triplet(&c, &x2, &extra);
        assert_same_matrix(&reference.matrix, &matrix, "reused buffer");
        prop_assert_eq!(bits(&reference.residual), bits(&residual));
    }
}

proptest! {
    /// One residual-only pass from an arbitrary limiter state leaves the
    /// residual and the state exactly where a triplet pass leaves them.
    #[test]
    fn residual_only_pass_matches_triplet_pass(
        kind in 0usize..KINDS,
        v in 0.5f64..15.0,
        n in 1usize..6,
        seed in any::<u64>(),
        decade in -1i32..2,
    ) {
        let c = parse(kind, v, 1_000.0, n);
        let x = random_vec(seed, c.dim(), 10f64.powi(decade));
        let state0 = random_vec(seed ^ 0x5EED, c.state_len(), 1.0);
        let mut jac = Triplet::new(c.dim(), c.dim());
        let (mut r_t, mut s_t) = (vec![0.0; c.dim()], state0.clone());
        c.assemble_into(&EvalCtx::dc(&x), &mut jac, &mut r_t, &mut s_t);
        let (mut r_r, mut s_r) = (vec![0.0; c.dim()], state0);
        stamp_devices(&c, &x, &mut Stamper::residual_only(&mut r_r), &mut s_r);
        prop_assert_eq!(bits(&r_t), bits(&r_r));
        prop_assert_eq!(bits(&s_t), bits(&s_r));
    }

    /// The plan's residual-only pass — Newton's convergence re-evaluation —
    /// leaves the residual and the limiter state exactly where a full
    /// [`StampPlan::eval_into`] with the same extra hook leaves them.
    #[test]
    fn plan_residual_pass_matches_eval_into(
        kind in 0usize..KINDS,
        v in 0.5f64..15.0,
        n in 1usize..6,
        seed in any::<u64>(),
        decade in -1i32..2,
    ) {
        let c = parse(kind, v, 1_000.0, n);
        let extra = PtaExtra::new(&c, seed);
        let plan = resolve(&c, &extra);
        let x = random_vec(seed, c.dim(), 10f64.powi(decade));
        let state0 = random_vec(seed ^ 0x5EED, c.state_len(), 1.0);
        let (r_e, s_e) = plan_pass(&c, &plan, &x, &state0, &extra, false);
        let (r_r, s_r) = plan_pass(&c, &plan, &x, &state0, &extra, true);
        prop_assert_eq!(bits(&r_e), bits(&r_r));
        prop_assert_eq!(bits(&s_e), bits(&s_r));
    }

    /// `residual`/`seeded_state` and their buffer-reusing variants equal
    /// the triplet reference bit for bit, with one scratch carried across
    /// circuits of different shapes.
    #[test]
    fn residual_into_matches_triplet_reference(
        kind in 0usize..KINDS,
        v in 0.5f64..15.0,
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut scratch = ResidualScratch::default();
        for (k, c) in [parse(kind, v, 1_000.0, n), parse(kind + 1, v, 470.0, n + 1)]
            .iter()
            .enumerate()
        {
            let x = random_vec(seed.wrapping_add(k as u64), c.dim(), 2.0);
            let (want_r, want_s) = triplet_residual(c, &x);
            prop_assert_eq!(bits(&c.residual(&x)), bits(&want_r));
            prop_assert_eq!(bits(&c.seeded_state(&x)), bits(&want_s));
            let mut r = vec![f64::NAN; c.dim()];
            c.residual_into(&x, &mut r, &mut scratch);
            prop_assert_eq!(bits(&r), bits(&want_r));
            let mut s = vec![f64::NAN; c.state_len()];
            c.seeded_state_into(&x, &mut s, &mut scratch);
            prop_assert_eq!(bits(&s), bits(&want_s));
        }
    }
}

#[cfg(feature = "faults")]
mod faults {
    use super::*;
    use rlpta_core::FaultPlan;

    proptest! {
        /// Seeded NaN-stamp injection draws the same fault sequence on both
        /// sides, so the same entries are poisoned and both report the
        /// system non-finite. The plan side resolves and re-verifies its
        /// plan under the armed injection: declare passes consume no
        /// draws.
        #[test]
        fn nan_stamps_poison_the_same_entries(
            seed in any::<u64>(),
            period in 1u64..10,
            kind in 0usize..KINDS,
            v in 1.0f64..15.0,
        ) {
            let c = parse(kind, v, 1_000.0, 3);
            let x = random_vec(seed, c.dim(), 1.0);
            let extra = PtaExtra::new(&c, seed);
            let faults = FaultPlan::seeded(seed).nan_stamps(period);
            faults.install();
            let reference = via_triplet(&c, &x, &extra);
            faults.install();
            let plan = resolve(&c, &extra);
            prop_assert!(plan.verify_with(&c, &mut rlpta_mna::DeclareScratch::default()));
            let planned = via_plan(&c, &plan, &x, &extra);
            FaultPlan::clear();
            let poisoned = |m: &CsrMatrix| m.values().iter().map(|v| v.is_nan()).collect::<Vec<_>>();
            prop_assert_eq!(poisoned(&reference.matrix), poisoned(&planned.matrix));
            assert_identical(&reference, &planned);
        }

        /// Under NaN-stamp injection the plan's residual-only pass still
        /// matches [`StampPlan::eval_into`]'s residual and state, and draws
        /// exactly as many faults: the assembly that follows poisons the
        /// same entries either way.
        #[test]
        fn plan_residual_pass_draws_like_eval_into(
            seed in any::<u64>(),
            period in 1u64..10,
            kind in 0usize..KINDS,
            v in 1.0f64..15.0,
        ) {
            let c = parse(kind, v, 1_000.0, 3);
            let x = random_vec(seed, c.dim(), 1.0);
            let extra = PtaExtra::new(&c, seed);
            let plan = resolve(&c, &extra);
            let state0 = random_vec(seed ^ 0x5EED, c.state_len(), 1.0);
            let faults = FaultPlan::seeded(seed).nan_stamps(period);
            let follow = || {
                let mut matrix = plan.new_matrix();
                let mut r = vec![0.0; c.dim()];
                let mut s = c.new_state();
                plan.eval_into(&c, &EvalCtx::dc(&x), &mut matrix, &mut r, &mut s, &mut |st| {
                    extra.stamp(&x, st)
                });
                matrix
            };
            faults.install();
            let (r_e, s_e) = plan_pass(&c, &plan, &x, &state0, &extra, false);
            let after_eval = follow();
            faults.install();
            let (r_r, s_r) = plan_pass(&c, &plan, &x, &state0, &extra, true);
            let after_residual = follow();
            FaultPlan::clear();
            prop_assert_eq!(bits(&r_e), bits(&r_r));
            prop_assert_eq!(bits(&s_e), bits(&s_r));
            let poisoned = |m: &CsrMatrix| m.values().iter().map(|v| v.is_nan()).collect::<Vec<_>>();
            prop_assert_eq!(poisoned(&after_eval), poisoned(&after_residual));
        }

        /// A residual-only pass draws the NaN sequence exactly like a
        /// triplet pass: its residual matches, and the triplet assembly
        /// that follows poisons the same entries either way. Seeding draws
        /// nothing, so [`Circuit::residual`] draws exactly one pass: the
        /// reference seeds with faults cleared, then makes one triplet
        /// pass under the installed plan.
        #[test]
        fn residual_only_pass_keeps_the_nan_sequence(
            seed in any::<u64>(),
            period in 1u64..10,
            kind in 0usize..KINDS,
            v in 1.0f64..15.0,
        ) {
            let c = parse(kind, v, 1_000.0, 3);
            let x = random_vec(seed, c.dim(), 1.0);
            let dim = c.dim();
            let faults = FaultPlan::seeded(seed).nan_stamps(period);
            let follow = || {
                let mut jac = Triplet::new(dim, dim);
                let mut r = vec![0.0; dim];
                let mut s = c.new_state();
                c.assemble_into(&EvalCtx::dc(&x), &mut jac, &mut r, &mut s);
                jac.to_csr()
            };

            faults.install();
            let mut jac = Triplet::new(dim, dim);
            let (mut r_t, mut s_t) = (vec![0.0; dim], c.new_state());
            c.assemble_into(&EvalCtx::dc(&x), &mut jac, &mut r_t, &mut s_t);
            let after_triplet = follow();

            faults.install();
            let (mut r_r, mut s_r) = (vec![0.0; dim], c.new_state());
            stamp_devices(&c, &x, &mut Stamper::residual_only(&mut r_r), &mut s_r);
            let after_residual_only = follow();

            faults.install();
            let via_residual = c.residual(&x);
            let after_residual = follow();

            FaultPlan::clear();
            let (seeded, _) = walk_reference(&c, &x);
            faults.install();
            let want_r = triplet_pass(&c, &x, seeded);
            let after_reference = follow();

            faults.install();
            let mut scratch = ResidualScratch::default();
            let mut s = c.new_state();
            c.seeded_state_into(&x, &mut s, &mut scratch);
            let after_seeding = follow();
            faults.install();
            let untouched = follow();
            FaultPlan::clear();

            prop_assert_eq!(bits(&r_t), bits(&r_r));
            prop_assert_eq!(bits(&via_residual), bits(&want_r));
            let poisoned = |m: &CsrMatrix| m.values().iter().map(|v| v.is_nan()).collect::<Vec<_>>();
            prop_assert_eq!(poisoned(&after_triplet), poisoned(&after_residual_only));
            prop_assert_eq!(poisoned(&after_reference), poisoned(&after_residual));
            prop_assert_eq!(poisoned(&untouched), poisoned(&after_seeding));
        }
    }
}

/// Draws per scale and circuit in [`seeding_matches_the_walk_on_every_named_circuit`].
const DRAWS_PER_SCALE: usize = 20;

/// On every named benchmark circuit (Tables 2 and 3, the training corpus
/// and the stress suite), at iterates drawn ±0.01, ±1, ±10 and ±50 V
/// around the engine's operating point, the limiter-only seeding reaches
/// the evaluate-until-still walk's state bit for bit. The widest draws
/// drive the walk to its 64-pass cap, which the test requires to happen.
#[test]
fn seeding_matches_the_walk_on_every_named_circuit() {
    let mut benches = rlpta_circuits::table2();
    benches.extend(rlpta_circuits::table3());
    benches.extend(rlpta_circuits::training_corpus());
    benches.extend(rlpta_circuits::stress());
    let engine = DcEngine::builder()
        .robust()
        .budget(rlpta_core::EngineConfig::experiment().budget())
        .build();
    let mut scratch = ResidualScratch::default();
    let (mut points, mut capped) = (0usize, 0usize);
    for (k, bench) in benches.iter().enumerate() {
        let c = &bench.circuit;
        let op = engine
            .solve(c)
            .map_or_else(|_| vec![0.0; c.dim()], |sol| sol.x);
        for (j, span) in [0.01, 1.0, 10.0, 50.0].into_iter().enumerate() {
            for draw in 0..DRAWS_PER_SCALE {
                let seed = ((k * 4 + j) * DRAWS_PER_SCALE + draw) as u64;
                let x: Vec<f64> = op
                    .iter()
                    .zip(random_vec(seed, c.dim(), span))
                    .map(|(o, d)| o + d)
                    .collect();
                let (want, passes) = walk_reference(c, &x);
                let mut state = vec![f64::NAN; c.state_len()];
                c.seeded_state_into(&x, &mut state, &mut scratch);
                assert_eq!(
                    bits(&state),
                    bits(&want),
                    "{} at span {span}, draw {draw}",
                    bench.name
                );
                points += 1;
                capped += usize::from(passes == 64);
            }
        }
    }
    assert_eq!(points, benches.len() * 4 * DRAWS_PER_SCALE);
    assert!(capped > 0, "no draw reached the 64-pass cap");
    eprintln!(
        "{points} points on {} circuits, {capped} at the 64-pass cap",
        benches.len()
    );
}
