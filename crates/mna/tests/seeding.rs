//! The limiter-only seeding behind [`Circuit::seeded_state_into`] against
//! the walk it replaced.
//!
//! The oracle here is that walk, kept only as a test: from a zeroed state,
//! full residual-only device passes at `x` until no state slot moves by
//! `1e-12` or more, at most 64 passes. Seeding must reach its state bit for
//! bit on generated decks holding every nonlinear kind (NPN and PNP BJTs,
//! NMOS and PMOS FETs, a diode with `RS` and `BV`, N- and P-channel JFETs),
//! at iterates drawn ±0.01, ±1, ±10 and ±50 V around the operating point,
//! at the 64-pass cap, and with NaN and ±∞ entries. Wherever
//! [`Circuit::seeding_lands`] answers `true` without walking, the walk
//! must have landed on the junction voltages.

use proptest::prelude::*;
use rlpta_devices::{
    Bjt, BjtModel, Diode, DiodeModel, EvalCtx, Jfet, JfetModel, MosModel, Mosfet, Node, Resistor,
    Stamper, Vsource,
};
use rlpta_linalg::{SparseLu, Triplet};
use rlpta_mna::{Circuit, CircuitBuilder, ResidualScratch};

/// The walk oracle. Returns the seeded state and the passes it took.
fn walk(c: &Circuit, x: &[f64]) -> (Vec<f64>, usize) {
    let ctx = EvalCtx::dc(x);
    let mut state = c.new_state();
    let mut residual = vec![0.0; c.dim()];
    for pass in 1..=64 {
        let before = state.clone();
        residual.fill(0.0);
        let mut st = Stamper::residual_only(&mut residual);
        let mut off = 0;
        for d in c.devices() {
            let len = d.state_len();
            d.stamp(&ctx, &mut st, &mut state[off..off + len]);
            off += len;
        }
        let moved = state
            .iter()
            .zip(&before)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if moved < 1e-12 {
            return (state, pass);
        }
    }
    (state, 64)
}

/// `stages` copies of a stage holding one device of every nonlinear kind,
/// each biased from a `vcc` rail through resistors scaled by `r`.
fn mixed(vcc: f64, r: f64, rs: f64, bv: f64, stages: usize) -> Circuit {
    let mut b = CircuitBuilder::new("mixed");
    let rail = b.node("vcc");
    let gnd = Node::GROUND;
    b.add(Vsource::new("V1", rail, gnd, vcc));
    for i in 0..stages {
        let mut node = |name: &str| b.node(&format!("{name}{i}"));
        let [qc, qb, qe, pc, pb, pe] = ["qc", "qb", "qe", "pc", "pb", "pe"].map(&mut node);
        let [md, mg, pd, pg, da, jd, jg, js] =
            ["md", "mg", "pd", "pg", "da", "jd", "jg", "js"].map(&mut node);
        let mut res = |name: &str, a: Node, z: Node, value: f64| {
            b.add(Resistor::new(format!("R{name}{i}"), a, z, value));
        };
        // NPN and PNP bias stages.
        res("qc", rail, qc, r);
        res("qb", rail, qb, 20.0 * r);
        res("qe", qe, gnd, 0.1 * r);
        res("pe", rail, pe, 0.1 * r);
        res("pb", pb, gnd, 20.0 * r);
        res("pc", pc, gnd, r);
        // NMOS and PMOS inverter halves, gates on dividers.
        res("md", rail, md, r);
        res("mg1", rail, mg, 10.0 * r);
        res("mg2", mg, gnd, 10.0 * r);
        res("pd", pd, gnd, r);
        res("pg1", rail, pg, 10.0 * r);
        res("pg2", pg, gnd, 30.0 * r);
        // Diode clamp and JFET source follower.
        res("da", rail, da, r);
        res("jd", rail, jd, r);
        res("jg", jg, gnd, 10.0 * r);
        res("js", js, gnd, r);
        b.add(Bjt::new(
            format!("QN{i}"),
            qc,
            qb,
            qe,
            BjtModel::npn(1e-15, 100.0, 1.0),
        ));
        b.add(Bjt::new(
            format!("QP{i}"),
            pc,
            pb,
            pe,
            BjtModel::pnp(1e-15, 80.0, 2.0),
        ));
        b.add(Mosfet::new(
            format!("MN{i}"),
            md,
            mg,
            gnd,
            gnd,
            MosModel::nmos(0.7, 1e-4),
            10.0,
        ));
        b.add(Mosfet::new(
            format!("MP{i}"),
            pd,
            pg,
            rail,
            rail,
            MosModel::pmos(0.8, 4e-5),
            20.0,
        ));
        let diode = DiodeModel {
            rs,
            bv,
            ..DiodeModel::default()
        };
        b.add(Diode::new(format!("D{i}"), da, gnd, diode));
        let jfet = if i % 2 == 0 {
            JfetModel::njf(-2.0, 1e-4)
        } else {
            JfetModel::pjf(-2.0, 1e-4)
        };
        b.add(Jfet::new(format!("J{i}"), jd, jg, js, jfet));
    }
    b.build().expect("generated deck builds")
}

/// The operating point as plain limited Newton from zero finds it (or its
/// last finite iterate when that does not converge in 100 steps).
fn operating_point(c: &Circuit) -> Vec<f64> {
    let dim = c.dim();
    let mut x = vec![0.0; dim];
    let mut state = c.new_state();
    let mut jac = Triplet::new(dim, dim);
    let mut residual = vec![0.0; dim];
    for _ in 0..100 {
        c.assemble_into(&EvalCtx::dc(&x), &mut jac, &mut residual, &mut state);
        let Ok(lu) = SparseLu::factorize(&jac.to_csr()) else {
            break;
        };
        let rhs: Vec<f64> = residual.iter().map(|v| -v).collect();
        let Ok(dx) = lu.solve(&rhs) else { break };
        if !dx.iter().all(|d| d.is_finite()) {
            break;
        }
        for (xi, d) in x.iter_mut().zip(&dx) {
            *xi += d;
        }
        if dx.iter().all(|d| d.abs() < 1e-9) {
            break;
        }
    }
    x
}

/// A deterministic pseudo-random value in `[-1, 1]` (SplitMix64).
fn unit(seed: u64) -> f64 {
    let mut h = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    2.0 * (h >> 11) as f64 / (1u64 << 53) as f64 - 1.0
}

/// `center` plus a uniform draw in `[-span, span]` per entry.
fn around(center: &[f64], span: f64, seed: u64) -> Vec<f64> {
    center
        .iter()
        .enumerate()
        .map(|(i, c)| c + span * unit(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Seeds at `x` through both public entry points, asserts both equal the
/// walk bit for bit, and returns the walk's pass count. Where
/// [`Circuit::seeding_lands`] claims the walk lands, also asserts that it
/// did: one more limiter pass reports every device landed and moves
/// nothing.
fn check(c: &Circuit, x: &[f64], scratch: &mut ResidualScratch) -> usize {
    let (want, passes) = walk(c, x);
    if c.seeding_lands(x) {
        let mut limited = want.clone();
        assert!(
            c.limit_state(x, &mut limited),
            "seeding_lands at {x:?}, but the walk did not land"
        );
        assert_eq!(
            bits(&limited),
            bits(&want),
            "the landed walk moved at {x:?}"
        );
    }
    assert_eq!(
        bits(&c.seeded_state(x)),
        bits(&want),
        "seeded_state at {x:?}"
    );
    let mut state = vec![f64::NAN; c.state_len()];
    c.seeded_state_into(x, &mut state, scratch);
    assert_eq!(bits(&state), bits(&want), "seeded_state_into at {x:?}");
    passes
}

const SPANS: [f64; 4] = [0.01, 1.0, 10.0, 50.0];

proptest! {
    /// Generated decks at iterates drawn around the operating point at
    /// every span, one scratch carried across all of them.
    #[test]
    fn seeding_matches_the_walk_around_the_operating_point(
        vcc in 1.0f64..15.0,
        r in 100.0f64..20_000.0,
        rs in 0.0f64..50.0,
        bv in 0.0f64..8.0,
        stages in 1usize..3,
        seed in any::<u64>(),
    ) {
        let c = mixed(vcc, r, rs, bv, stages);
        let op = operating_point(&c);
        let mut scratch = ResidualScratch::default();
        check(&c, &op, &mut scratch);
        for (k, span) in SPANS.into_iter().enumerate() {
            for draw in 0..4u64 {
                check(&c, &around(&op, span, seed ^ (8 * k as u64 + draw)), &mut scratch);
            }
        }
    }

    /// Non-finite entries (NaN, +∞, −∞) anywhere in the iterate.
    #[test]
    fn seeding_matches_the_walk_on_non_finite_iterates(
        vcc in 1.0f64..15.0,
        stages in 1usize..3,
        seed in any::<u64>(),
        which in 0usize..3,
        every in 1usize..6,
    ) {
        let c = mixed(vcc, 1_000.0, 10.0, 5.0, stages);
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let mut x = around(&operating_point(&c), 1.0, seed);
        for xi in x.iter_mut().skip(seed as usize % every).step_by(every) {
            *xi = bad;
        }
        check(&c, &x, &mut ResidualScratch::default());
    }
}

/// A lone NMOS whose gate reads NaN: `fetlim` lifts the zero state to
/// `vto + 0.5`, then clamps the NaN to `vto + 4` while reporting it
/// unlimited, and only the third pass reaches NaN. Every junction landed
/// on the first pass, so a stop rule keyed on the limiters' flag would
/// end after the second pass at `vto + 4`; seeding walks on with the
/// oracle.
#[test]
fn seeding_walks_past_a_silent_nan_clamp() {
    let mut b = CircuitBuilder::new("nan gate");
    let (d, g) = (b.node("d"), b.node("g"));
    b.add(Mosfet::new(
        "M1",
        d,
        g,
        Node::GROUND,
        Node::GROUND,
        MosModel::nmos(0.7, 1e-4),
        10.0,
    ));
    b.add(Resistor::new("RD", d, Node::GROUND, 1e3));
    b.add(Resistor::new("RG", g, Node::GROUND, 1e3));
    let c = b.build().expect("deck builds");
    let (at_d, at_g) = (
        d.index().expect("not ground"),
        g.index().expect("not ground"),
    );
    let mut x = vec![0.0; c.dim()];
    x[at_d] = 1.0;
    x[at_g] = f64::NAN;
    let passes = check(&c, &x, &mut ResidualScratch::default());
    assert_eq!(passes, 3);
    assert!(c.seeded_state(&x)[0].is_nan(), "the gate state ends at NaN");
}

/// The widest draws drive the walk to its 64-pass cap, and seeding still
/// matches it there.
#[test]
fn seeding_matches_the_walk_at_the_pass_cap() {
    let c = mixed(12.0, 2_000.0, 10.0, 5.0, 2);
    let op = operating_point(&c);
    let mut scratch = ResidualScratch::default();
    let capped = (0..200)
        .filter(|&seed| check(&c, &around(&op, 50.0, seed), &mut scratch) == 64)
        .count();
    assert!(capped > 0, "no draw reached the 64-pass cap");
}

/// [`Circuit::seeding_lands`] answers `true` near the operating point of
/// every generated deck (so the checks above are not vacuous) and `false`
/// wherever the walk hit the pass cap.
#[test]
fn seeding_lands_near_the_operating_point_and_not_at_the_cap() {
    for stages in 1..3 {
        let c = mixed(12.0, 2_000.0, 10.0, 5.0, stages);
        let op = operating_point(&c);
        assert!(
            c.seeding_lands(&op),
            "{stages} stages: not decided at the operating point"
        );
        for seed in 0..100 {
            let x = around(&op, 0.01, seed);
            assert!(c.seeding_lands(&x), "{stages} stages: not decided at {x:?}");
            check(&c, &x, &mut ResidualScratch::default());
            let far = around(&op, 50.0, seed);
            if walk(&c, &far).1 == 64 {
                assert!(
                    !c.seeding_lands(&far),
                    "claimed to land at the cap: {far:?}"
                );
            }
        }
    }
}
