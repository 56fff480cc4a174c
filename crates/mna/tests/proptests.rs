//! Property-based tests for circuit construction and MNA assembly.

use proptest::prelude::*;
use rlpta_devices::{
    Bjt, BjtModel, Diode, DiodeModel, EvalCtx, Isource, Node, Resistor, Stamper, Vsource,
};
use rlpta_linalg::{CsrMatrix, Triplet};
use rlpta_mna::{Circuit, CircuitBuilder, CircuitFeatures, DeviceSnapshot, StampPlan};

/// A random circuit over four nodes: one source on the first node, then
/// per pick a resistor, a diode or an NPN between picked nodes (index 0 is
/// ground). `None` when the picks do not build.
fn random_circuit(picks: &[(u8, usize, usize, usize, f64)]) -> Option<Circuit> {
    let mut b = CircuitBuilder::new("split");
    let nodes: Vec<Node> = (0..4).map(|i| b.node(&format!("n{i}"))).collect();
    let at = |i: usize| if i == 0 { Node::GROUND } else { nodes[i - 1] };
    b.add(Vsource::new("V1", nodes[0], Node::GROUND, 5.0));
    for (k, &(kind, a, c, e, v)) in picks.iter().enumerate() {
        match kind {
            0 => b.add(Resistor::new(format!("R{k}"), at(a), at(c), v)),
            1 => b.add(Diode::new(
                format!("D{k}"),
                at(a),
                at(c),
                DiodeModel::default(),
            )),
            _ => b.add(Bjt::new(
                format!("Q{k}"),
                at(a),
                at(c),
                at(e),
                BjtModel::npn(1e-15, 100.0, 1.0),
            )),
        };
    }
    for (i, n) in nodes.iter().enumerate() {
        b.add(Resistor::new(format!("RG{i}"), *n, Node::GROUND, 1e6));
    }
    b.build().ok()
}

/// `v`, or one of the values the slot writer must carry bit for bit:
/// `-0.0`, NaN or an infinity.
fn special(pick: u8, v: f64) -> f64 {
    match pick % 8 {
        0 => -0.0,
        1 => f64::NAN,
        2 => f64::INFINITY,
        _ => v,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn matrix_bits(m: &CsrMatrix) -> Vec<u64> {
    bits(m.values())
}

proptest! {
    /// A resistor-network assembly produces a symmetric Jacobian (resistor
    /// stamps are reciprocal).
    #[test]
    fn resistor_network_jacobian_is_symmetric(
        edges in proptest::collection::vec((0usize..6, 0usize..6, 1.0f64..1e5), 1..15),
    ) {
        let mut b = CircuitBuilder::new("net");
        let nodes: Vec<Node> = (0..6).map(|i| b.node(&format!("n{i}"))).collect();
        let mut added = 0;
        for (k, (i, j, r)) in edges.iter().enumerate() {
            if i != j {
                b.add(Resistor::new(format!("R{k}"), nodes[*i], nodes[*j], *r));
                added += 1;
            }
        }
        // Ground every node through a large resistor so nothing dangles.
        for (i, n) in nodes.iter().enumerate() {
            b.add(Resistor::new(format!("RG{i}"), *n, Node::GROUND, 1e6));
        }
        prop_assume!(added > 0);
        let c = b.build().expect("builds");
        let x = vec![0.0; c.dim()];
        let ctx = EvalCtx::dc(&x);
        let (jac, _) = c.assemble(&ctx);
        let m = jac.to_csr();
        for r in 0..c.dim() {
            for col in 0..c.dim() {
                let a = m.get(r, col);
                let bb = m.get(col, r);
                prop_assert!((a - bb).abs() <= 1e-12 * a.abs().max(1.0), "asymmetry at ({r},{col})");
            }
        }
    }

    /// The KCL residual at any operating point equals J·x for a linear
    /// resistive circuit with no sources (F(x) = G·x).
    #[test]
    fn linear_residual_equals_jacobian_times_x(
        x_vals in proptest::collection::vec(-5.0f64..5.0, 4),
    ) {
        let mut b = CircuitBuilder::new("lin");
        let n: Vec<Node> = (0..4).map(|i| b.node(&format!("n{i}"))).collect();
        b.add(Resistor::new("R0", n[0], n[1], 1e3));
        b.add(Resistor::new("R1", n[1], n[2], 2e3));
        b.add(Resistor::new("R2", n[2], n[3], 3e3));
        for (i, node) in n.iter().enumerate() {
            b.add(Resistor::new(format!("RG{i}"), *node, Node::GROUND, 1e4));
        }
        let c = b.build().expect("builds");
        let ctx = EvalCtx::dc(&x_vals);
        let (jac, res) = c.assemble(&ctx);
        let jx = jac.to_csr().matvec(&x_vals);
        for (a, bb) in res.iter().zip(&jx) {
            prop_assert!((a - bb).abs() < 1e-12 * (1.0 + bb.abs()), "{a} vs {bb}");
        }
    }

    /// Branch unknowns always follow node unknowns and device/branch counts
    /// are consistent.
    #[test]
    fn dimension_bookkeeping(nv in 1usize..6, nr in 1usize..6) {
        let mut b = CircuitBuilder::new("dims");
        let first = b.node("x0");
        for i in 0..nv {
            let n = b.node(&format!("x{i}"));
            b.add(Vsource::new(format!("V{i}"), n, Node::GROUND, i as f64));
        }
        for i in 0..nr {
            let n = b.node(&format!("x{}", i % nv.max(1)));
            b.add(Resistor::new(format!("R{i}"), n, first, 1e3 + i as f64));
        }
        // `first` aliases x0, used by resistors; keep one extra to ground.
        b.add(Resistor::new("RG", first, Node::GROUND, 1e3));
        let c = b.build().expect("builds");
        prop_assert_eq!(c.num_branches(), nv);
        prop_assert_eq!(c.dim(), c.num_nodes() + nv);
        prop_assert_eq!(c.devices().len(), nv + nr + 1);
    }

    /// Feature extraction counts exactly what was inserted.
    #[test]
    fn feature_counts_match_insertions(nr in 0usize..8, ni in 0usize..4) {
        let mut b = CircuitBuilder::new("feat");
        let a = b.node("a");
        b.add(Vsource::new("V0", a, Node::GROUND, 1.0));
        for i in 0..nr {
            b.add(Resistor::new(format!("R{i}"), a, Node::GROUND, 1e3));
        }
        for i in 0..ni {
            b.add(Isource::new(format!("I{i}"), Node::GROUND, a, 1e-3));
        }
        let c = b.build().expect("builds");
        let f = CircuitFeatures::extract(&c);
        prop_assert_eq!(f.num_resistors, nr);
        prop_assert_eq!(f.num_isources, ni);
        prop_assert_eq!(f.num_vsources, 1);
        prop_assert_eq!(f.num_nodes, 1);
    }

    /// Re-assembly into reused buffers is idempotent.
    #[test]
    fn assembly_is_idempotent(v in -10.0f64..10.0) {
        let mut b = CircuitBuilder::new("idem");
        let a = b.node("a");
        b.add(Vsource::new("V", a, Node::GROUND, v));
        b.add(Resistor::new("R", a, Node::GROUND, 1e3));
        let c = b.build().expect("builds");
        let x = vec![0.5, 0.1];
        let ctx = EvalCtx::dc(&x);
        let mut jac = Triplet::new(c.dim(), c.dim());
        let mut res = vec![0.0; c.dim()];
        let mut st = c.new_state();
        c.assemble_into(&ctx, &mut jac, &mut res, &mut st);
        let first_res = res.clone();
        let first_jac = jac.to_csr();
        c.assemble_into(&ctx, &mut jac, &mut res, &mut st);
        prop_assert_eq!(&res, &first_res);
        prop_assert_eq!(jac.to_csr(), first_jac);
    }

    /// The device half a snapshot keeps, replayed under the extra hook,
    /// is bitwise one [`StampPlan::eval_into`]: matrix values, residual,
    /// finite flag and limiter state, for random circuits, iterates
    /// (non-finite entries included, so device stamps go non-finite) and
    /// extra hooks whose pushes repeat targets, reach slots no device
    /// touches and carry `-0.0`, NaN and ∞. The snapshot is taken under a
    /// different hook and replayed into dirty buffers.
    #[test]
    fn snapshot_replay_equals_one_eval(
        picks in proptest::collection::vec((0u8..3, 0usize..5, 0usize..5, 0usize..5, 1.0f64..1e4), 1..8),
        xs in proptest::collection::vec((any::<u8>(), -3.0f64..3.0), 8),
        pushes in proptest::collection::vec((0usize..5, 0usize..5, any::<u8>(), -2.0f64..2.0), 0..12),
        nonfinite_x in any::<bool>(),
    ) {
        let c = random_circuit(&picks);
        prop_assume!(c.is_some());
        let c = c.expect("assumed");
        let dim = c.dim();
        let x: Vec<f64> = xs
            .iter()
            .take(dim)
            .map(|&(p, v)| if nonfinite_x { special(p, v) } else { v })
            .chain(std::iter::repeat(0.25))
            .take(dim)
            .collect();
        let pushes: Vec<(usize, usize, f64)> = pushes
            .iter()
            .map(|&(r, col, p, v)| (r % dim, col % dim, special(p, v)))
            .collect();
        let hook = |scale: f64| {
            let pushes = &pushes;
            move |st: &mut Stamper<'_>| {
                for &(r, col, v) in pushes {
                    st.jac_raw(r, col, scale * v);
                    st.res_raw(r, scale * v);
                }
            }
        };
        let plan = StampPlan::resolve(&c, &mut hook(0.0));
        let ctx = EvalCtx::dc(&x);
        let state0 = c.seeded_state(&x.iter().map(|v| 0.5 * v).collect::<Vec<_>>());

        let mut whole = plan.new_matrix();
        let mut r_whole = vec![0.0; dim];
        let mut s_whole = state0.clone();
        let f_whole = plan.eval_into(&c, &ctx, &mut whole, &mut r_whole, &mut s_whole, &mut hook(1.0));

        // Snapshot under another hook; the full result is still eval_into's.
        let mut snap = DeviceSnapshot::default();
        let mut m = plan.new_matrix();
        let mut r = vec![0.0; dim];
        let mut s = state0.clone();
        let f_snap = plan.eval_snapshot_into(&c, &ctx, &mut m, &mut r, &mut s, &mut hook(1.0), &mut snap);
        prop_assert_eq!(f_snap, f_whole);
        prop_assert_eq!(matrix_bits(&m), matrix_bits(&whole));
        prop_assert_eq!(bits(&r), bits(&r_whole));
        prop_assert_eq!(bits(&s), bits(&s_whole));
        plan.eval_snapshot_into(&c, &ctx, &mut m, &mut r, &mut state0.clone(), &mut hook(-3.0), &mut snap);

        m.values_mut().fill(12.5);
        r.fill(f64::NAN);
        let f_replay = plan.replay_into(&snap, &mut m, &mut r, &mut hook(1.0));
        prop_assert_eq!(f_replay, f_whole);
        prop_assert_eq!(matrix_bits(&m), matrix_bits(&whole));
        prop_assert_eq!(bits(&r), bits(&r_whole));
    }
}
