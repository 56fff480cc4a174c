//! Property-based tests for the service layer: structure keys never
//! collide across generated circuit families and equal, bit for bit, the
//! key a triplet assembly of the pattern gives, cached-plan replays are
//! bit-identical to cold solves, warm-started cached solves certify
//! exactly like cold ones — with faults injected where the harness allows —
//! and warm starts outlive the eviction of their structure's plan.

use proptest::prelude::*;
use rlpta_core::prelude::*;
use rlpta_core::telemetry::{Collector, Payload};
use rlpta_devices::{Device, EvalCtx};
use rlpta_linalg::FnvHasher;
use rlpta_mna::Circuit;
use std::sync::Arc;

/// A two-parameter circuit family: an `n`-stage resistor ladder with `d`
/// diode clamps hanging off its first nodes. The *structure* is exactly
/// `(n, d)`; `v` and `r_kohm` only move values.
fn family_deck(n: usize, d: usize, v: f64, r_kohm: f64) -> String {
    let mut deck = format!("fam\nV1 n0 0 {v}\n");
    for i in 0..n {
        deck += &format!("R{i} n{i} n{} {r_kohm}k\n", i + 1);
    }
    deck += &format!("RL n{n} 0 {r_kohm}k\n");
    for k in 0..d {
        deck += &format!("D{k} n{} 0 DX\n", (k % n) + 1);
    }
    if d > 0 {
        deck += ".model DX D(IS=1e-14)\n";
    }
    deck
}

fn family_circuit(n: usize, d: usize, v: f64, r_kohm: f64) -> Circuit {
    rlpta_netlist::parse(&family_deck(n, d, v, r_kohm)).expect("family decks parse")
}

/// The key's `(dim, nnz, hash)` recomputed from the triplet oracle: the
/// Jacobian assembled at `x = 0`, converted with `Triplet::to_csr` and
/// hashed with `pattern_hash`, then the topology fold (node and branch
/// counts, state length, and per device its kind tag, branch count and
/// terminal indices). Incident and telemetry hashes carry this value, so
/// it must not move.
fn triplet_oracle_key(c: &Circuit) -> (usize, usize, u64) {
    let x0 = vec![0.0; c.dim()];
    let pattern = c.assemble(&EvalCtx::dc(&x0)).0.to_csr();
    let mut h = FnvHasher::new();
    h.write_u64(pattern.pattern_hash());
    h.write_usize(c.num_nodes());
    h.write_usize(c.num_branches());
    h.write_usize(c.state_len());
    for device in c.devices() {
        let tag = match device {
            Device::Resistor(_) => 1,
            Device::Capacitor(_) => 2,
            Device::Inductor(_) => 3,
            Device::Vsource(_) => 4,
            Device::Isource(_) => 5,
            Device::Vcvs(_) => 6,
            Device::Vccs(_) => 7,
            Device::Cccs(_) => 8,
            Device::Ccvs(_) => 9,
            Device::Diode(_) => 10,
            Device::Bjt(_) => 11,
            Device::Mosfet(_) => 12,
            Device::Jfet(_) => 13,
            _ => u64::MAX,
        };
        h.write_u64(tag);
        h.write_usize(device.branch_count());
        for node in device.nodes() {
            h.write_u64(node.index().map_or(u64::MAX, |i| i as u64));
        }
    }
    (c.dim(), pattern.nnz(), h.finish())
}

fn key_bits(key: StructureKey) -> (usize, usize, u64) {
    (key.dim(), key.nnz(), key.hash())
}

/// On all 118 named circuits (Tables 2 and 3, the training corpus, the
/// stress suite and fig5), the declare-pass key equals the triplet
/// oracle's bit for bit.
#[test]
fn structure_keys_equal_the_triplet_oracle_on_every_named_circuit() {
    let mut benches = rlpta_circuits::table2();
    benches.extend(rlpta_circuits::table3());
    benches.extend(rlpta_circuits::training_corpus());
    benches.extend(rlpta_circuits::stress());
    benches.extend(rlpta_circuits::fig5());
    assert_eq!(benches.len(), 118);
    for bench in &benches {
        assert_eq!(
            key_bits(StructureKey::of(&bench.circuit)),
            triplet_oracle_key(&bench.circuit),
            "{}",
            bench.name
        );
    }
}

/// `circuit` with every independent source scaled by `1 + 1e-3`: new
/// values on the same structure.
fn jittered(circuit: &Circuit) -> Circuit {
    let mut copy = circuit.clone();
    for device in circuit.devices() {
        let (name, dc) = match device {
            Device::Vsource(v) => (v.name(), v.dc()),
            Device::Isource(i) => (i.name(), i.dc()),
            _ => continue,
        };
        copy.set_source_dc(name, dc * (1.0 + 1e-3));
    }
    copy
}

/// The same 118 circuits keyed in shuffled order through one reused
/// [`KeyScratch`] (what a service does at every admission): each key
/// equals the allocating [`StructureKey::of`] and the triplet oracle, bit
/// for bit, whatever the scratch keyed before. Each circuit is keyed twice
/// in a row, then a value-jittered copy of it, and the copy of the circuit
/// keyed three before, so the scratch's memo hits at its front and behind
/// it as well as missing.
#[test]
fn reused_key_scratch_keys_every_named_circuit_like_the_oracle() {
    use rand::prelude::*;
    use rlpta_core::KeyScratch;
    let mut benches = rlpta_circuits::table2();
    benches.extend(rlpta_circuits::table3());
    benches.extend(rlpta_circuits::training_corpus());
    benches.extend(rlpta_circuits::stress());
    benches.extend(rlpta_circuits::fig5());
    assert_eq!(benches.len(), 118);
    let mut rng = StdRng::seed_from_u64(0x6b65_7973);
    let mut scratch = KeyScratch::default();
    let mut check = |name: &str, circuit: &Circuit| {
        let key = StructureKey::of_in(circuit, &mut scratch);
        assert_eq!(key, StructureKey::of(circuit), "{name}");
        assert_eq!(key_bits(key), triplet_oracle_key(circuit), "{name}");
    };
    for _ in 0..2 {
        for i in (1..benches.len()).rev() {
            benches.swap(i, rng.gen_range(0..=i));
        }
        let copies: Vec<Circuit> = benches.iter().map(|b| jittered(&b.circuit)).collect();
        for (i, bench) in benches.iter().enumerate() {
            let (name, circuit) = (&bench.name, &bench.circuit);
            check(name, circuit);
            check(name, circuit);
            check(name, &copies[i]);
            if let Some(back) = i.checked_sub(3) {
                check(&benches[back].name, &copies[back]);
            }
        }
    }
}

/// Three circuits whose declare passes push identical targets (a current
/// source and a DC-open capacitor stamp no Jacobian entry) but whose
/// topologies differ, keyed back to back through one [`KeyScratch`]: the
/// memo compares the topology words as well as the targets, so each gets
/// its own key, the one [`StructureKey::of`] gives.
#[test]
fn key_memo_separates_structures_with_identical_declared_targets() {
    use rlpta_core::KeyScratch;
    let divider = "divider\nV1 a 0 1\nR1 a b 1k\nR2 b 0 1k\n";
    let circuits: Vec<Circuit> = ["I1 b 0 1m", "C1 b 0 1u", "I1 a 0 1m"]
        .iter()
        .map(|extra| rlpta_netlist::parse(&format!("{divider}{extra}\n")).expect("deck parses"))
        .collect();
    let mut declare = rlpta_mna::DeclareScratch::default();
    let targets = declare.declare(&circuits[0]).to_vec();
    for c in &circuits[1..] {
        assert_eq!(
            declare.declare(c),
            &targets[..],
            "targets must not tell them apart"
        );
    }
    let mut scratch = KeyScratch::default();
    for _ in 0..2 {
        let keys: Vec<StructureKey> = circuits
            .iter()
            .map(|c| StructureKey::of_in(c, &mut scratch))
            .collect();
        for (key, c) in keys.iter().zip(&circuits) {
            assert_eq!(*key, StructureKey::of(c));
        }
        assert!(
            keys[0] != keys[1] && keys[1] != keys[2] && keys[0] != keys[2],
            "{keys:?}"
        );
    }
}

/// Literal keys of three named circuits. The triplet oracle hashes
/// through the same [`FnvHasher`], so a wrong fold would move both it and
/// the key; these values pin the hash itself. Incident, telemetry and
/// Prometheus outputs carry them.
#[test]
fn structure_keys_keep_their_literal_values() {
    for (name, want) in [
        ("gm1", "6172ae7b9e00d424/d5n16"),
        ("gm6", "02099b589ef06832/d15n66"),
        ("fadd32", "dbb679669b052a8d/d132n649"),
    ] {
        let bench = rlpta_circuits::by_name(name).expect("named circuit");
        assert_eq!(StructureKey::of(&bench.circuit).to_string(), want, "{name}");
    }
}

proptest! {
    /// Across the generated family, the declare-pass key equals the
    /// triplet oracle's bit for bit.
    #[test]
    fn structure_keys_equal_the_triplet_oracle(
        n in 1usize..8, d in 0usize..4,
        v in 0.5f64..20.0, r in 0.1f64..100.0,
    ) {
        let c = family_circuit(n, d, v, r);
        prop_assert_eq!(key_bits(StructureKey::of(&c)), triplet_oracle_key(&c));
    }

    /// Two circuits from the family share a [`StructureKey`] **iff** they
    /// share the structural parameters — parameter values never enter the
    /// key, topology always does.
    #[test]
    fn structure_keys_separate_the_circuit_family(
        n1 in 1usize..8, d1 in 0usize..4,
        n2 in 1usize..8, d2 in 0usize..4,
        v1 in 0.5f64..20.0, r1 in 0.1f64..100.0,
        v2 in 0.5f64..20.0, r2 in 0.1f64..100.0,
    ) {
        let k1 = StructureKey::of(&family_circuit(n1, d1, v1, r1));
        let k2 = StructureKey::of(&family_circuit(n2, d2, v2, r2));
        let same_structure = n1 == n2 && d1 == d2;
        prop_assert_eq!(
            k1 == k2,
            same_structure,
            "keys {} / {} for structures ({n1},{d1}) / ({n2},{d2})",
            k1,
            k2
        );
    }

    /// Replaying a cached symbolic plan is **bit-identical** to the cold
    /// solve that seeded it: with warm starts disabled, the service's
    /// second solve of a structure runs the exact same float program.
    #[test]
    fn cached_plan_solves_are_bit_identical_to_cold(
        n in 1usize..6, d in 1usize..4,
        v in 0.5f64..15.0, r_kohm in 0.1f64..50.0,
    ) {
        let circuit = family_circuit(n, d, v, r_kohm);
        let mut service = SimService::builder(DcEngine::builder().build())
            .warm_starts(false)
            .build();
        let cold = service.solve(&circuit, JobTicket::default()).expect("cold solve");
        prop_assert_eq!(service.cache_stats().misses, 1);
        let replay = service.solve(&circuit, JobTicket::default()).expect("cached solve");
        prop_assert_eq!(service.cache_stats().hits, 1);
        prop_assert_eq!(service.cache_stats().invalidations, 0);
        // PartialEq on the f64 vector: bitwise identity, not tolerance.
        prop_assert_eq!(cold.x, replay.x);
        prop_assert_eq!(cold.stats.nr_iterations, replay.stats.nr_iterations);
    }

    /// Warm-started cached solves pass the same certification gate as cold
    /// solves: a repeat request for a (value-jittered) structure comes back
    /// with exactly the cold solve's health grade.
    #[test]
    fn warm_started_solves_certify_identically_to_cold(
        n in 1usize..6, d in 1usize..4,
        v in 0.5f64..15.0, r_kohm in 0.1f64..50.0,
        jitter in -0.01f64..0.01,
    ) {
        let cold_circuit = family_circuit(n, d, v, r_kohm);
        let warm_circuit = family_circuit(n, d, v * (1.0 + jitter), r_kohm);
        let mut service = SimService::builder(DcEngine::builder().build()).build();
        let cold = service.solve(&cold_circuit, JobTicket::default()).expect("cold solve");
        let warm = service.solve(&warm_circuit, JobTicket::default()).expect("warm solve");
        prop_assert_eq!(service.cache_stats().hits, 1);
        let cold_grade = cold.health.as_ref().expect("cold graded").grade;
        let warm_grade = warm.health.as_ref().expect("warm graded").grade;
        prop_assert_eq!(cold_grade, warm_grade);
        prop_assert_eq!(cold_grade, HealthGrade::Certified);
    }
}

/// `circuit` with every independent source scaled by `scale`: the same
/// structure, another operating point.
fn scaled_sources(circuit: &Circuit, scale: f64) -> Circuit {
    let sources: Vec<(String, f64)> = circuit
        .devices()
        .iter()
        .filter_map(|d| match d {
            Device::Vsource(v) => Some((v.name().to_string(), v.dc())),
            Device::Isource(i) => Some((i.name().to_string(), i.dc())),
            _ => None,
        })
        .collect();
    let mut out = circuit.clone();
    for (name, dc) in sources {
        out.set_source_dc(&name, dc * scale);
    }
    out
}

/// Plan eviction must not cost a structure its warm start. With a budget
/// below any plan, only the newest plan stays resident, so in a
/// round-robin over several structures every repeat is a plan miss. The
/// budget still holds all three warm vectors (96 + 112 + 176 B). Each
/// of those misses is seeded from the warm-start tier: warm Newton from the
/// structure's last certified point, with no recovery-ladder attempt,
/// fewer Newton iterations than the cold solve and the cold solve's grade.
#[test]
fn warm_starts_survive_plan_eviction() {
    // Cold, each of these needs the recovery ladder (at least one failed
    // rung) to reach a certified point.
    let structures: Vec<Circuit> = ["TADEGLOW", "nagle", "6stageLimAmp"]
        .iter()
        .map(|name| {
            rlpta_circuits::by_name(name)
                .expect("named circuit")
                .circuit
        })
        .collect();
    const BUDGET: usize = 1024;
    let collector = Arc::new(Collector::new());
    let engine = DcEngine::builder().telemetry(collector.clone()).build();
    let mut service = SimService::builder(engine).cache_bytes(BUDGET).build();
    let ladder_attempts = |job: JobId| {
        collector
            .events()
            .iter()
            .filter(|e| e.span.job == Some(job))
            .filter(|e| matches!(e.payload, Payload::LadderAttempt { .. }))
            .count()
    };
    let mut cold: Vec<(HealthGrade, usize)> = Vec::new();
    let mut repeats = 0u64;
    for round in 0..3 {
        let scale = 1.0 + 0.004 * round as f64;
        for (s, structure) in structures.iter().enumerate() {
            let id = service
                .submit(scaled_sources(structure, scale), JobTicket::default())
                .expect("admit");
            let results = service.drain();
            assert_eq!(results.len(), 1);
            let sol = results[0].1.as_ref().expect("solves");
            let grade = sol.health.as_ref().expect("graded").grade;
            let iters = sol.stats.nr_iterations;
            if round == 0 {
                assert!(
                    ladder_attempts(id) > 0,
                    "structure {s}: cold solve needs the ladder"
                );
                cold.push((grade, iters));
            } else {
                repeats += 1;
                let (cold_grade, cold_iters) = cold[s];
                assert_eq!(grade, cold_grade, "structure {s} round {round}");
                assert_eq!(grade, HealthGrade::Certified);
                assert_eq!(ladder_attempts(id), 0, "structure {s} round {round}");
                assert!(
                    iters < cold_iters,
                    "structure {s} round {round}: {iters} NR iterations, cold took {cold_iters}"
                );
            }
            assert_eq!(service.cached_structures(), 1, "one plan resident");
            assert!(service.warm_start_bytes() <= BUDGET);
        }
    }
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 0, "every lookup after the first wave misses");
    assert_eq!(stats.warm_misses, repeats);
    assert_eq!(stats.misses, repeats + structures.len() as u64);
}

#[cfg(feature = "faults")]
mod under_faults {
    use super::*;
    use rlpta_core::FaultPlan;

    /// Keying a job takes no fault draws: with NaN stamps armed, a triplet
    /// assembly that follows [`StructureKey::of`] poisons exactly the
    /// entries it poisons with no key computed before it.
    #[test]
    fn structure_key_takes_no_nan_draws() {
        let c = family_circuit(4, 2, 5.0, 1.0);
        let x0 = vec![0.0; c.dim()];
        let poisoned = || -> Vec<bool> {
            let (jac, _) = c.assemble(&EvalCtx::dc(&x0));
            jac.to_csr().values().iter().map(|v| v.is_nan()).collect()
        };
        let clean = StructureKey::of(&c);
        for (seed, period) in [(1, 2), (7, 3), (42, 4)] {
            let faults = FaultPlan::seeded(seed).nan_stamps(period);
            faults.install();
            let want = poisoned();
            faults.install();
            let key = StructureKey::of(&c);
            let got = poisoned();
            FaultPlan::clear();
            assert!(want.contains(&true), "seed {seed}: nothing poisoned");
            assert_eq!(got, want, "seed {seed}, period {period}");
            assert_eq!(key, clean);
        }
    }

    proptest! {
        /// The certification contract survives fault injection: with
        /// seeded singular pivots hitting both paths (at different
        /// operation counts — the warm path does less LU work, so the
        /// periodic schedule lands elsewhere), a warm-started cached
        /// solve still passes the same gate as the cold solve of the
        /// same structure. Neither side is ever `Rejected` — the
        /// workspace falls back to a full factorization rather than
        /// certify a corrupted replay — and both land on the same
        /// operating point to certification tolerance.
        #[test]
        fn warm_solves_certify_like_cold_under_faults(
            seed in any::<u64>(),
            period in 3u64..16,
            n in 1usize..5, d in 1usize..3,
            v in 1.0f64..12.0, r_kohm in 0.5f64..20.0,
        ) {
            let engine = DcEngine::builder()
                .retries(2)
                .fault_plan(FaultPlan::seeded(seed).singular_pivots(period))
                .build();
            let circuit = family_circuit(n, d, v, r_kohm);
            let mut service = SimService::builder(engine).build();
            let cold = service.solve(&circuit, JobTicket::default()).expect("cold solve");
            let warm = service.solve(&circuit, JobTicket::default()).expect("warm solve");
            let cold_grade = cold.health.as_ref().expect("cold graded").grade;
            let warm_grade = warm.health.as_ref().expect("warm graded").grade;
            prop_assert!(cold_grade != HealthGrade::Rejected, "cold solve rejected");
            prop_assert!(warm_grade != HealthGrade::Rejected, "warm solve rejected");
            for (a, b) in cold.x.iter().zip(&warm.x) {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "operating points diverged: {a} vs {b}"
                );
            }
        }
    }
}
