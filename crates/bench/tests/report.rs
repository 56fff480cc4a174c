//! BenchReport schema tests: JSON round-trip fidelity and golden-file
//! stability. The golden file pins the serialized layout — `perfdiff`
//! baselines checked into CI must stay parseable — so any layout change
//! must bump `SCHEMA_VERSION` and regenerate the golden together.

use rlpta_bench::report::{BenchReport, CircuitRow, PhaseStat, SCHEMA_VERSION};

/// A fully-populated report with fixed values (no clocks, no git lookups),
/// matching `tests/golden_bench_report.json`.
fn sample_report() -> BenchReport {
    BenchReport {
        schema_version: SCHEMA_VERSION,
        bench: "fig5".to_string(),
        strategy: "cepta".to_string(),
        stepping: "rl-s".to_string(),
        threads: 4,
        git_rev: "deadbee".to_string(),
        kernel_build: None,
        wall_nanos: 12_345_678_900,
        circuits: 2,
        converged: 1,
        nr_iterations: 1234,
        pta_steps: 321,
        lu_factorizations: 40,
        lu_refactorizations: 1200,
        refactorize_hit_rate: 0.967_741_935_483_871,
        rows: vec![
            CircuitRow {
                circuit: "gm1".to_string(),
                converged: true,
                nr_iterations: 1000,
                pta_steps: 300,
                lu_factorizations: 30,
                lu_refactorizations: 1000,
            },
            CircuitRow {
                circuit: "todd3".to_string(),
                converged: false,
                nr_iterations: 234,
                pta_steps: 21,
                lu_factorizations: 10,
                lu_refactorizations: 200,
            },
        ],
        phases: vec![
            PhaseStat {
                phase: "stamp_resolve".to_string(),
                count: 40,
                sum_nanos: 200_000,
                min_nanos: 2_000,
                max_nanos: 9_000,
                p50_nanos: 4_500,
                p90_nanos: 8_000,
                p99_nanos: 8_500,
            },
            PhaseStat {
                phase: "stamp_write".to_string(),
                count: 1240,
                sum_nanos: 620_000,
                min_nanos: 100,
                max_nanos: 9_000,
                p50_nanos: 450,
                p90_nanos: 1_200,
                p99_nanos: 8_500,
            },
            PhaseStat {
                phase: "lu_replay".to_string(),
                count: 1200,
                sum_nanos: 3_600_000,
                min_nanos: 1_000,
                max_nanos: 50_000,
                p50_nanos: 2_800,
                p90_nanos: 7_700,
                p99_nanos: 48_000,
            },
            PhaseStat {
                phase: "lu_solve".to_string(),
                count: 1240,
                sum_nanos: 1_240_000,
                min_nanos: 300,
                max_nanos: 20_000,
                p50_nanos: 900,
                p90_nanos: 2_000,
                p99_nanos: 15_000,
            },
            PhaseStat {
                phase: "certify".to_string(),
                count: 2,
                sum_nanos: 40_000,
                min_nanos: 15_000,
                max_nanos: 25_000,
                p50_nanos: 15_000,
                p90_nanos: 25_000,
                p99_nanos: 25_000,
            },
        ],
    }
}

#[test]
fn json_round_trip_is_lossless() {
    let rep = sample_report();
    let parsed = BenchReport::parse(&rep.to_json()).expect("own output parses");
    assert_eq!(parsed, rep);
}

/// The kernel build is optional both ways: written only when known, and
/// absent from reports that predate it, such as the checked-in baselines
/// the CI gates compare against.
#[test]
fn kernel_build_is_optional() {
    assert!(!sample_report().to_json().contains("kernel_build"));
    let rep = BenchReport {
        kernel_build: Some("avx512f".to_string()),
        ..sample_report()
    };
    let json = rep.to_json();
    assert!(
        json.contains("\n  \"kernel_build\": \"avx512f\",\n"),
        "{json}"
    );
    assert_eq!(BenchReport::parse(&json).expect("parses"), rep);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for baseline in ["BENCH_baseline.json", "BENCH_baseline_pre_rl.json"] {
        let old = BenchReport::load(&format!("{root}/{baseline}")).expect("baseline loads");
        assert_eq!(old.kernel_build, None, "{baseline}");
        assert_eq!(old.schema_version, SCHEMA_VERSION, "{baseline}");
    }
}

#[test]
fn empty_report_round_trips() {
    let rep = BenchReport {
        rows: Vec::new(),
        phases: Vec::new(),
        circuits: 0,
        converged: 0,
        ..sample_report()
    };
    let parsed = BenchReport::parse(&rep.to_json()).expect("parses");
    assert_eq!(parsed, rep);
}

#[test]
fn serialization_matches_the_golden_file() {
    let golden = include_str!("golden_bench_report.json");
    assert_eq!(
        sample_report().to_json(),
        golden,
        "BenchReport layout changed: bump SCHEMA_VERSION and regenerate \
         tests/golden_bench_report.json"
    );
}

#[test]
fn golden_file_parses_to_the_sample() {
    let golden = include_str!("golden_bench_report.json");
    let parsed = BenchReport::parse(golden).expect("golden parses");
    assert_eq!(parsed, sample_report());
    assert_eq!(parsed.schema_version, SCHEMA_VERSION);
}

#[test]
fn parser_ignores_unknown_fields_within_a_version() {
    let mut json = sample_report().to_json();
    json = json.replacen(
        "\"bench\": \"fig5\",",
        "\"bench\": \"fig5\",\n  \"future_field\": [1, {\"x\": true}],",
        1,
    );
    let parsed = BenchReport::parse(&json).expect("forward-compatible parse");
    assert_eq!(parsed, sample_report());
}

#[test]
fn parser_rejects_malformed_reports() {
    assert!(BenchReport::parse("").is_err());
    assert!(BenchReport::parse("{\"schema_version\": 1").is_err());
    assert!(BenchReport::parse("{\"schema_version\": \"one\"}").is_err());
    let missing = "{\"schema_version\": 1}";
    assert!(BenchReport::parse(missing).is_err(), "missing fields must error");
}

/// A hostile file nests arrays far past any report: `perfdiff` gets an
/// error back instead of overflowing the stack.
#[test]
fn parser_rejects_pathological_nesting() {
    assert!(BenchReport::parse(&"[".repeat(1_000_000)).is_err());
    let deep = format!("{{\"rows\": {}", "[".repeat(1_000_000));
    let err = BenchReport::parse(&deep).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
}

/// Regenerates the golden file after a deliberate schema change:
/// `cargo test -p rlpta-bench --test report regen_golden -- --ignored`.
#[test]
#[ignore = "writes tests/golden_bench_report.json; run explicitly after schema bumps"]
fn regen_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_bench_report.json");
    std::fs::write(path, sample_report().to_json()).expect("golden written");
}

#[test]
fn phase_lookup_finds_entries_by_stable_name() {
    let rep = sample_report();
    assert_eq!(rep.phase("stamp_resolve").expect("present").count, 40);
    assert_eq!(rep.phase("stamp_write").expect("present").count, 1240);
    assert!(rep.phase("nonexistent").is_none());
}
