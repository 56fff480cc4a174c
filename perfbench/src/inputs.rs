//! Seeded input generation.
//!
//! Every input is a pure function of the workload seed and a position (the
//! replica or job index), so the same seed always yields the same jobs and
//! the traced run can replay exactly the work of the untraced one. The seed
//! only moves source values: each independent source is scaled by a factor
//! drawn uniformly from `1 ± 1%`. Which topology a service job uses comes
//! from a fixed stream that ignores the seed, so every seed sees the same
//! topology mix.

use rlpta_circuits::Benchmark;
use rlpta_devices::Device;
use rlpta_mna::Circuit;

/// Relative half-width of the source jitter.
pub const JITTER: f64 = 0.01;

/// Stream constant for the topology draws of service jobs.
const TOPOLOGY_STREAM: u64 = 0x746f_706f_6c6f_6779;

/// The SplitMix64 finaliser: a stateless, well-mixed hash of one word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(seed, a, b, c)`.
fn unit_draw(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let h = mix(mix(mix(mix(seed) ^ a) ^ b) ^ c);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Names and DC values of a circuit's independent sources, in device order.
pub fn sources(circuit: &Circuit) -> Vec<(String, f64)> {
    circuit
        .devices()
        .iter()
        .filter_map(|d| match d {
            Device::Vsource(v) => Some((v.name().to_string(), v.dc())),
            Device::Isource(i) => Some((i.name().to_string(), i.dc())),
            _ => None,
        })
        .collect()
}

/// One topology of a workload: the unjittered circuit and its sources.
pub struct Template {
    /// Suite row name.
    pub name: String,
    /// The circuit as the suite generates it.
    pub circuit: Circuit,
    sources: Vec<(String, f64)>,
}

impl Template {
    /// Wraps a suite benchmark.
    pub fn new(bench: Benchmark) -> Self {
        let sources = sources(&bench.circuit);
        Self {
            name: bench.name,
            circuit: bench.circuit,
            sources,
        }
    }

    /// A copy with every independent source scaled by `1 ± JITTER`, drawn
    /// from `(seed, stream, index)`: same key, same values.
    pub fn jittered(&self, seed: u64, stream: u64, index: u64) -> Circuit {
        let mut circuit = self.circuit.clone();
        for (k, (name, dc)) in self.sources.iter().enumerate() {
            let u = unit_draw(seed, stream, index, k as u64);
            circuit.set_source_dc(name, dc * (1.0 + JITTER * (2.0 * u - 1.0)));
        }
        circuit
    }
}

/// Wraps a whole suite.
pub fn templates(benches: Vec<Benchmark>) -> Vec<Template> {
    benches.into_iter().map(Template::new).collect()
}

/// Topology index of service job `job` in a pool of `n` templates: drawn
/// uniformly without replacement, so every `n` consecutive jobs (from job
/// 0) hold each template once, in a shuffled order.
pub fn topology_of(job: u64, n: usize) -> usize {
    let epoch = mix(TOPOLOGY_STREAM ^ (job / n as u64));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(epoch ^ i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order[(job % n as u64) as usize]
}

/// Service job `job`: its topology index and its jittered circuit.
pub fn service_job(pool: &[Template], seed: u64, job: u64) -> (usize, Circuit) {
    let t = topology_of(job, pool.len());
    (t, pool[t].jittered(seed, job, t as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpta_core::StructureKey;

    fn pool() -> Vec<Template> {
        templates(
            ["gm1", "bias", "D10", "D11", "gm6"]
                .iter()
                .map(|n| rlpta_circuits::by_name(n).expect("known benchmark"))
                .collect(),
        )
    }

    fn jobs(pool: &[Template], seed: u64) -> Vec<(u64, Vec<f64>)> {
        (0..40)
            .map(|j| {
                let (_, c) = service_job(pool, seed, j);
                let values = sources(&c).into_iter().map(|(_, v)| v).collect();
                (StructureKey::of(&c).hash(), values)
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_jobs() {
        let pool = pool();
        assert_eq!(jobs(&pool, 7), jobs(&pool, 7));
    }

    #[test]
    fn other_seed_moves_values_but_keeps_topology_mix() {
        let pool = pool();
        let (a, b) = (jobs(&pool, 7), jobs(&pool, 8));
        for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb, "the structure sequence must not depend on the seed");
            assert_ne!(va, vb, "the source values must depend on the seed");
        }
    }

    #[test]
    fn jitter_stays_within_one_percent() {
        let pool = pool();
        for t in &pool {
            let base = sources(&t.circuit);
            for r in 0..20 {
                let moved = sources(&t.jittered(3, r, 0));
                for ((_, b), (_, m)) in base.iter().zip(&moved) {
                    assert!((m - b).abs() <= JITTER * b.abs() + 1e-15);
                }
            }
        }
    }

    #[test]
    fn every_epoch_holds_each_topology_once() {
        for epoch in 0..4u64 {
            let mut seen = [0usize; 7];
            for j in 0..7 {
                seen[topology_of(epoch * 7 + j, 7)] += 1;
            }
            assert_eq!(seen, [1; 7]);
        }
        let first: Vec<usize> = (0..7).map(|j| topology_of(j, 7)).collect();
        let second: Vec<usize> = (7..14).map(|j| topology_of(j, 7)).collect();
        assert_ne!(first, second, "each epoch is shuffled afresh");
    }
}
