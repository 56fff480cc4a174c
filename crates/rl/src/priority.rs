//! TD-error prioritized experience replay (§4.4 of the paper).

use crate::buffer::Slab;
use crate::{AsTransition, SumTree, Transition, TransitionRef};
use rand::Rng;

/// Replay buffer whose sampling probability is proportional to each
/// transition's stored |TD-error| priority, backed by a [`SumTree`].
///
/// New transitions enter with the current maximum priority so they are
/// guaranteed to be replayed at least once; priorities are refreshed after
/// each critic update via [`PrioritizedReplay::update_priority`]. A small
/// floor keeps low-error samples alive, which is the paper's "does not
/// completely eliminate beneficial small-weight samples" property.
///
/// Transitions live in one contiguous array per field, so cloning a buffer
/// (the per-circuit copy of a pretrained RL-S controller) costs a handful
/// of allocations however many transitions it holds.
#[derive(Debug, Clone)]
pub struct PrioritizedReplay {
    tree: SumTree,
    slab: Slab,
    max_priority: f64,
}

impl PrioritizedReplay {
    /// Priority floor added to every stored |TD-error|.
    pub const PRIORITY_FLOOR: f64 = 1e-3;

    /// Creates a buffer with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self {
            tree: SumTree::new(capacity),
            slab: Slab::new(capacity),
            max_priority: 1.0,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Returns `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.slab.len() == 0
    }

    /// Maximum number of transitions.
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Copies a transition in at the current max priority, evicting FIFO
    /// when full.
    ///
    /// # Panics
    ///
    /// Panics if its state or action width differs from the stored
    /// transitions'.
    pub fn push(&mut self, t: impl AsTransition) {
        let idx = self.slab.push(t.view());
        self.tree.set(idx, self.max_priority);
    }

    /// Samples `n` transitions proportionally to priority (with
    /// replacement), returning `(buffer index, transition)` pairs so the
    /// caller can refresh priorities after training. Empty if the buffer is
    /// empty.
    ///
    /// Thin wrapper over [`PrioritizedReplay::sample_indices_into`] that
    /// copies each drawn transition out; the training hot path samples
    /// indices and gathers straight into its workspace instead.
    pub fn sample(&self, n: usize, rng: &mut impl Rng) -> Vec<(usize, Transition)> {
        let mut idx = Vec::with_capacity(n);
        self.sample_indices_into(n, rng, &mut idx);
        idx.into_iter()
            .map(|i| (i, self.slab.get(i).to_transition()))
            .collect()
    }

    /// Draws `n` priority-proportional slot indices into `out` (cleared
    /// first). Allocation-free once `out` has capacity `n`; an empty buffer
    /// leaves `out` empty. The caller gathers via [`PrioritizedReplay::get`]
    /// and refreshes priorities by index after training.
    pub fn sample_indices_into(&self, n: usize, rng: &mut impl Rng, out: &mut Vec<usize>) {
        out.clear();
        if self.is_empty() || self.tree.total() <= 0.0 {
            return;
        }
        out.extend((0..n).map(|_| {
            let v = rng.gen_range(0.0..self.tree.total());
            self.tree.find(v).min(self.slab.len() - 1)
        }));
    }

    /// The transition in slot `index`, borrowed from the slabs.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> TransitionRef<'_> {
        self.slab.get(index)
    }

    /// Refreshes the priority of buffer slot `index` with a new |TD-error|.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or `td_error` is non-finite.
    pub fn update_priority(&mut self, index: usize, td_error: f64) {
        assert!(index < self.slab.len(), "index out of bounds");
        assert!(td_error.is_finite(), "TD error must be finite");
        let p = td_error.abs() + Self::PRIORITY_FLOOR;
        self.max_priority = self.max_priority.max(p);
        self.tree.set(index, p);
    }

    /// Iterates over stored transitions in slot order.
    pub fn iter(&self) -> impl Iterator<Item = TransitionRef<'_>> + '_ {
        self.slab.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(r: f64) -> Transition {
        Transition {
            state: vec![r],
            action: vec![0.0],
            reward: r,
            next_state: vec![r],
            done: false,
        }
    }

    #[test]
    fn new_items_get_max_priority() {
        let mut b = PrioritizedReplay::new(4);
        b.push(t(0.0));
        b.update_priority(0, 10.0);
        b.push(t(1.0)); // must inherit the raised max priority
        let mut rng = StdRng::seed_from_u64(3);
        let hits = b.sample(1000, &mut rng);
        let n1 = hits.iter().filter(|(i, _)| *i == 1).count();
        // Slot 1 has priority ≈ slot 0's, so it is sampled often.
        assert!(n1 > 300, "new item undersampled: {n1}");
    }

    #[test]
    fn high_td_error_is_sampled_more() {
        let mut b = PrioritizedReplay::new(4);
        for i in 0..4 {
            b.push(t(i as f64));
        }
        for i in 0..4 {
            b.update_priority(i, if i == 2 { 10.0 } else { 0.01 });
        }
        let mut rng = StdRng::seed_from_u64(11);
        let hits = b.sample(2000, &mut rng);
        let n2 = hits.iter().filter(|(i, _)| *i == 2).count();
        assert!(n2 > 1700, "high-priority sample count {n2}");
    }

    #[test]
    fn low_priority_samples_still_appear() {
        // The floor keeps small-TD-error samples alive (paper §4.4).
        let mut b = PrioritizedReplay::new(2);
        b.push(t(0.0));
        b.push(t(1.0));
        b.update_priority(0, 0.0); // floor only
        b.update_priority(1, 1.0);
        let mut rng = StdRng::seed_from_u64(17);
        let hits = b.sample(20_000, &mut rng);
        let n0 = hits.iter().filter(|(i, _)| *i == 0).count();
        assert!(n0 > 0, "floored sample never drawn");
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut b = PrioritizedReplay::new(2);
        b.push(t(0.0));
        b.push(t(1.0));
        b.push(t(2.0)); // evicts slot 0
        assert_eq!(b.len(), 2);
        let rewards: Vec<f64> = b.iter().map(|x| x.reward).collect();
        assert!(rewards.contains(&2.0));
        assert!(!rewards.contains(&0.0));
    }

    #[test]
    fn empty_sample_is_empty() {
        let b = PrioritizedReplay::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(b.sample(5, &mut rng).is_empty());
    }

    #[test]
    fn sampling_is_with_replacement_and_seed_deterministic() {
        let mut b = PrioritizedReplay::new(16);
        b.push(t(1.0));
        let s = b.sample(10, &mut StdRng::seed_from_u64(0));
        assert_eq!(s.len(), 10, "draws may exceed the stored count");
        assert!(s.iter().all(|(i, x)| *i == 0 && x.reward == 1.0));
        for i in 1..16 {
            b.push(t(i as f64));
        }
        let s1 = b.sample(5, &mut StdRng::seed_from_u64(7));
        let s2 = b.sample(5, &mut StdRng::seed_from_u64(7));
        assert_eq!(s1, s2);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn update_validates_index() {
        let mut b = PrioritizedReplay::new(4);
        b.update_priority(0, 1.0);
    }
}
