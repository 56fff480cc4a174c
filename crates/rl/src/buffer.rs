//! Uniform experience replay, and the slab storage both replay buffers
//! keep their transitions in.

use rand::Rng;

/// One `(s, a, r, s′, done)` transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State the action was taken in.
    pub state: Vec<f64>,
    /// Action taken.
    pub action: Vec<f64>,
    /// Reward observed.
    pub reward: f64,
    /// Successor state.
    pub next_state: Vec<f64>,
    /// Whether the episode terminated at `next_state` (bootstrapping stops).
    pub done: bool,
}

/// A borrowed transition: the fields of one [`Transition`], as slices into
/// whatever holds it (an owned transition or a replay buffer's slabs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionRef<'a> {
    /// State the action was taken in.
    pub state: &'a [f64],
    /// Action taken.
    pub action: &'a [f64],
    /// Reward observed.
    pub reward: f64,
    /// Successor state.
    pub next_state: &'a [f64],
    /// Whether the episode terminated at `next_state`.
    pub done: bool,
}

impl TransitionRef<'_> {
    /// Copies the view into an owned [`Transition`].
    pub fn to_transition(&self) -> Transition {
        Transition {
            state: self.state.to_vec(),
            action: self.action.to_vec(),
            reward: self.reward,
            next_state: self.next_state.to_vec(),
            done: self.done,
        }
    }
}

/// Anything readable as one transition: an owned [`Transition`], a
/// reference to one, or a [`TransitionRef`]. Replay buffers and the
/// training workspace copy what they are given out of this view, so a
/// caller never has to build a `Transition` to store or gather one.
pub trait AsTransition {
    /// The transition's fields, borrowed.
    fn view(&self) -> TransitionRef<'_>;
}

impl AsTransition for Transition {
    fn view(&self) -> TransitionRef<'_> {
        TransitionRef {
            state: &self.state,
            action: &self.action,
            reward: self.reward,
            next_state: &self.next_state,
            done: self.done,
        }
    }
}

impl AsTransition for &Transition {
    fn view(&self) -> TransitionRef<'_> {
        (**self).view()
    }
}

impl AsTransition for TransitionRef<'_> {
    fn view(&self) -> TransitionRef<'_> {
        *self
    }
}

/// A fixed-capacity FIFO ring of transitions stored one contiguous array
/// per field: a clone is a handful of memcpys and a push allocates only
/// while an array still grows towards the capacity. Every row has the
/// state and action widths of the first one pushed.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slab {
    capacity: usize,
    /// Oldest row once the ring is full: the next one overwritten.
    head: usize,
    state_dim: usize,
    action_dim: usize,
    states: Vec<f64>,
    actions: Vec<f64>,
    rewards: Vec<f64>,
    next_states: Vec<f64>,
    dones: Vec<bool>,
}

impl Slab {
    /// An empty ring holding at most `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Maximum number of rows.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored rows.
    pub(crate) fn len(&self) -> usize {
        self.rewards.len()
    }

    /// Checks `t` against the slab's row shape, which the first row fixes.
    fn check_shape(&mut self, t: &TransitionRef<'_>) {
        if self.rewards.is_empty() {
            self.state_dim = t.state.len();
            self.action_dim = t.action.len();
        }
        assert_eq!(t.state.len(), self.state_dim, "state dimension mismatch");
        assert_eq!(t.action.len(), self.action_dim, "action dimension mismatch");
        assert_eq!(
            t.next_state.len(),
            self.state_dim,
            "next-state dimension mismatch"
        );
    }

    /// Stores `t`, appending while the ring has room and overwriting the
    /// oldest row once it is full. Returns the row written.
    ///
    /// # Panics
    ///
    /// Panics if `t`'s widths differ from the stored rows'.
    pub(crate) fn push(&mut self, t: TransitionRef<'_>) -> usize {
        self.check_shape(&t);
        let i = self.len();
        if i < self.capacity {
            self.states.extend_from_slice(t.state);
            self.actions.extend_from_slice(t.action);
            self.rewards.push(t.reward);
            self.next_states.extend_from_slice(t.next_state);
            self.dones.push(t.done);
            return i;
        }
        let i = self.head;
        self.head = (self.head + 1) % self.capacity;
        let (sd, ad) = (self.state_dim, self.action_dim);
        self.states[i * sd..(i + 1) * sd].copy_from_slice(t.state);
        self.actions[i * ad..(i + 1) * ad].copy_from_slice(t.action);
        self.rewards[i] = t.reward;
        self.next_states[i * sd..(i + 1) * sd].copy_from_slice(t.next_state);
        self.dones[i] = t.done;
        i
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn get(&self, i: usize) -> TransitionRef<'_> {
        let (sd, ad) = (self.state_dim, self.action_dim);
        TransitionRef {
            state: &self.states[i * sd..(i + 1) * sd],
            action: &self.actions[i * ad..(i + 1) * ad],
            reward: self.rewards[i],
            next_state: &self.next_states[i * sd..(i + 1) * sd],
            done: self.dones[i],
        }
    }

    /// Rows in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = TransitionRef<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Fixed-capacity FIFO ring buffer with uniform random sampling, stored
/// one contiguous array per transition field.
///
/// # Example
///
/// ```
/// use rlpta_rl::{ReplayBuffer, Transition};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut buf = ReplayBuffer::new(2);
/// let t = Transition {
///     state: vec![0.0], action: vec![0.0], reward: 1.0,
///     next_state: vec![1.0], done: false,
/// };
/// buf.push(&t);
/// buf.push(&t);
/// buf.push(t); // evicts the oldest
/// assert_eq!(buf.len(), 2);
/// let mut rng = StdRng::seed_from_u64(0);
/// assert_eq!(buf.sample(3, &mut rng).len(), 3); // sampling with replacement
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplayBuffer {
    slab: Slab,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self {
            slab: Slab::new(capacity),
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Returns `true` if the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slab.len() == 0
    }

    /// Maximum number of transitions.
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Copies a transition in, evicting the oldest when full.
    ///
    /// # Panics
    ///
    /// Panics if its state or action width differs from the stored
    /// transitions'.
    pub fn push(&mut self, t: impl AsTransition) {
        self.slab.push(t.view());
    }

    /// Samples `n` transitions uniformly **with replacement** (standard
    /// practice for small RL batches). Returns an empty vector when the
    /// buffer is empty.
    ///
    /// Thin wrapper over [`ReplayBuffer::sample_indices_into`] that copies
    /// each drawn transition out; the training hot path samples indices and
    /// gathers straight into its workspace instead.
    pub fn sample(&self, n: usize, rng: &mut impl Rng) -> Vec<Transition> {
        let mut idx = Vec::with_capacity(n);
        self.sample_indices_into(n, rng, &mut idx);
        idx.into_iter()
            .map(|i| self.slab.get(i).to_transition())
            .collect()
    }

    /// Draws `n` uniform-with-replacement slot indices into `out` (cleared
    /// first). Allocation-free once `out` has capacity `n`; an empty buffer
    /// leaves `out` empty. The caller gathers via [`ReplayBuffer::get`].
    pub fn sample_indices_into(&self, n: usize, rng: &mut impl Rng, out: &mut Vec<usize>) {
        out.clear();
        if self.is_empty() {
            return;
        }
        out.extend((0..n).map(|_| rng.gen_range(0..self.slab.len())));
    }

    /// The transition in slot `index`, borrowed from the slabs.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> TransitionRef<'_> {
        self.slab.get(index)
    }

    /// Iterates over the stored transitions in slot order.
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
            next_state: vec![r + 1.0],
            done: false,
        }
    }

    #[test]
    fn push_and_len() {
        let mut b = ReplayBuffer::new(10);
        assert!(b.is_empty());
        b.push(t(1.0));
        b.push(t(2.0));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn fifo_eviction() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f64));
        }
        assert_eq!(b.len(), 3);
        let rewards: Vec<f64> = b.iter().map(|x| x.reward).collect();
        // 0 and 1 evicted.
        assert!(!rewards.contains(&0.0));
        assert!(!rewards.contains(&1.0));
        assert!(rewards.contains(&4.0));
    }

    #[test]
    fn sample_empty_returns_empty() {
        let b = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(b.sample(8, &mut rng).is_empty());
    }

    #[test]
    fn sample_with_replacement_exceeds_len() {
        let mut b = ReplayBuffer::new(4);
        b.push(t(1.0));
        let mut rng = StdRng::seed_from_u64(0);
        let s = b.sample(10, &mut rng);
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|x| x.reward == 1.0));
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let mut b = ReplayBuffer::new(16);
        for i in 0..16 {
            b.push(t(i as f64));
        }
        let s1 = b.sample(5, &mut StdRng::seed_from_u64(7));
        let s2 = b.sample(5, &mut StdRng::seed_from_u64(7));
        assert_eq!(s1, s2);
    }

    #[test]
    fn rows_round_trip_through_the_slabs_and_eviction() {
        let row = |i: usize| Transition {
            state: vec![i as f64, -(i as f64)],
            action: vec![0.5 * i as f64],
            reward: i as f64,
            next_state: vec![1.0, 2.0 + i as f64],
            done: i == 1,
        };
        let mut b = ReplayBuffer::new(2);
        for i in 0..3 {
            b.push(row(i));
        }
        // The third push overwrote slot 0; slot 1 still holds the second.
        assert_eq!(b.get(0).to_transition(), row(2));
        assert_eq!(b.get(1).to_transition(), row(1));
        let copy = b.clone();
        b.push(row(7));
        assert_eq!(
            copy.get(1).to_transition(),
            row(1),
            "clones are independent"
        );
        assert_eq!(b.get(1).to_transition(), row(7));
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn rows_must_share_one_shape() {
        let mut b = ReplayBuffer::new(4);
        b.push(t(1.0));
        b.push(Transition {
            state: vec![1.0, 2.0],
            ..t(2.0)
        });
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ReplayBuffer::new(0);
    }
}
