//! Transitions, and the slab storage the replay buffer keeps them in.

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

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut b = Slab::new(10);
        assert_eq!(b.len(), 0);
        assert_eq!(b.push(t(1.0).view()), 0);
        assert_eq!(b.push(t(2.0).view()), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.capacity(), 10);
    }

    #[test]
    fn fifo_eviction() {
        let mut b = Slab::new(3);
        for i in 0..5 {
            b.push(t(i as f64).view());
        }
        assert_eq!(b.len(), 3);
        let rewards: Vec<f64> = b.iter().map(|x| x.reward).collect();
        // 0 and 1 evicted: slots 0 and 1 were overwritten in push order.
        assert_eq!(rewards, [3.0, 4.0, 2.0]);
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
        let mut b = Slab::new(2);
        for i in 0..3 {
            b.push(row(i).view());
        }
        // The third push overwrote slot 0; slot 1 still holds the second.
        assert_eq!(b.get(0).to_transition(), row(2));
        assert_eq!(b.get(1).to_transition(), row(1));
        let copy = b.clone();
        assert_eq!(b.push(row(7).view()), 1);
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
        let mut b = Slab::new(4);
        b.push(t(1.0).view());
        b.push(
            Transition {
                state: vec![1.0, 2.0],
                ..t(2.0)
            }
            .view(),
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Slab::new(0);
    }
}
