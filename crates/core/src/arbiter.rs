//! Thread arbiters.
//!
//! Every multithreaded elastic module that drives a shared channel — a MEB
//! output stage, an M-Merge, a variable-latency unit — contains an arbiter
//! that selects, each cycle, which thread uses the channel (paper,
//! Sec. III: "An arbiter is responsible for selecting the active thread
//! after taking into account which threads are ready downstream").
//!
//! [`Arbiter::choose`] must be *pure* (it is called repeatedly during the
//! combinational settle phase); the policy's state advances only in
//! [`Arbiter::commit`], which components call at the clock edge when the
//! granted transfer actually fired.

use std::fmt;

use elastic_sim::ThreadMask;

/// A thread-selection policy.
pub trait Arbiter: Send + fmt::Debug {
    /// Picks one of the requesting threads (`requests.get(t) == true`),
    /// or `None` when nothing is requested. Must be deterministic and
    /// must not mutate policy state. The request set arrives as a packed
    /// [`ThreadMask`], so policies scan words, not heap slices.
    fn choose(&self, requests: &ThreadMask) -> Option<usize>;

    /// Records that `granted`'s transfer fired, advancing the policy
    /// (e.g. rotating a round-robin pointer).
    fn commit(&mut self, granted: usize);

    /// Rewinds the policy to its freshly constructed state (pointer at
    /// thread 0, grant history cleared) — part of the
    /// [`Component::reset`](elastic_sim::Component::reset) contract of the
    /// modules embedding an arbiter. Stateless policies need not override.
    fn reset(&mut self) {}

    /// Clones the policy behind the trait object.
    fn box_clone(&self) -> Box<dyn Arbiter>;

    /// When the policy's [`choose`](Arbiter::choose) is exactly "first
    /// requesting thread at or after a rotation point, wrapping",
    /// returns that point. The contract:
    /// `choose(req) == req.next_one_wrapping(hint)` for every request
    /// set, as long as the policy state is unchanged. Word-level `eval`
    /// fast paths query this once per cycle and run the packed word scan
    /// inline instead of calling `choose` through the vtable;
    /// policies with richer selection rules return `None` (the default)
    /// and keep the generic path.
    fn rotation_hint(&self) -> Option<usize> {
        None
    }
}

impl Clone for Box<dyn Arbiter> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Always grants the lowest-indexed requesting thread.
///
/// Cheap but unfair: a persistent thread 0 starves the rest.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FixedPriority;

impl FixedPriority {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Arbiter for FixedPriority {
    fn choose(&self, requests: &ThreadMask) -> Option<usize> {
        requests.first_one()
    }

    fn commit(&mut self, _granted: usize) {}

    fn box_clone(&self) -> Box<dyn Arbiter> {
        Box::new(*self)
    }

    fn rotation_hint(&self) -> Option<usize> {
        // Lowest-index-first is a rotation scan anchored at thread 0.
        Some(0)
    }
}

/// Grants the first requesting thread at or after a rotating pointer; the
/// pointer moves one past the last committed grant.
///
/// This is the fair policy assumed throughout the paper's examples (each
/// of `M` active threads receives `1/M` of the channel, Sec. III-A).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates the policy with the pointer at thread 0.
    pub fn new() -> Self {
        Self { next: 0 }
    }
}

impl Arbiter for RoundRobin {
    fn choose(&self, requests: &ThreadMask) -> Option<usize> {
        requests.next_one_wrapping(self.next)
    }

    fn commit(&mut self, granted: usize) {
        self.next = granted + 1;
    }

    fn reset(&mut self) {
        self.next = 0;
    }

    fn box_clone(&self) -> Box<dyn Arbiter> {
        Box::new(*self)
    }

    fn rotation_hint(&self) -> Option<usize> {
        Some(self.next)
    }
}

/// Grants the requesting thread that was granted least recently
/// (a matrix-arbiter-like longest-idle-first policy).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LeastRecent {
    last_grant: Vec<u64>,
    clock: u64,
}

impl LeastRecent {
    /// Creates the policy (all threads tied at "never granted").
    pub fn new() -> Self {
        Self::default()
    }
}

impl Arbiter for LeastRecent {
    fn choose(&self, requests: &ThreadMask) -> Option<usize> {
        requests
            .iter_ones()
            .min_by_key(|&t| self.last_grant.get(t).copied().unwrap_or(0))
    }

    fn commit(&mut self, granted: usize) {
        if self.last_grant.len() <= granted {
            self.last_grant.resize(granted + 1, 0);
        }
        self.clock += 1;
        self.last_grant[granted] = self.clock;
    }

    fn reset(&mut self) {
        self.last_grant.clear();
        self.clock = 0;
    }

    fn box_clone(&self) -> Box<dyn Arbiter> {
        Box::new(self.clone())
    }
}

/// Keeps granting the same thread for up to `quantum` consecutive grants
/// before rotating — **coarse-grained** multithreading, as opposed to the
/// cycle-by-cycle fine-grained sharing of [`RoundRobin`] (the paper's
/// Sec. I, citing Ungerer et al.: threads may share the datapath "in a
/// coarse-grained manner that allows each thread to complete a larger set
/// of computations before moving to the next one").
///
/// A thread also loses the datapath early when it stops requesting
/// (e.g. it stalls on a dependency), so coarse-grained sharing never
/// wastes cycles on an idle owner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoarseGrained {
    quantum: u32,
    current: usize,
    used: u32,
}

impl CoarseGrained {
    /// A policy granting up to `quantum` consecutive transfers per thread.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0` (that would never grant anybody).
    pub fn new(quantum: u32) -> Self {
        assert!(quantum > 0, "quantum must be at least 1");
        Self {
            quantum,
            current: 0,
            used: 0,
        }
    }

    /// The configured quantum.
    pub fn quantum(&self) -> u32 {
        self.quantum
    }
}

impl Arbiter for CoarseGrained {
    fn choose(&self, requests: &ThreadMask) -> Option<usize> {
        let n = requests.threads();
        if n == 0 {
            return None;
        }
        // Keep the owner while it requests and has quantum left.
        if self.current < n && requests.get(self.current) && self.used < self.quantum {
            return Some(self.current);
        }
        // Rotate starting one past the owner (the owner itself is the
        // last candidate, matching the old `(1..=n)` offset scan).
        requests.next_one_wrapping(self.current + 1)
    }

    fn commit(&mut self, granted: usize) {
        if granted == self.current {
            self.used += 1;
        } else {
            self.current = granted;
            self.used = 1;
        }
    }

    fn reset(&mut self) {
        self.current = 0;
        self.used = 0;
    }

    fn box_clone(&self) -> Box<dyn Arbiter> {
        Box::new(*self)
    }
}

/// Name-only arbiter selector, convenient for sweeps and CLI flags.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ArbiterKind {
    /// [`FixedPriority`].
    Fixed,
    /// [`RoundRobin`] (the default) — fine-grained sharing.
    #[default]
    RoundRobin,
    /// [`LeastRecent`].
    LeastRecent,
    /// [`CoarseGrained`] with the given quantum.
    Coarse {
        /// Consecutive grants a thread keeps before rotation.
        quantum: u32,
    },
}

impl ArbiterKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Arbiter> {
        match self {
            ArbiterKind::Fixed => Box::new(FixedPriority::new()),
            ArbiterKind::RoundRobin => Box::new(RoundRobin::new()),
            ArbiterKind::LeastRecent => Box::new(LeastRecent::new()),
            ArbiterKind::Coarse { quantum } => Box::new(CoarseGrained::new(quantum)),
        }
    }

    /// All kinds, for parameter sweeps (coarse-grained with a quantum of
    /// 4 as the representative).
    pub fn all() -> [ArbiterKind; 4] {
        [
            ArbiterKind::Fixed,
            ArbiterKind::RoundRobin,
            ArbiterKind::LeastRecent,
            ArbiterKind::Coarse { quantum: 4 },
        ]
    }
}

impl fmt::Display for ArbiterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArbiterKind::Fixed => write!(f, "fixed"),
            ArbiterKind::RoundRobin => write!(f, "round-robin"),
            ArbiterKind::LeastRecent => write!(f, "least-recent"),
            ArbiterKind::Coarse { quantum } => write!(f, "coarse({quantum})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(bits: &[bool]) -> ThreadMask {
        ThreadMask::from_bools(bits)
    }

    #[test]
    fn fixed_priority_prefers_lowest() {
        let a = FixedPriority::new();
        assert_eq!(a.choose(&req(&[false, true, true])), Some(1));
        assert_eq!(a.choose(&req(&[false, false, false])), None);
    }

    #[test]
    fn round_robin_rotates_on_commit() {
        let mut a = RoundRobin::new();
        let req = req(&[true, true, true]);
        assert_eq!(a.choose(&req), Some(0));
        a.commit(0);
        assert_eq!(a.choose(&req), Some(1));
        a.commit(1);
        assert_eq!(a.choose(&req), Some(2));
        a.commit(2);
        assert_eq!(a.choose(&req), Some(0));
    }

    #[test]
    fn round_robin_skips_idle_threads() {
        let mut a = RoundRobin::new();
        a.commit(0); // pointer at 1
        assert_eq!(a.choose(&req(&[true, false, false])), Some(0));
        assert_eq!(a.choose(&req(&[false, false, true])), Some(2));
    }

    #[test]
    fn round_robin_choose_is_pure() {
        let a = RoundRobin::new();
        let req = req(&[true, true]);
        assert_eq!(a.choose(&req), a.choose(&req));
    }

    #[test]
    fn least_recent_grants_longest_idle() {
        let mut a = LeastRecent::new();
        a.commit(0);
        a.commit(1);
        // Thread 2 never granted: wins over 0 and 1.
        assert_eq!(a.choose(&req(&[true, true, true])), Some(2));
        a.commit(2);
        // Now thread 0 is the least recent.
        assert_eq!(a.choose(&req(&[true, true, true])), Some(0));
    }

    #[test]
    fn kind_builds_matching_policy() {
        for kind in ArbiterKind::all() {
            let a = kind.build();
            assert_eq!(a.choose(&req(&[true])), Some(0));
        }
        assert_eq!(ArbiterKind::RoundRobin.to_string(), "round-robin");
        assert_eq!(ArbiterKind::Coarse { quantum: 4 }.to_string(), "coarse(4)");
    }

    #[test]
    fn coarse_grained_holds_for_its_quantum() {
        let mut a = CoarseGrained::new(3);
        let req = req(&[true, true]);
        for _ in 0..3 {
            assert_eq!(a.choose(&req), Some(0));
            a.commit(0);
        }
        // Quantum exhausted: rotate.
        assert_eq!(a.choose(&req), Some(1));
        a.commit(1);
        assert_eq!(a.choose(&req), Some(1));
    }

    #[test]
    fn coarse_grained_yields_early_when_owner_goes_idle() {
        let mut a = CoarseGrained::new(8);
        a.commit(0);
        assert_eq!(a.choose(&req(&[false, true, true])), Some(1));
        a.commit(1);
        // Ownership moved to thread 1 with a fresh quantum.
        assert_eq!(a.choose(&req(&[true, true, true])), Some(1));
    }

    #[test]
    #[should_panic(expected = "quantum must be at least 1")]
    fn coarse_grained_rejects_zero_quantum() {
        CoarseGrained::new(0);
    }

    #[test]
    fn rotation_hint_honours_its_choose_contract() {
        // Exhaustive over 4-thread request sets: whenever a policy
        // advertises a hint, the inline wrapping scan must reproduce
        // `choose` exactly — including after commits move the pointer.
        let mut rr = RoundRobin::new();
        for granted in [None, Some(1), Some(3)] {
            if let Some(g) = granted {
                rr.commit(g);
            }
            let policies: [&dyn Arbiter; 2] = [&FixedPriority, &rr];
            for policy in policies {
                let hint = policy.rotation_hint().expect("rotating policy");
                for bits in 0u32..16 {
                    let requests =
                        req(&[bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0]);
                    assert_eq!(
                        policy.choose(&requests),
                        requests.next_one_wrapping(hint),
                        "{policy:?} diverges on {requests:?}"
                    );
                }
            }
        }
        // Richer policies must decline the fast path.
        assert_eq!(LeastRecent::new().rotation_hint(), None);
        assert_eq!(CoarseGrained::new(4).rotation_hint(), None);
    }

    #[test]
    fn boxed_arbiter_clones() {
        let mut a: Box<dyn Arbiter> = Box::new(RoundRobin::new());
        a.commit(0);
        let b = a.clone();
        assert_eq!(b.choose(&req(&[true, true])), Some(1));
    }
}
