//! Packed per-thread handshake masks.
//!
//! The MT-elastic protocol (Sec. III of the paper) is per-thread
//! `valid(i)/ready(i)` *bit pairs* — in hardware these are S parallel
//! wires, not a heap structure. [`ThreadMask`] packs one such bit set
//! into machine words: a single inline `u64` covers the common S ≤ 64
//! case with zero heap traffic, and a boxed spillover slice extends the
//! same API to arbitrary thread counts. All operations (set, clear,
//! popcount, rotation search, diff-against-previous) are O(words), so
//! the settle loop's change detection and the arbiter rotations cost a
//! handful of ALU ops instead of allocator round-trips.

/// A packed set of per-thread handshake bits.
///
/// Bit `t` corresponds to thread `t`. Bits at or above
/// [`ThreadMask::threads`] are always zero, which keeps `PartialEq`,
/// popcounts and word-level diffs exact without masking at every use
/// site.
#[derive(Clone, PartialEq, Eq)]
pub struct ThreadMask {
    /// Number of valid thread slots (bits beyond this stay zero).
    threads: usize,
    /// Bits 0..64 — the fast path; the only storage when `threads <= 64`.
    head: u64,
    /// Bits 64.. for S > 64, one `u64` per 64 threads.
    rest: Option<Box<[u64]>>,
}

impl Default for ThreadMask {
    /// A zero-width mask — the useful default for lazily-sized scratch
    /// fields (resize on first use by comparing [`ThreadMask::threads`]).
    fn default() -> Self {
        Self::new(0)
    }
}

impl std::fmt::Debug for ThreadMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Render as the thread-index set, matching how the old
        // `Vec<bool>` state read in assertions and debug dumps.
        f.debug_set().entries(self.iter_ones()).finish()
    }
}

impl ThreadMask {
    /// An all-zero mask with `threads` slots.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let rest = if threads > 64 {
            Some(vec![0u64; threads.div_ceil(64) - 1].into_boxed_slice())
        } else {
            None
        };
        Self {
            threads,
            head: 0,
            rest,
        }
    }

    /// Builds a mask from a `Vec<bool>`-style slice (tests, migration).
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut m = Self::new(bits.len());
        for (t, &b) in bits.iter().enumerate() {
            if b {
                m.set(t, true);
            }
        }
        m
    }

    /// Number of thread slots.
    #[inline]
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Word `idx`: bits `64 * idx ..` (zero past the last word).
    #[inline]
    pub(crate) fn word(&self, idx: usize) -> u64 {
        if idx == 0 {
            self.head
        } else {
            self.rest.as_ref().map_or(0, |r| r[idx - 1])
        }
    }

    #[inline]
    fn word_mut(&mut self, idx: usize) -> &mut u64 {
        if idx == 0 {
            &mut self.head
        } else {
            &mut self.rest.as_mut().expect("spillover words exist")[idx - 1]
        }
    }

    /// Overwrites word `idx` with `bits`, which must keep the bits at or
    /// above [`threads`](ThreadMask::threads) zero.
    #[inline]
    pub(crate) fn set_word(&mut self, idx: usize, bits: u64) {
        debug_assert_eq!(bits & !self.tail_mask(idx), 0, "bits past the thread count");
        *self.word_mut(idx) = bits;
    }

    #[inline]
    fn word_count(&self) -> usize {
        1 + self.rest.as_ref().map_or(0, |r| r.len())
    }

    /// Reads bit `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range (mirrors slice indexing).
    #[inline]
    #[must_use]
    pub fn get(&self, t: usize) -> bool {
        assert!(t < self.threads, "thread {t} out of range {}", self.threads);
        self.word(t / 64) >> (t % 64) & 1 != 0
    }

    /// Writes bit `t`; returns `true` iff the bit changed.
    #[inline]
    pub fn set(&mut self, t: usize, value: bool) -> bool {
        assert!(t < self.threads, "thread {t} out of range {}", self.threads);
        let w = self.word_mut(t / 64);
        let bit = 1u64 << (t % 64);
        let old = *w;
        if value {
            *w |= bit;
        } else {
            *w &= !bit;
        }
        *w != old
    }

    /// Clears every bit; returns `true` iff any bit was set.
    #[inline]
    pub fn clear(&mut self) -> bool {
        if self.rest.is_some() {
            return self.clear_wide();
        }
        let had = self.head != 0;
        self.head = 0;
        had
    }

    #[inline(never)]
    fn clear_wide(&mut self) -> bool {
        let had = self.any();
        self.head = 0;
        if let Some(r) = self.rest.as_mut() {
            r.fill(0);
        }
        had
    }

    /// Sets bit `t` and clears every other bit in one word-level pass;
    /// returns `true` iff the mask changed. This is the "drive exactly
    /// one thread's valid" idiom of the settle loop.
    #[inline]
    pub fn set_only(&mut self, t: usize) -> bool {
        assert!(t < self.threads, "thread {t} out of range {}", self.threads);
        if self.rest.is_some() {
            return self.set_only_wide(t);
        }
        let want = 1u64 << t;
        let changed = self.head != want;
        self.head = want;
        changed
    }

    #[inline(never)]
    fn set_only_wide(&mut self, t: usize) -> bool {
        let target_word = t / 64;
        let target = 1u64 << (t % 64);
        let mut changed = false;
        for idx in 0..self.word_count() {
            let want = if idx == target_word { target } else { 0 };
            let w = self.word_mut(idx);
            if *w != want {
                *w = want;
                changed = true;
            }
        }
        changed
    }

    /// `true` iff any bit is set.
    #[inline]
    #[must_use]
    pub fn any(&self) -> bool {
        self.head != 0
            || self
                .rest
                .as_ref()
                .is_some_and(|r| r.iter().any(|&w| w != 0))
    }

    /// Number of set bits.
    #[inline]
    #[must_use]
    pub fn count_ones(&self) -> usize {
        if self.rest.is_some() {
            return self.count_ones_wide();
        }
        self.head.count_ones() as usize
    }

    #[inline(never)]
    fn count_ones_wide(&self) -> usize {
        (0..self.word_count())
            .map(|idx| self.word(idx).count_ones() as usize)
            .sum()
    }

    /// If exactly one bit is set, its index; otherwise `None`. This is
    /// the protocol invariant probe ("at most one valid thread").
    #[inline]
    #[must_use]
    pub fn single(&self) -> Option<usize> {
        if self.rest.is_some() {
            return self.single_wide();
        }
        // One word: exactly one bit is set iff clearing the lowest set
        // bit leaves nothing (no popcount, which the baseline x86-64
        // target has no instruction for).
        let w = self.head;
        (w != 0 && w & (w - 1) == 0).then(|| w.trailing_zeros() as usize)
    }

    #[inline(never)]
    fn single_wide(&self) -> Option<usize> {
        if self.count_ones() == 1 {
            self.first_one()
        } else {
            None
        }
    }

    /// Index of the lowest set bit, if any.
    #[inline]
    #[must_use]
    pub fn first_one(&self) -> Option<usize> {
        if self.rest.is_some() {
            return self.first_one_wide();
        }
        (self.head != 0).then(|| self.head.trailing_zeros() as usize)
    }

    #[inline(never)]
    fn first_one_wide(&self) -> Option<usize> {
        for idx in 0..self.word_count() {
            let w = self.word(idx);
            if w != 0 {
                return Some(idx * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Wrapping rotation scan within one word: first set bit of `w` at
    /// index ≥ `start` (`start < 64`), else the first set bit below it.
    #[inline]
    fn rotate_word(w: u64, start: usize) -> Option<usize> {
        let above = w & (!0u64 << start);
        let found = if above != 0 { above } else { w };
        (found != 0).then(|| found.trailing_zeros() as usize)
    }

    /// `start` folded into `0..threads` (`None` for a zero-width mask).
    /// `start == threads` (treated as 0) is the only common overshoot,
    /// so the division stays off the hot path.
    #[inline]
    fn wrap_start(&self, start: usize) -> Option<usize> {
        if start < self.threads {
            Some(start)
        } else if self.threads == 0 {
            None
        } else {
            Some(start % self.threads)
        }
    }

    /// First set bit at index ≥ `start`, wrapping past the end — the
    /// round-robin rotation search shared by arbiters and stall
    /// pointers. `start` may equal `threads` (treated as 0).
    #[inline]
    #[must_use]
    pub fn next_one_wrapping(&self, start: usize) -> Option<usize> {
        let start = self.wrap_start(start)?;
        if self.rest.is_some() {
            return self.scan_wrapping_wide(None, start);
        }
        // Single-word fast path (S ≤ 64): the rotation is two masked
        // scans of the inline word, no division, no loop.
        Self::rotate_word(self.head, start)
    }

    /// First bit set in **both** `self` and `other` at index ≥ `start`,
    /// wrapping past the end — [`next_one_wrapping`] over the
    /// intersection, with the AND folded into the word scan. Hot
    /// selection paths (`requests = has ∩ ready`, then rotate) use this
    /// to skip materialising the intersection in a scratch mask.
    ///
    /// [`next_one_wrapping`]: ThreadMask::next_one_wrapping
    ///
    /// # Panics
    ///
    /// Panics if the masks have different thread counts.
    #[inline]
    #[must_use]
    pub fn next_one_wrapping_and(&self, other: &Self, start: usize) -> Option<usize> {
        assert_eq!(self.threads, other.threads, "mask width mismatch");
        let start = self.wrap_start(start)?;
        if self.rest.is_some() {
            return self.scan_wrapping_wide(Some(other), start);
        }
        // Equal widths, so `other` is single-word too.
        Self::rotate_word(self.head & other.head, start)
    }

    /// The multi-word rotation scan of [`next_one_wrapping`] and
    /// [`next_one_wrapping_and`] (`other` absent: no intersection):
    /// [start, end) word by word, masking off bits below `start` in the
    /// first word, then wrapping to [0, start).
    ///
    /// [`next_one_wrapping`]: ThreadMask::next_one_wrapping
    /// [`next_one_wrapping_and`]: ThreadMask::next_one_wrapping_and
    #[inline(never)]
    fn scan_wrapping_wide(&self, other: Option<&Self>, start: usize) -> Option<usize> {
        let words = self.word_count();
        let first_word = start / 64;
        for step in 0..=words {
            let idx = (first_word + step) % words;
            let mut w = self.word(idx) & other.map_or(!0, |o| o.word(idx));
            if step == 0 {
                w &= !0u64 << (start % 64);
            } else if step == words {
                // Wrapped fully around: only bits below `start` remain.
                if start.is_multiple_of(64) {
                    break;
                }
                w &= !(!0u64 << (start % 64));
            }
            if w != 0 {
                return Some(idx * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The valid-bit mask of word `idx` (all-ones except for the final
    /// partial word, whose bits at or above `threads` stay zero).
    #[inline]
    fn tail_mask(&self, idx: usize) -> u64 {
        let used = self.threads - idx * 64;
        if used >= 64 {
            !0u64
        } else {
            (1u64 << used) - 1
        }
    }

    /// Sets every thread's bit in one word-level pass (bits at or above
    /// [`threads`](ThreadMask::threads) stay zero).
    #[inline]
    pub fn fill(&mut self) {
        self.head = self.tail_mask(0);
        if self.rest.is_some() {
            self.fill_rest();
        }
    }

    #[inline(never)]
    fn fill_rest(&mut self) {
        for idx in 1..self.word_count() {
            *self.word_mut(idx) = self.tail_mask(idx);
        }
    }

    /// Assigns the complement of `other` to `self` in one word-level
    /// pass, keeping bits at or above the thread count zero.
    ///
    /// # Panics
    ///
    /// Panics if the masks have different thread counts.
    #[inline]
    pub fn assign_not(&mut self, other: &Self) {
        assert_eq!(self.threads, other.threads, "mask width mismatch");
        self.head = !other.head & self.tail_mask(0);
        if self.rest.is_some() {
            self.assign_not_rest(other);
        }
    }

    #[inline(never)]
    fn assign_not_rest(&mut self, other: &Self) {
        for idx in 1..self.word_count() {
            *self.word_mut(idx) = !other.word(idx) & self.tail_mask(idx);
        }
    }

    /// Copies `other`'s bits into `self` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the masks have different thread counts.
    #[inline]
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.threads, other.threads, "mask width mismatch");
        self.head = other.head;
        if let (Some(dst), Some(src)) = (self.rest.as_mut(), other.rest.as_ref()) {
            Self::zip_rest(dst, src, src, |_, s, _| s);
        }
    }

    /// Copies `other`'s bits into `self` like
    /// [`copy_from`](ThreadMask::copy_from), additionally reporting
    /// whether any bit changed — the word-level analogue of the per-thread
    /// [`set`](ThreadMask::set) diff that the
    /// `EvalCtx::set_ready_mask`/`set_valid_mask` commits are built on.
    ///
    /// # Panics
    ///
    /// Panics if the masks have different thread counts.
    #[inline]
    pub fn assign(&mut self, other: &Self) -> bool {
        assert_eq!(self.threads, other.threads, "mask width mismatch");
        let mut changed = self.head != other.head;
        self.head = other.head;
        if let (Some(dst), Some(src)) = (self.rest.as_mut(), other.rest.as_ref()) {
            changed |= Self::zip_rest(dst, src, src, |_, s, _| s);
        }
        changed
    }

    /// Assigns `a ∧ b` to `self` in one word-level pass, reporting
    /// whether any bit changed (the gated form of
    /// [`assign`](ThreadMask::assign)).
    ///
    /// # Panics
    ///
    /// Panics if the three masks do not all have the same thread count.
    #[inline]
    pub fn assign_and(&mut self, a: &Self, b: &Self) -> bool {
        assert_eq!(self.threads, a.threads, "mask width mismatch");
        assert_eq!(self.threads, b.threads, "mask width mismatch");
        let head = a.head & b.head;
        let mut changed = self.head != head;
        self.head = head;
        if let (Some(dst), Some(x), Some(y)) =
            (self.rest.as_mut(), a.rest.as_ref(), b.rest.as_ref())
        {
            changed |= Self::zip_rest(dst, x, y, |_, x, y| x & y);
        }
        changed
    }

    /// Intersects `self` with `other` in place.
    ///
    /// # Panics
    ///
    /// Panics if the masks have different thread counts.
    #[inline]
    pub fn and_with(&mut self, other: &Self) {
        assert_eq!(self.threads, other.threads, "mask width mismatch");
        self.head &= other.head;
        if let (Some(dst), Some(src)) = (self.rest.as_mut(), other.rest.as_ref()) {
            Self::zip_rest(dst, src, src, |d, s, _| d & s);
        }
    }

    /// Unites `self` with `other` in place.
    ///
    /// # Panics
    ///
    /// Panics if the masks have different thread counts.
    #[inline]
    pub fn or_with(&mut self, other: &Self) {
        assert_eq!(self.threads, other.threads, "mask width mismatch");
        self.head |= other.head;
        if let (Some(dst), Some(src)) = (self.rest.as_mut(), other.rest.as_ref()) {
            Self::zip_rest(dst, src, src, |d, s, _| d | s);
        }
    }

    /// The spillover words of the two-operand ops: `dst[i] = f(dst[i],
    /// x[i], y[i])`, reporting whether any word changed.
    #[inline(never)]
    fn zip_rest(dst: &mut [u64], x: &[u64], y: &[u64], f: impl Fn(u64, u64, u64) -> u64) -> bool {
        let mut changed = false;
        for ((d, &x), &y) in dst.iter_mut().zip(x).zip(y) {
            let w = f(*d, x, y);
            changed |= *d != w;
            *d = w;
        }
        changed
    }

    /// Allocation-free iterator over the set bit indices, ascending.
    #[inline]
    #[must_use]
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            mask: self,
            word_idx: 0,
            current: self.head,
        }
    }
}

/// Iterator over the set bits of a [`ThreadMask`], lowest first.
///
/// Returned by [`ThreadMask::iter_ones`]; holds no heap state.
pub struct Ones<'a> {
    mask: &'a ThreadMask,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            if self.word_idx + 1 >= self.mask.word_count() {
                return None;
            }
            self.word_idx += 1;
            self.current = self.mask.word(self.word_idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model: the `Vec<bool>` representation the mask replaced.
    fn ref_next_one_wrapping(bits: &[bool], start: usize) -> Option<usize> {
        let n = bits.len();
        if n == 0 {
            return None;
        }
        (0..n).map(|off| (start + off) % n).find(|&t| bits[t])
    }

    #[test]
    fn empty_mask_has_no_bits() {
        for s in [0, 1, 63, 64, 65, 130] {
            let m = ThreadMask::new(s);
            assert!(!m.any());
            assert_eq!(m.count_ones(), 0);
            assert_eq!(m.first_one(), None);
            assert_eq!(m.single(), None);
            assert_eq!(m.iter_ones().count(), 0);
        }
    }

    #[test]
    fn set_get_roundtrip_across_the_word_boundary() {
        let mut m = ThreadMask::new(65);
        assert!(m.set(64, true), "setting a clear bit reports a change");
        assert!(!m.set(64, true), "re-setting is idempotent");
        assert!(m.get(64));
        assert!(!m.get(63));
        assert_eq!(m.first_one(), Some(64));
        assert_eq!(m.single(), Some(64));
        assert!(m.set(3, true));
        assert_eq!(m.single(), None);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![3, 64]);
        assert!(m.set(64, false));
        assert_eq!(m.single(), Some(3));
    }

    #[test]
    fn set_only_is_a_word_level_replace() {
        let mut m = ThreadMask::from_bools(&[true, false, true, false]);
        assert!(m.set_only(3), "mask changed");
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![3]);
        assert!(!m.set_only(3), "already exactly this bit");
        let mut big = ThreadMask::new(130);
        big.set(0, true);
        big.set(129, true);
        assert!(big.set_only(70));
        assert_eq!(big.iter_ones().collect::<Vec<_>>(), vec![70]);
    }

    #[test]
    fn next_one_wrapping_matches_rotation_scan() {
        let m = ThreadMask::from_bools(&[false, true, false, true]);
        assert_eq!(m.next_one_wrapping(0), Some(1));
        assert_eq!(m.next_one_wrapping(1), Some(1));
        assert_eq!(m.next_one_wrapping(2), Some(3));
        assert_eq!(m.next_one_wrapping(4), Some(1), "start == threads wraps");
        let empty = ThreadMask::new(4);
        assert_eq!(empty.next_one_wrapping(2), None);
        assert_eq!(ThreadMask::new(0).next_one_wrapping(0), None);
    }

    #[test]
    fn next_one_wrapping_and_scans_the_intersection() {
        let a = ThreadMask::from_bools(&[true, true, false, true]);
        let b = ThreadMask::from_bools(&[false, true, true, true]);
        assert_eq!(a.next_one_wrapping_and(&b, 0), Some(1));
        assert_eq!(a.next_one_wrapping_and(&b, 2), Some(3));
        assert_eq!(a.next_one_wrapping_and(&b, 4), Some(1), "start wraps");
        let none = ThreadMask::from_bools(&[true, false]);
        let other = ThreadMask::from_bools(&[false, true]);
        assert_eq!(none.next_one_wrapping_and(&other, 0), None);
        // Spillover words: only common bit is past the inline word.
        let mut big_a = ThreadMask::new(130);
        let mut big_b = ThreadMask::new(130);
        big_a.set(3, true);
        big_a.set(129, true);
        big_b.set(129, true);
        assert_eq!(big_a.next_one_wrapping_and(&big_b, 0), Some(129));
        assert_eq!(big_a.next_one_wrapping_and(&big_b, 130), Some(129));
    }

    #[test]
    fn clear_reports_whether_bits_were_set() {
        let mut m = ThreadMask::from_bools(&[false, true]);
        assert!(m.clear());
        assert!(!m.clear());
        let mut big = ThreadMask::new(100);
        big.set(99, true);
        assert!(big.clear());
        assert!(!big.any());
    }

    #[test]
    fn copy_and_intersect_cover_spillover_words() {
        let a = ThreadMask::from_bools(&(0..130).map(|t| t % 3 == 0).collect::<Vec<_>>());
        let b = ThreadMask::from_bools(&(0..130).map(|t| t % 2 == 0).collect::<Vec<_>>());
        let mut c = ThreadMask::new(130);
        c.copy_from(&a);
        assert_eq!(c, a);
        c.and_with(&b);
        let expect: Vec<usize> = (0..130).filter(|t| t % 6 == 0).collect();
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn assign_reports_word_level_change() {
        let mut m = ThreadMask::from_bools(&[true, false, true]);
        let same = m.clone();
        assert!(!m.assign(&same), "identical copy reports no change");
        let other = ThreadMask::from_bools(&[false, true, true]);
        assert!(m.assign(&other));
        assert_eq!(m, other);
        let mut big = ThreadMask::new(130);
        let mut src = ThreadMask::new(130);
        src.set(129, true);
        assert!(big.assign(&src), "spillover-word change detected");
        assert!(!big.assign(&src));
        assert_eq!(big.iter_ones().collect::<Vec<_>>(), vec![129]);
    }

    #[test]
    fn assign_and_reports_word_level_change() {
        for width in [3usize, 130] {
            let a = ThreadMask::from_bools(&(0..width).map(|t| t % 2 == 0).collect::<Vec<_>>());
            let b = ThreadMask::from_bools(&(0..width).map(|t| t % 3 == 0).collect::<Vec<_>>());
            let mut m = ThreadMask::new(width);
            assert!(m.assign_and(&a, &b), "width {width}: gated bits appear");
            assert!(
                !m.assign_and(&a, &b),
                "width {width}: same result, no change"
            );
            assert!(m.assign_and(&a, &ThreadMask::new(width)), "width {width}");
            assert!(!m.any());
        }
    }

    #[test]
    fn debug_renders_the_index_set() {
        let m = ThreadMask::from_bools(&[true, false, true]);
        assert_eq!(format!("{m:?}"), "{0, 2}");
    }

    /// Checks every mask operation on the pattern `bits` against the
    /// `Vec<bool>` reference model, change flags included.
    fn check_against_vec_bool(bits: &[bool], seed: u64, start: usize) {
        let s = bits.len();
        let m = ThreadMask::from_bools(bits);
        let ones = |bits: &[bool]| bits.iter().filter(|&&b| b).count();

        // Point reads and aggregates.
        for (t, &b) in bits.iter().enumerate() {
            assert_eq!(m.get(t), b);
        }
        assert_eq!(m.any(), bits.iter().any(|&b| b));
        assert_eq!(m.count_ones(), ones(bits));
        assert_eq!(m.first_one(), bits.iter().position(|&b| b));
        let expect_single = if ones(bits) == 1 {
            bits.iter().position(|&b| b)
        } else {
            None
        };
        assert_eq!(m.single(), expect_single);
        assert_eq!(
            m.iter_ones().collect::<Vec<_>>(),
            bits.iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(t, _)| t)
                .collect::<Vec<_>>()
        );

        // Rotation search from an arbitrary start point.
        let start = start % (s + 1);
        assert_eq!(
            m.next_one_wrapping(start),
            ref_next_one_wrapping(bits, start)
        );

        // Mutation: set_only at a seed-derived position, and clear.
        let t = (seed as usize).wrapping_mul(31) % s;
        let mut only = m.clone();
        let mut ref_only = vec![false; s];
        ref_only[t] = true;
        assert_eq!(only.set_only(t), bits != ref_only.as_slice());
        assert_eq!(only, ThreadMask::from_bools(&ref_only));
        let mut cleared = m.clone();
        assert_eq!(cleared.clear(), ones(bits) > 0);
        assert_eq!(cleared, ThreadMask::new(s));

        // Intersection against a shifted copy of the same pattern.
        let other_bits: Vec<bool> = (0..s).map(|i| bits[(i + 1) % s]).collect();
        let other = ThreadMask::from_bools(&other_bits);
        let mut anded = m.clone();
        anded.and_with(&other);
        let ref_and: Vec<bool> = bits
            .iter()
            .zip(&other_bits)
            .map(|(&a, &b)| a && b)
            .collect();
        assert_eq!(&anded, &ThreadMask::from_bools(&ref_and));
        let mut gated = m.clone();
        assert_eq!(gated.assign_and(&m, &other), bits != ref_and.as_slice());
        assert_eq!(&gated, &anded);
        let mut ored = m.clone();
        ored.or_with(&other);
        let ref_or: Vec<bool> = bits
            .iter()
            .zip(&other_bits)
            .map(|(&a, &b)| a || b)
            .collect();
        assert_eq!(&ored, &ThreadMask::from_bools(&ref_or));

        // Whole-mask copies: `copy_from` and the change-reporting `assign`.
        let mut copied = other.clone();
        copied.copy_from(&m);
        assert_eq!(&copied, &m);
        let mut assigned = other.clone();
        assert_eq!(assigned.assign(&m), bits != other_bits.as_slice());
        assert_eq!(&assigned, &m);
        assert!(!assigned.assign(&m), "assigning the same bits again");

        // The rotate-over-intersection scan agrees with materialising
        // the intersection first.
        assert_eq!(
            m.next_one_wrapping_and(&other, start),
            ref_next_one_wrapping(&ref_and, start)
        );

        // Word-level fill and complement respect the tail clamp.
        let mut full = m.clone();
        full.fill();
        assert_eq!(&full, &ThreadMask::from_bools(&vec![true; s]));
        assert_eq!(full.count_ones(), s);
        let mut inv = ThreadMask::new(s);
        inv.assign_not(&m);
        let ref_not: Vec<bool> = bits.iter().map(|&b| !b).collect();
        assert_eq!(&inv, &ThreadMask::from_bools(&ref_not));
    }

    // The word-boundary equivalence campaign: every mask operation is
    // checked against the Vec<bool> reference model at widths that run
    // the one-word bodies (1, 63, 64) and the multi-word helpers (65,
    // 128, 129), on a seeded pattern and on a one-bit pattern.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mask_ops_match_vec_bool_reference(
            width in 0usize..6,
            seed in any::<u64>(),
            start in 0usize..130,
        ) {
            let s = [1usize, 63, 64, 65, 128, 129][width];
            let bits: Vec<bool> = (0..s).map(|t| (seed >> (t % 64)) & 1 != 0 && t % 7 != 3).collect();
            check_against_vec_bool(&bits, seed, start);
            let one = (seed >> 32) as usize % s;
            let one_bit: Vec<bool> = (0..s).map(|t| t == one).collect();
            check_against_vec_bool(&one_bit, seed, start);
        }
    }
}
