//! FNV-1a: the one process-stable 64-bit digest behind structural IR
//! hashes, campaign keys and capture digests.

/// A 64-bit FNV-1a hasher, fed a byte at a time.
///
/// Unlike [`std::hash::DefaultHasher`], its output is fixed across
/// processes, platforms and Rust versions, so a digest can key a cache or
/// be compared with one from another run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in `bytes`, one at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in `word` as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The digest of everything folded in so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Folds formatted text in as its UTF-8 bytes, so `write!(h, "{v:?}")`
/// hashes a rendering without building it as a `String` first. Never
/// fails.
impl std::fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
