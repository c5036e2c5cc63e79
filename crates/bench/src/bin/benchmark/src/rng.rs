//! Seeded input generation and output digests.

/// SplitMix64: a small, fast generator whose whole state is the seed, so
/// the same `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams of one seed
    /// are independent (each workload draws from its own).
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = Fnv::new();
        h.eat(stream.as_bytes());
        Rng(seed ^ h.0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<X>(&mut self, xs: &mut [X]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// FNV-1a over a byte stream: the digest every job folds its checked
/// outputs into, so two runs of one seed can be compared bit for bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.eat(&w.to_le_bytes());
    }
}
