//! A from-scratch software MD5 (RFC 1321) — the golden reference against
//! which the elastic circuit is verified.
//!
//! The algorithm processes 512-bit blocks through 64 steps organized as
//! **4 rounds of 16 steps**; the paper's hardware implements each round's
//! 16 steps as one fully unrolled combinational stage
//! ([`apply_round`]) — "the 16 steps of each round are fully unrolled and
//! implemented in a single cycle" (Sec. V-A).

/// MD5 initial chaining value (A, B, C, D).
pub const MD5_IV: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

/// Per-step left-rotation amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, // round 1
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, // round 2
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, // round 3
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, // round 4
];

/// Per-step additive constants, the RFC 1321 table wired into the round
/// datapath. [`k_table`] derives the same values from their definition,
/// and a test checks every entry against it.
const K: [u32; 64] = [
    // Round 1
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    // Round 2
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    // Round 3
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    // Round 4
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// The sine-derived additive constants: `K[i] = floor(|sin(i + 1)| · 2³²)`.
///
/// Computed (not transcribed) from the RFC definition; the datapath reads
/// the same values from a constant table.
pub fn k_table() -> [u32; 64] {
    let mut k = [0u32; 64];
    for (i, slot) in k.iter_mut().enumerate() {
        *slot = (f64::sin((i + 1) as f64).abs() * 4294967296.0) as u32;
    }
    k
}

/// Message-word index accessed by step `i`.
fn msg_index(i: usize) -> usize {
    match i / 16 {
        0 => i,
        1 => (5 * i + 1) % 16,
        2 => (3 * i + 5) % 16,
        _ => (7 * i) % 16,
    }
}

/// The round boolean function applied at step `i`.
fn round_fn(i: usize, b: u32, c: u32, d: u32) -> u32 {
    match i / 16 {
        0 => (b & c) | (!b & d),
        1 => (d & b) | (!d & c),
        2 => b ^ c ^ d,
        _ => c ^ (b | !d),
    }
}

/// Applies one MD5 step to the working state.
///
/// Always inlined: called out of line, each step stores the working
/// state as four words and the next call reloads it as one 16-byte
/// load, a store-forwarding stall that tripled the cost of a round.
#[inline(always)]
fn step(work: [u32; 4], block: &[u32; 16], i: usize) -> [u32; 4] {
    let [a, b, c, d] = work;
    let f = round_fn(i, b, c, d)
        .wrapping_add(a)
        .wrapping_add(K[i])
        .wrapping_add(block[msg_index(i)]);
    [d, b.wrapping_add(f.rotate_left(S[i])), b, c]
}

/// Applies the 16 unrolled steps of `round` (0–3) to the working state —
/// the combinational round unit of the paper's MD5 circuit.
///
/// # Panics
///
/// Panics if `round >= 4`.
///
/// # Examples
///
/// Four round applications equal one block compression:
///
/// ```
/// use elastic_md5::algo::{apply_round, compress, MD5_IV};
///
/// let block = [7u32; 16];
/// let mut work = MD5_IV;
/// for r in 0..4 {
///     work = apply_round(work, &block, r);
/// }
/// let direct = compress(MD5_IV, &block);
/// for i in 0..4 {
///     assert_eq!(direct[i], MD5_IV[i].wrapping_add(work[i]));
/// }
/// ```
pub fn apply_round(mut work: [u32; 4], block: &[u32; 16], round: usize) -> [u32; 4] {
    assert!(round < 4, "MD5 has exactly 4 rounds");
    for i in 16 * round..16 * (round + 1) {
        work = step(work, block, i);
    }
    work
}

/// Applies steps `from..from + count` of the 64-step schedule — the
/// building block of the *pipelined* round unit (the paper notes the
/// unrolled steps "could have been pipelined with minimum changes due to
/// elasticity").
///
/// # Panics
///
/// Panics if `from + count > 64`.
///
/// # Examples
///
/// Four 4-step stages equal one 16-step round:
///
/// ```
/// use elastic_md5::algo::{apply_round, apply_steps, MD5_IV};
///
/// let block = [3u32; 16];
/// let mut staged = MD5_IV;
/// for stage in 0..4 {
///     staged = apply_steps(staged, &block, 4 * stage, 4);
/// }
/// assert_eq!(staged, apply_round(MD5_IV, &block, 0));
/// ```
pub fn apply_steps(mut work: [u32; 4], block: &[u32; 16], from: usize, count: usize) -> [u32; 4] {
    assert!(from + count <= 64, "MD5 has exactly 64 steps");
    for i in from..from + count {
        work = step(work, block, i);
    }
    work
}

/// Compresses one 512-bit block into the chaining state.
pub fn compress(chain: [u32; 4], block: &[u32; 16]) -> [u32; 4] {
    let mut work = chain;
    for round in 0..4 {
        work = apply_round(work, block, round);
    }
    [
        chain[0].wrapping_add(work[0]),
        chain[1].wrapping_add(work[1]),
        chain[2].wrapping_add(work[2]),
        chain[3].wrapping_add(work[3]),
    ]
}

/// Pads `message` per RFC 1321 and splits it into 16-word blocks
/// (little-endian words).
pub fn pad_blocks(message: &[u8]) -> Vec<[u32; 16]> {
    let bit_len = (message.len() as u64).wrapping_mul(8);
    let mut bytes = message.to_vec();
    bytes.push(0x80);
    while bytes.len() % 64 != 56 {
        bytes.push(0);
    }
    bytes.extend_from_slice(&bit_len.to_le_bytes());
    debug_assert_eq!(bytes.len() % 64, 0);
    bytes
        .chunks_exact(64)
        .map(|chunk| {
            let mut block = [0u32; 16];
            for (w, word) in chunk.chunks_exact(4).enumerate() {
                block[w] = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            }
            block
        })
        .collect()
}

/// Serializes the final chaining state as the 16-byte digest.
pub fn digest_bytes(state: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (i, w) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Computes the MD5 digest of `message`.
///
/// # Examples
///
/// ```
/// use elastic_md5::algo::{md5, to_hex};
///
/// assert_eq!(to_hex(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
/// ```
pub fn md5(message: &[u8]) -> [u8; 16] {
    let mut chain = MD5_IV;
    for block in pad_blocks(message) {
        chain = compress(chain, &block);
    }
    digest_bytes(chain)
}

/// Renders a digest as lowercase hex.
pub fn to_hex(digest: &[u8; 16]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The complete RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_test_suite() {
        let vectors: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (msg, expect) in vectors {
            assert_eq!(
                to_hex(&md5(msg)),
                expect,
                "message {:?}",
                String::from_utf8_lossy(msg)
            );
        }
    }

    /// Every entry of the datapath's table, the RFC 1321 constants,
    /// equals its sine definition.
    #[test]
    fn k_table_matches_every_rfc_constant() {
        for (i, (&computed, &table)) in k_table().iter().zip(&K).enumerate() {
            assert_eq!(computed, table, "K[{i}]");
        }
    }

    #[test]
    fn padding_appends_one_bit_and_length() {
        let blocks = pad_blocks(b"");
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0][0], 0x0000_0080); // 0x80 then zeros, LE
        assert_eq!(blocks[0][14], 0); // bit length low word
        let blocks = pad_blocks(&[0u8; 56]); // forces a second block
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1][14], 56 * 8);
    }

    #[test]
    fn multi_block_messages_chain() {
        // 200 bytes → 4 blocks; compare against a second, independent
        // formulation (explicit chaining through compress).
        let msg: Vec<u8> = (0..200u8).collect();
        let mut chain = MD5_IV;
        for block in pad_blocks(&msg) {
            chain = compress(chain, &block);
        }
        assert_eq!(digest_bytes(chain), md5(&msg));
    }

    #[test]
    fn rounds_compose_into_compress() {
        let block = pad_blocks(b"roundtrip")[0];
        let mut work = MD5_IV;
        for r in 0..4 {
            work = apply_round(work, &block, r);
        }
        let combined = [
            MD5_IV[0].wrapping_add(work[0]),
            MD5_IV[1].wrapping_add(work[1]),
            MD5_IV[2].wrapping_add(work[2]),
            MD5_IV[3].wrapping_add(work[3]),
        ];
        assert_eq!(combined, compress(MD5_IV, &block));
    }

    #[test]
    #[should_panic(expected = "exactly 4 rounds")]
    fn apply_round_rejects_round_4() {
        apply_round(MD5_IV, &[0; 16], 4);
    }
}
