//! `md5_hash`: the paper's MD5 circuit hashing batches of seeded
//! messages, every digest checked against software MD5.
//!
//! Barrier, Transform round logic, multi-round settles and per-call
//! elaboration: a gain that only helps plain MEB ops should show no
//! change here.

use std::time::{Duration, Instant};

use elastic_core::MebKind;
use elastic_md5::{algo, Md5Circuit, Md5Hasher};
use elastic_sim::EvalMode;

use crate::record::Rec;
use crate::rng::{Fnv, Rng};
use crate::{Scale, Workload};

/// Hardware threads of the hashing circuit (one message per thread).
const THREADS: usize = 8;

struct Batch {
    messages: Vec<Vec<u8>>,
    expected: Vec<[u8; 16]>,
}

pub struct Md5Hash {
    batches: Vec<Batch>,
    /// Host time of software MD5 over one rep's messages.
    software: Duration,
}

impl Md5Hash {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let count = match scale {
            Scale::Full => 300,
            Scale::Smoke => 2,
        };
        let mut rng = Rng::new(seed, "md5_hash");
        // A batch takes as many waves as its longest message has blocks.
        // Batches come in a fixed mix of 1, 2, 3, 4 and 4 waves, so the
        // median batch is a 3-wave one whatever the seed.
        let mut waves: Vec<usize> = (0..count).map(|i| [1, 2, 3, 4, 4][i % 5]).collect();
        rng.shuffle(&mut waves);
        let messages: Vec<Vec<Vec<u8>>> = waves
            .iter()
            .map(|&w| {
                // Message lengths of 1..=4 blocks: up to 55, 119, 183 and
                // (capped here) 200 bytes.
                let (lo, hi) = [(0, 55), (56, 119), (120, 183), (184, 200)][w - 1];
                let longest = rng.below(THREADS as u64) as usize;
                (0..THREADS)
                    .map(|m| {
                        let len = if m == longest {
                            lo + rng.below(hi - lo + 1)
                        } else {
                            rng.below(hi + 1)
                        } as usize;
                        (0..len).map(|_| rng.next_u64() as u8).collect()
                    })
                    .collect()
            })
            .collect();
        let start = Instant::now();
        let expected: Vec<Vec<[u8; 16]>> = messages
            .iter()
            .map(|batch| batch.iter().map(|m| algo::md5(m)).collect())
            .collect();
        let software = start.elapsed();
        let batches = messages
            .into_iter()
            .zip(expected)
            .map(|(messages, expected)| Batch { messages, expected })
            .collect();
        Self { batches, software }
    }

    fn run(batch: &Batch, hasher: &Md5Hasher, rec: &mut Rec) -> Result<(Fnv, u64), String> {
        let refs: Vec<&[u8]> = batch.messages.iter().map(Vec::as_slice).collect();
        let (digests, cycles, kernel) = rec
            .span("md5.hash", |_| hasher.hash_messages_instrumented(&refs))
            .map_err(|e| e.to_string())?;
        rec.kernel.merge(&kernel);
        rec.span("bench.check", |_| {
            let mut digest = Fnv::new();
            for (i, (got, want)) in digests.iter().zip(&batch.expected).enumerate() {
                if got != want {
                    return Err(format!(
                        "message {i}: circuit {} != software {}",
                        algo::to_hex(got),
                        algo::to_hex(want)
                    ));
                }
                digest.eat(got);
            }
            if digests.len() != batch.expected.len() {
                return Err(format!(
                    "{} digests for {} messages",
                    digests.len(),
                    refs.len()
                ));
            }
            Ok((digest, cycles))
        })
    }
}

impl Workload for Md5Hash {
    fn oracle(&self, rec: &mut Rec) {
        let batch = &self.batches[0];
        rec.job("oracle batch 0", |rec| {
            let fast = Self::run(batch, &Md5Hasher::new(THREADS, MebKind::Reduced), rec)?;
            let exhaustive =
                Md5Hasher::new(THREADS, MebKind::Reduced).with_eval_mode(EvalMode::Exhaustive);
            let oracle = Self::run(batch, &exhaustive, rec)?;
            if fast != oracle {
                return Err(format!("event-driven {fast:?} != exhaustive {oracle:?}"));
            }
            Ok(())
        });
    }

    fn rep(&self, rec: &mut Rec) {
        let hasher = Md5Hasher::new(THREADS, MebKind::Reduced);
        rec.count("md5.sw_s", self.software.as_secs_f64());
        for (i, batch) in self.batches.iter().enumerate() {
            // The hasher elaborates inside its call; one build with the
            // same arguments, timed on its own, stands for that set-up.
            rec.setup("md5.build", |_| {
                Md5Circuit::with_stages(THREADS, batch.messages.len(), MebKind::Reduced, 1)
            });
            rec.job(&format!("batch {i}"), |rec| {
                let (digest, cycles) = Self::run(batch, &hasher, rec)?;
                rec.digest.word(digest.0);
                rec.items += batch.messages.len() as u64;
                rec.cycles += cycles;
                Ok(())
            });
        }
    }
}
