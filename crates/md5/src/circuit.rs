//! The multithreaded elastic MD5 circuit (paper, Sec. V-A).
//!
//! Topology (all channels `S`-threaded):
//!
//! ```text
//!               ┌────────────────── loopback ──────────────────┐
//!               ▼                                              │
//! feeder ─► M-Merge ─► MEB(in) ─► round unit ─► MEB(out) ─► barrier ─► M-Branch ─► sink
//!                                    ▲                  (after the output buffer)   (round == 4 exits)
//!                              global round counter
//!                            (incremented on barrier release)
//! ```
//!
//! Each pass through the round unit applies the 16 fully unrolled steps of
//! one MD5 round in a single cycle; a block therefore needs four trips
//! around the loop. Because "MD5 requires a different configuration for
//! each round, all threads need to synchronize before moving to the next
//! round" — the barrier blocks the flow after the output buffer and, when
//! released, the global round counter advances. The round unit *asserts*
//! that every token it processes agrees with the global configuration;
//! this is the synchronization property the barrier exists to guarantee.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use elastic_core::{ArbiterKind, MebKind};
use elastic_cost::primitives::{adder, lut_layer, mux};
use elastic_sim::{
    ChannelId, Circuit, EvalMode, KernelStats, ReadyPolicy, SimError, Sink, Source, Token,
};
use elastic_synth::{
    CycleCoverLint, ElasticIr, IrChannelId, IrNodeKind, MebSubstitution, PassManager, ProtocolLint,
};

use crate::algo::{apply_steps, digest_bytes, pad_blocks, MD5_IV};
use elastic_sim::thread_letter;

/// A block-processing token circulating in the MD5 loop.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Md5Token {
    /// Owning thread.
    pub thread: usize,
    /// Wave index (the how-many-th block of this thread).
    pub wave: usize,
    /// The 512-bit message block.
    pub block: [u32; 16],
    /// Chaining value before this block.
    pub chain: [u32; 4],
    /// Working state (a, b, c, d), updated once per round trip.
    pub work: [u32; 4],
    /// Steps of the 64-step schedule applied so far (0–64; a round is 16
    /// steps).
    pub steps_done: u8,
    /// Length-equalization bubble: participates in barriers, discarded at
    /// the exit.
    pub phantom: bool,
}

impl Token for Md5Token {
    fn label(&self) -> String {
        let tag = thread_letter(self.thread);
        if self.phantom {
            format!("{}w{}s{}·", tag, self.wave, self.steps_done)
        } else {
            format!("{}w{}s{}", tag, self.wave, self.steps_done)
        }
    }
}

/// Errors from the MD5 circuit driver.
#[derive(Debug)]
pub enum Md5Error {
    /// More messages than hardware threads.
    TooManyMessages {
        /// Messages supplied.
        given: usize,
        /// Threads available.
        threads: usize,
    },
    /// [`Md5Circuit::hash`] got a message count other than the
    /// participant count the circuit was built for.
    WrongMessageCount {
        /// Messages supplied.
        given: usize,
        /// Participating threads of the circuit.
        participants: usize,
    },
    /// The underlying simulation failed (protocol violation or deadlock —
    /// either would indicate a bug in the circuit).
    Sim(SimError),
    /// The run did not finish within the cycle budget.
    Timeout {
        /// Budget that was exhausted.
        max_cycles: u64,
    },
}

impl std::fmt::Display for Md5Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Md5Error::TooManyMessages { given, threads } => {
                write!(f, "{given} messages exceed the circuit's {threads} threads")
            }
            Md5Error::WrongMessageCount {
                given,
                participants,
            } => write!(
                f,
                "{given} messages for a circuit built for {participants} participants"
            ),
            Md5Error::Sim(e) => write!(f, "simulation error: {e}"),
            Md5Error::Timeout { max_cycles } => {
                write!(f, "md5 circuit did not finish within {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for Md5Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Md5Error::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for Md5Error {
    fn from(e: SimError) -> Self {
        Md5Error::Sim(e)
    }
}

/// The structural IR of the MD5 loop, before a buffer microarchitecture
/// is chosen — the one description behind simulation, cost and DOT (see
/// [`Md5Circuit::ir`]).
pub struct Md5Ir {
    /// The netlist. MEB nodes carry the placeholder `Reduced` kind until
    /// a [`MebSubstitution`] pass retargets them.
    pub ir: ElasticIr<Md5Token>,
    /// The global round-configuration counter wired into the stage
    /// assertions and the barrier's release action.
    pub round_counter: Arc<AtomicUsize>,
    /// Hardware thread count.
    pub threads: usize,
    /// Participating thread count.
    pub participants: usize,
}

/// The assembled MD5 circuit plus its global round counter.
pub struct Md5Circuit {
    /// The simulated netlist.
    pub circuit: Circuit<Md5Token>,
    /// The global round-configuration counter (counts barrier releases;
    /// the active round is `counter % 4`).
    pub round_counter: Arc<AtomicUsize>,
    threads: usize,
    participants: usize,
    /// branch (finished) → sink: a transfer here is a finished block.
    done: ChannelId,
}

impl Md5Circuit {
    /// Builds the loop for `threads` hardware threads, of which the first
    /// `participants` take part in the computation (and in the barrier),
    /// with the paper's single-cycle fully unrolled round unit.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0` or `participants > threads`.
    pub fn new(threads: usize, participants: usize, kind: MebKind) -> Self {
        Self::with_stages(threads, participants, kind, 1)
    }

    /// Builds the structural IR of the loop — *one* circuit description
    /// that feeds simulation ([`Md5Ir::ir`] → elaborate), the cost model
    /// (`Inventory::from_ir`) and DOT rendering (`ir.to_dot()`).
    ///
    /// Every MEB is emitted with the placeholder `Reduced`
    /// microarchitecture; [`with_stages`](Self::with_stages) retargets
    /// them with a [`MebSubstitution`] pass, and cost studies can do the
    /// same before calling `Inventory::from_ir`.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0`, `participants > threads`, or
    /// `stages` does not divide 16.
    pub fn ir(threads: usize, participants: usize, stages: usize) -> Md5Ir {
        assert!(
            participants > 0 && participants <= threads,
            "invalid participant count"
        );
        assert!(
            stages > 0 && 16 % stages == 0,
            "round stages must divide the 16 steps of a round"
        );
        let steps_per_stage = 16 / stages;
        let meb = |auto| IrNodeKind::Meb {
            kind: MebKind::Reduced,
            arbiter: ArbiterKind::RoundRobin,
            initial: Vec::new(),
            auto,
        };
        // The MEBs carry the 128-bit working-state token (the block itself
        // lives in embedded memory, mirroring the paper's accounting).
        const TOKEN_BITS: usize = 128;

        let mut ir = ElasticIr::<Md5Token>::new();
        let fresh = ir.channel("fresh", threads);
        let loopback = ir.channel("loop", threads);
        let into_buf = ir.channel("in", threads);
        let stage_chs: Vec<IrChannelId> = (0..=stages)
            .map(|i| ir.channel_with_width(format!("st{i}"), threads, TOKEN_BITS))
            .collect();
        let obuf = ir.channel_with_width("obuf", threads, TOKEN_BITS);
        let released = ir.channel("rel", threads);
        let done = ir.channel("done", threads);

        ir.add("feeder", IrNodeKind::Source, vec![], vec![fresh]);
        ir.add(
            "entry",
            IrNodeKind::Merge,
            vec![loopback, fresh],
            vec![into_buf],
        );
        ir.add("meb_in", meb(false), vec![into_buf], vec![stage_chs[0]]);

        let round_counter = Arc::new(AtomicUsize::new(0));
        // One combinational stage per `steps_per_stage` steps, each pair
        // of stages separated by a MEB pipeline register.
        for k in 0..stages {
            let rc = Arc::clone(&round_counter);
            let stage_out = if k == stages - 1 {
                // Last stage drives the output buffer's input directly.
                stage_chs[stages]
            } else {
                ir.channel(format!("stx{k}"), threads)
            };
            let stage = ir.add(
                format!("round_stage{k}"),
                IrNodeKind::Transform {
                    f: Box::new(move |tok: &Md5Token| {
                        let round = rc.load(Ordering::SeqCst) % 4;
                        let expect_steps = round * 16 + k * steps_per_stage;
                        assert_eq!(
                            usize::from(tok.steps_done) % 64,
                            expect_steps,
                            "token {} reached round stage {k} out of phase with the \
                             global configuration — the barrier failed its job",
                            tok.label()
                        );
                        let mut out = tok.clone();
                        out.work = apply_steps(out.work, &out.block, expect_steps, steps_per_stage);
                        out.steps_done += steps_per_stage as u8;
                        out
                    }),
                },
                vec![stage_chs[k]],
                vec![stage_out],
            );
            // The stage's share of the unrolled 16-step round datapath:
            // each step is four 32-bit adders, the 2-level boolean
            // function F/G/H/I and the 3-level message-word select.
            ir.add_cost_hint(
                stage,
                "unrolled step (4 adders + F + word select)",
                steps_per_stage,
                4 * adder(32) + 2 * lut_layer(32) + 3 * lut_layer(32),
            );
            if k == 0 {
                ir.add_cost_hint(stage, "round configuration mux", 1, mux(32, 3));
                ir.add_cost_hint(stage, "round counter + misc control", 1, 20);
            }
            if k < stages - 1 {
                ir.add(
                    format!("meb_stage{k}"),
                    meb(false),
                    vec![stage_out],
                    vec![stage_chs[k + 1]],
                );
            }
        }

        ir.add("meb_out", meb(false), vec![stage_chs[stages]], vec![obuf]);

        let rc = Arc::clone(&round_counter);
        let mask: Vec<bool> = (0..threads).map(|t| t < participants).collect();
        ir.add(
            "barrier",
            IrNodeKind::Barrier {
                participants: Some(mask),
                on_release: Some(Box::new(move |_| {
                    rc.fetch_add(1, Ordering::SeqCst);
                })),
            },
            vec![obuf],
            vec![released],
        );

        ir.add(
            "exit",
            IrNodeKind::Branch {
                cond: Box::new(|tok: &Md5Token| tok.steps_done >= 64),
            },
            vec![released],
            vec![done, loopback],
        );
        ir.add(
            "out",
            IrNodeKind::Sink {
                capture: true,
                policy: ReadyPolicy::Always,
            },
            vec![done],
            vec![],
        );

        Md5Ir {
            ir,
            round_counter,
            threads,
            participants,
        }
    }

    /// Builds the loop with the round unit *pipelined* into `stages`
    /// MEB-separated stages of `16/stages` steps each — the variant the
    /// paper sketches ("they could have been pipelined with minimum
    /// changes due to elasticity"). `stages = 1` is the paper's
    /// single-cycle round.
    ///
    /// Construction is the IR pipeline end to end: [`ir`](Self::ir) →
    /// [`MebSubstitution::all`]`(kind)` → protocol + cycle-cover lints →
    /// elaboration.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0`, `participants > threads`, or
    /// `stages` does not divide 16.
    pub fn with_stages(threads: usize, participants: usize, kind: MebKind, stages: usize) -> Self {
        let Md5Ir {
            mut ir,
            round_counter,
            threads,
            participants,
        } = Self::ir(threads, participants, stages);
        PassManager::new()
            .with(MebSubstitution::all(kind))
            .with(ProtocolLint)
            .with(CycleCoverLint)
            .run(&mut ir)
            .expect("md5 netlist passes lints");
        let done = ir
            .channel_named("done")
            .expect("the loop has a `done` channel");
        let e = ir.elaborate().expect("md5 netlist is well-formed");
        Self {
            done: e.channel(done),
            circuit: e.circuit,
            round_counter,
            threads,
            participants,
        }
    }

    /// Hardware thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Participating thread count.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Rewinds the loop to its freshly built state without elaborating it
    /// again: [`Circuit::reset`] plus the global round counter back to 0.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::reset`].
    pub fn reset(&mut self) -> Result<(), SimError> {
        self.circuit.reset()?;
        self.round_counter.store(0, Ordering::SeqCst);
        Ok(())
    }

    /// Hashes `messages`, one per participating thread, on this freshly
    /// built or [reset](Self::reset) circuit and returns the digests, the
    /// cycles used and the kernel's counters — the loop behind
    /// [`Md5Hasher::hash_messages_instrumented`], open so tests can run it
    /// on a circuit whose components they have wrapped.
    ///
    /// # Errors
    ///
    /// * [`Md5Error::WrongMessageCount`] unless there is exactly one
    ///   message per participant (the circuit is left untouched);
    /// * otherwise the errors of [`Md5Hasher::hash_messages`].
    #[doc(hidden)]
    pub fn hash(
        &mut self,
        messages: &[&[u8]],
    ) -> Result<(Vec<[u8; 16]>, u64, KernelStats), Md5Error> {
        let participants = self.participants;
        if messages.len() != participants {
            return Err(Md5Error::WrongMessageCount {
                given: messages.len(),
                participants,
            });
        }
        let blocks: Vec<Vec<[u32; 16]>> = messages.iter().map(|m| pad_blocks(m)).collect();
        let waves = blocks.iter().map(Vec::len).max().unwrap_or(0);
        let circuit = &mut self.circuit;
        circuit.set_deadlock_watchdog(Some(200 + 20 * self.threads as u64));

        let mut chain: Vec<[u32; 4]> = vec![MD5_IV; participants];
        let mut seen: Vec<usize> = vec![0; participants];
        let mut remaining = participants * waves;

        // Wave 0: one token per participating thread.
        {
            let feeder: &mut Source<Md5Token> = circuit.get_mut("feeder").expect("feeder exists");
            for (t, thread_blocks) in blocks.iter().enumerate() {
                feeder.push(t, make_token(t, 0, thread_blocks, chain[t]));
            }
        }

        let max_cycles = 4_000 + (waves as u64) * (self.threads as u64 + 20) * 8;
        let mut delivered = 0;
        while remaining > 0 {
            if circuit.cycle() >= max_cycles {
                return Err(Md5Error::Timeout { max_cycles });
            }
            // `run(1)` steps one cycle without collecting a transfer list;
            // the sink is looked at only on cycles where `done` fired.
            circuit.run(1)?;
            let fired = circuit.stats().total_transfers(self.done);
            if fired == delivered {
                continue;
            }
            delivered = fired;

            // Collect completions observed this cycle.
            let mut completions: Vec<Md5Token> = Vec::new();
            {
                let sink: &Sink<Md5Token> = circuit.get("out").expect("sink exists");
                for t in 0..participants {
                    let captured = sink.captured(t);
                    for (_, tok) in &captured[seen[t]..] {
                        completions.push(tok.clone());
                    }
                    seen[t] = captured.len();
                }
            }
            for tok in completions {
                remaining -= 1;
                let t = tok.thread;
                if !tok.phantom {
                    debug_assert_eq!(tok.steps_done, 64);
                    chain[t] = [
                        tok.chain[0].wrapping_add(tok.work[0]),
                        tok.chain[1].wrapping_add(tok.work[1]),
                        tok.chain[2].wrapping_add(tok.work[2]),
                        tok.chain[3].wrapping_add(tok.work[3]),
                    ];
                }
                let next_wave = tok.wave + 1;
                if next_wave < waves {
                    let token = make_token(t, next_wave, &blocks[t], chain[t]);
                    let feeder: &mut Source<Md5Token> =
                        circuit.get_mut("feeder").expect("feeder exists");
                    feeder.push(t, token);
                }
            }
        }

        let digests = (0..participants).map(|t| digest_bytes(chain[t])).collect();
        let kernel = *circuit.stats().kernel();
        Ok((digests, circuit.cycle(), kernel))
    }
}

/// Drives an [`Md5Circuit`] to hash one message per thread, cycle by
/// cycle, handling multi-block chaining and length equalization with
/// phantom blocks.
///
/// The hasher keeps the circuit of its last successful call and rewinds
/// it with [`Md5Circuit::reset`] when the next call has as many
/// messages, so only a call with a new message count pays for
/// elaboration. Results are the same as from a fresh circuit.
pub struct Md5Hasher {
    threads: usize,
    kind: MebKind,
    stages: usize,
    eval_mode: EvalMode,
    /// The circuit of the last successful call, taken out for the length
    /// of a call so concurrent calls never wait on each other.
    spare: Mutex<Option<Md5Circuit>>,
}

// The kept circuit sits behind a `Mutex`, so a hasher can still be shared
// across threads.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Md5Hasher>();
};

impl std::fmt::Debug for Md5Hasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Md5Hasher")
            .field("threads", &self.threads)
            .field("kind", &self.kind)
            .field("stages", &self.stages)
            .field("eval_mode", &self.eval_mode)
            .finish_non_exhaustive()
    }
}

impl Md5Hasher {
    /// A hasher with `threads` hardware threads and the given MEB
    /// microarchitecture (single-cycle unrolled round).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize, kind: MebKind) -> Self {
        assert!(threads > 0, "need at least one thread");
        Self {
            threads,
            kind,
            stages: 1,
            eval_mode: EvalMode::default(),
            spare: Mutex::new(None),
        }
    }

    /// Selects the simulation kernel's settle-phase scheduling mode (the
    /// event-driven dirty-set kernel by default; [`EvalMode::Exhaustive`]
    /// for oracle/ablation runs).
    #[must_use]
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        // A kept circuit runs the old mode.
        self.spare = Mutex::new(None);
        self
    }

    /// Pipelines the round unit into `stages` stages (see
    /// [`Md5Circuit::with_stages`]).
    ///
    /// # Panics
    ///
    /// Panics if `stages` does not divide 16.
    #[must_use]
    pub fn with_stages(mut self, stages: usize) -> Self {
        assert!(
            stages > 0 && 16 % stages == 0,
            "round stages must divide 16"
        );
        self.stages = stages;
        // A kept circuit has the old round unit.
        self.spare = Mutex::new(None);
        self
    }

    /// Hashes up to one message per thread through the elastic circuit and
    /// returns `(digests, cycles_used)`.
    ///
    /// # Errors
    ///
    /// * [`Md5Error::TooManyMessages`] if more messages than threads;
    /// * [`Md5Error::Sim`] on any protocol violation or deadlock;
    /// * [`Md5Error::Timeout`] if the run exceeds its internal cycle
    ///   budget (would indicate a bug — the budget is generous).
    pub fn hash_messages(&self, messages: &[&[u8]]) -> Result<(Vec<[u8; 16]>, u64), Md5Error> {
        self.hash_messages_instrumented(messages)
            .map(|(d, c, _)| (d, c))
    }

    /// Like [`hash_messages`](Self::hash_messages) but additionally
    /// returns the simulation kernel's counters for the run — the
    /// instrumentation behind the eval counts pinned in
    /// `tests/ranked_schedule.rs`.
    ///
    /// # Errors
    ///
    /// Same as [`hash_messages`](Self::hash_messages).
    pub fn hash_messages_instrumented(
        &self,
        messages: &[&[u8]],
    ) -> Result<(Vec<[u8; 16]>, u64, KernelStats), Md5Error> {
        if messages.is_empty() {
            return Ok((Vec::new(), 0, KernelStats::default()));
        }
        if messages.len() > self.threads {
            return Err(Md5Error::TooManyMessages {
                given: messages.len(),
                threads: self.threads,
            });
        }
        let participants = messages.len();
        let spare = self
            .spare
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let mut md5 = match spare {
            Some(mut md5) if md5.participants == participants => {
                md5.reset()?;
                md5
            }
            _ => {
                let mut md5 =
                    Md5Circuit::with_stages(self.threads, participants, self.kind, self.stages);
                md5.circuit.set_eval_mode(self.eval_mode);
                md5
            }
        };
        // A failed call returns here and drops its circuit.
        let result = md5.hash(messages)?;
        *self.spare.lock().unwrap_or_else(PoisonError::into_inner) = Some(md5);
        Ok(result)
    }
}

/// Builds the wave-`wave` token for thread `t`: the real block if the
/// thread still has one, otherwise a phantom equalization bubble.
fn make_token(t: usize, wave: usize, thread_blocks: &[[u32; 16]], chain: [u32; 4]) -> Md5Token {
    match thread_blocks.get(wave) {
        Some(block) => Md5Token {
            thread: t,
            wave,
            block: *block,
            chain,
            work: chain,
            steps_done: 0,
            phantom: false,
        },
        None => Md5Token {
            thread: t,
            wave,
            block: [0; 16],
            chain: MD5_IV,
            work: MD5_IV,
            steps_done: 0,
            phantom: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{md5, to_hex};

    fn hash_with(kind: MebKind, threads: usize, messages: &[&[u8]]) -> Vec<String> {
        let hasher = Md5Hasher::new(threads, kind);
        let (digests, _) = hasher.hash_messages(messages).expect("hashing succeeds");
        digests.iter().map(to_hex).collect()
    }

    #[test]
    fn single_thread_single_block_matches_reference() {
        let got = hash_with(MebKind::Reduced, 1, &[b"abc"]);
        assert_eq!(got, vec![to_hex(&md5(b"abc"))]);
    }

    #[test]
    fn eight_threads_reduced_meb_match_reference() {
        let messages: Vec<Vec<u8>> = (0..8)
            .map(|i| format!("thread message #{i}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
        let got = hash_with(MebKind::Reduced, 8, &refs);
        for (g, m) in got.iter().zip(&messages) {
            assert_eq!(g, &to_hex(&md5(m)));
        }
    }

    #[test]
    fn full_and_reduced_meb_produce_identical_digests() {
        let messages: [&[u8]; 4] = [b"alpha", b"beta", b"gamma", b"delta"];
        let full = hash_with(MebKind::Full, 4, &messages);
        let reduced = hash_with(MebKind::Reduced, 4, &messages);
        assert_eq!(full, reduced);
        assert_eq!(full[0], to_hex(&md5(b"alpha")));
    }

    #[test]
    fn multi_block_messages_with_unequal_lengths() {
        // 3 threads: 1-block, 2-block and 3-block messages — phantoms
        // equalize the shorter threads.
        let long: Vec<u8> = (0..130u8).collect(); // 3 blocks after padding
        let medium: Vec<u8> = (0..70u8).collect(); // 2 blocks
        let messages: [&[u8]; 3] = [b"short", &medium, &long];
        let got = hash_with(MebKind::Reduced, 3, &messages);
        for (g, m) in got.iter().zip(messages.iter()) {
            assert_eq!(g, &to_hex(&md5(m)));
        }
    }

    #[test]
    fn fewer_messages_than_threads() {
        let got = hash_with(MebKind::Reduced, 8, &[b"lonely" as &[u8], b"pair"]);
        assert_eq!(got[0], to_hex(&md5(b"lonely")));
        assert_eq!(got[1], to_hex(&md5(b"pair")));
    }

    #[test]
    fn too_many_messages_is_an_error() {
        let hasher = Md5Hasher::new(2, MebKind::Reduced);
        let err = hasher
            .hash_messages(&[b"a" as &[u8], b"b", b"c"])
            .unwrap_err();
        assert!(matches!(
            err,
            Md5Error::TooManyMessages {
                given: 3,
                threads: 2
            }
        ));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let hasher = Md5Hasher::new(4, MebKind::Full);
        let (digests, cycles) = hasher.hash_messages(&[]).expect("trivially succeeds");
        assert!(digests.is_empty());
        assert_eq!(cycles, 0);
    }

    /// The paper's pipelining remark: splitting the round unit into 2, 4
    /// or 16 MEB-separated stages changes nothing architecturally.
    #[test]
    fn pipelined_round_unit_matches_reference() {
        let messages: [&[u8]; 3] = [b"abc", b"pipelined rounds", b"x"];
        let reference: Vec<String> = messages.iter().map(|m| to_hex(&md5(m))).collect();
        for stages in [2usize, 4, 16] {
            let hasher = Md5Hasher::new(4, MebKind::Reduced).with_stages(stages);
            let (digests, _) = hasher.hash_messages(&messages).expect("hashing succeeds");
            let got: Vec<String> = digests.iter().map(to_hex).collect();
            assert_eq!(got, reference, "stages = {stages}");
        }
    }

    /// Deeper round pipelines take more cycles per block (more stage
    /// traversals) but remain deadlock-free; the paper's point is that
    /// the *transformation* is free, not the latency.
    #[test]
    fn pipelined_rounds_cost_more_cycles_per_block() {
        let messages: [&[u8]; 2] = [b"abc", b"def"];
        let (_, c1) = Md5Hasher::new(2, MebKind::Reduced)
            .hash_messages(&messages)
            .expect("ok");
        let (_, c4) = Md5Hasher::new(2, MebKind::Reduced)
            .with_stages(4)
            .hash_messages(&messages)
            .expect("ok");
        assert!(c4 > c1, "4-stage {c4} vs single-cycle {c1}");
    }

    #[test]
    fn round_counter_advances_once_per_barrier_release() {
        // One wave × 4 rounds = 4 releases for a single-block run.
        let hasher = Md5Hasher::new(4, MebKind::Reduced);
        let messages: [&[u8]; 4] = [b"a", b"b", b"c", b"d"];
        let (digests, _) = hasher.hash_messages(&messages).expect("ok");
        assert_eq!(digests.len(), 4);
        // Correct digests imply the counter/barrier interplay was exact —
        // the round unit asserts phase agreement on every token.
        assert_eq!(to_hex(&digests[0]), to_hex(&md5(b"a")));
    }
}
