//! Pipeline stage components: fetch, decode/writeback (register unit),
//! execute, and the data-memory unit.
//!
//! Every pipeline register between stages is a MEB (paper, Sec. V-B:
//! "Every pipeline register has been replaced by a MEB that selects
//! independently at each stage which thread to promote for execution").
//! Each thread has "a private program counter" and "a different copy of
//! the register file"; memories and execution units are variable-latency.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use elastic_core::{Arbiter, RoundRobin, SelectState};
use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, Ports, ProtocolError, SlotView,
    ThreadMask, TickCtx,
};

use crate::isa::{Instr, NUM_REGS};
use crate::token::ProcToken;

/// Per-thread fetch status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadStatus {
    /// Fetching normally.
    Running,
    /// A control-flow instruction is in flight; fetch stalls until the
    /// redirect arrives (the elastic pipeline fills the slot with other
    /// threads — the paper's central point).
    WaitControl,
    /// `halt` predecoded; the thread fetches no more.
    Halted,
}

/// Shared speculation squash state: per-thread, per-epoch boundaries.
///
/// A token fetched in epoch `e` with per-thread fetch sequence `q` is
/// **squashed** iff `q > boundary[e]` — i.e. it was fetched *after* the
/// mispredicted branch that ended epoch `e`. Older same-epoch
/// instructions (smaller `q`) stay architecturally live even while they
/// linger in the variable-latency memory path, and post-redirect fetches
/// live in a new epoch whose boundary is still open.
#[derive(Debug)]
pub struct SpecState {
    /// `boundaries[thread][epoch]` = fetch sequence of the mispredicted
    /// branch that closed the epoch (`u64::MAX` while open).
    boundaries: Vec<Mutex<Vec<u64>>>,
}

impl SpecState {
    /// Fresh state for `threads` threads (epoch 0 open everywhere).
    pub fn new(threads: usize) -> Arc<Self> {
        Arc::new(Self {
            boundaries: (0..threads).map(|_| Mutex::new(vec![u64::MAX])).collect(),
        })
    }

    /// The thread's current (open) epoch.
    pub fn current_epoch(&self, thread: usize) -> u32 {
        (self.boundaries[thread]
            .lock()
            .expect("spec state lock")
            .len()
            - 1) as u32
    }

    /// Whether a token is on a squashed (wrong) path.
    pub fn is_squashed(&self, thread: usize, epoch: u32, seq: u64) -> bool {
        let b = self.boundaries[thread].lock().expect("spec state lock");
        seq > b[epoch as usize]
    }

    /// Reopens epoch 0 for every thread, forgetting all mispredictions
    /// (the freshly built state; part of the units' `reset`).
    pub fn reset(&self) {
        for b in &self.boundaries {
            let mut b = b.lock().expect("spec state lock");
            b.clear();
            b.push(u64::MAX);
        }
    }

    /// Records a misprediction by the branch at `(epoch, seq)`. Returns
    /// `true` if the branch was live (its epoch closes; a new one opens);
    /// `false` if the branch itself was already squashed.
    pub fn mispredict(&self, thread: usize, epoch: u32, seq: u64) -> bool {
        let mut b = self.boundaries[thread].lock().expect("spec state lock");
        if seq > b[epoch as usize] {
            return false;
        }
        debug_assert_eq!(
            epoch as usize,
            b.len() - 1,
            "live branch must be in the open epoch"
        );
        let last = b.len() - 1;
        b[last] = seq;
        b.push(u64::MAX);
        true
    }
}

/// The fetch stage: private per-thread PCs over a shared instruction
/// memory, stall-on-control-flow (or predict-not-taken speculation with
/// epoch-based squash), redirect absorption.
pub struct Fetcher {
    name: String,
    out: ChannelId,
    redirect: ChannelId,
    threads: usize,
    /// PCs every thread starts from (restored by `reset`).
    entry_pcs: Vec<u32>,
    pcs: Vec<u32>,
    status: Vec<ThreadStatus>,
    imem: Arc<Vec<u32>>,
    arbiter: RoundRobin,
    select: SelectState,
    /// Runnable threads (the fetch request mask), built once per cycle.
    has: ThreadMask,
    /// Redirect ready word: all ones (redirects are always absorbed).
    redirect_ready: ThreadMask,
    /// Each thread's open speculation epoch — a copy of
    /// [`SpecState::current_epoch`], which only this unit's clock edge
    /// advances, kept so evaluation takes no lock.
    epochs: Vec<u32>,
    fetched: Vec<u64>,
    /// Shared squash state (the hardware's squash broadcast); present
    /// when the fetcher speculates: predict-not-taken for conditional
    /// branches, direct jumps taken at predecode, `jr` still stalls.
    spec: Option<Arc<SpecState>>,
    /// Wrong-path instructions squashed per thread (statistics).
    squashed: Vec<u64>,
}

impl Fetcher {
    /// A fetcher for `threads` threads with the given entry PCs.
    ///
    /// # Panics
    ///
    /// Panics if `entry_pcs.len() != threads`.
    pub fn new(
        name: impl Into<String>,
        out: ChannelId,
        redirect: ChannelId,
        threads: usize,
        imem: Arc<Vec<u32>>,
        entry_pcs: Vec<u32>,
    ) -> Self {
        assert_eq!(entry_pcs.len(), threads, "one entry PC per thread");
        let mut redirect_ready = ThreadMask::new(threads);
        redirect_ready.fill();
        Self {
            name: name.into(),
            out,
            redirect,
            threads,
            pcs: entry_pcs.clone(),
            entry_pcs,
            status: vec![ThreadStatus::Running; threads],
            imem,
            arbiter: RoundRobin::new(),
            select: SelectState::new(),
            has: ThreadMask::new(threads),
            redirect_ready,
            epochs: vec![0; threads],
            fetched: vec![0; threads],
            spec: None,
            squashed: vec![0; threads],
        }
    }

    /// Enables predict-not-taken speculation with the shared squash state
    /// used by the downstream units to neuter wrong-path instructions.
    #[must_use]
    pub fn with_speculation(mut self, spec: Arc<SpecState>) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Wrong-path instructions squashed for `thread`.
    pub fn squashed(&self, thread: usize) -> u64 {
        self.squashed[thread]
    }

    fn epoch(&self, t: usize) -> u32 {
        self.spec.as_ref().map_or(0, |s| s.current_epoch(t))
    }

    /// Status of `thread`.
    pub fn status(&self, thread: usize) -> ThreadStatus {
        self.status[thread]
    }

    /// True when every thread has halted.
    pub fn all_halted(&self) -> bool {
        self.status.iter().all(|&s| s == ThreadStatus::Halted)
    }

    /// Instructions fetched by `thread`.
    pub fn fetched(&self, thread: usize) -> u64 {
        self.fetched[thread]
    }

    /// Current PC of `thread`.
    pub fn pc(&self, thread: usize) -> u32 {
        self.pcs[thread]
    }

    fn runnable(&self, t: usize) -> bool {
        self.status[t] == ThreadStatus::Running && (self.pcs[t] as usize) < self.imem.len()
    }

    /// Offers thread `picked`'s next instruction word, or drives idle.
    fn drive(&self, ctx: &mut EvalCtx<'_, ProcToken>, picked: Option<(usize, u32)>) {
        match picked {
            Some((t, epoch)) => {
                let pc = self.pcs[t];
                let token = ProcToken::Fetched {
                    thread: t,
                    pc,
                    word: self.imem[pc as usize],
                    epoch,
                    seq: self.fetched[t],
                };
                ctx.drive_token(self.out, t, token);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: drives the redirect `ready` bit by bit, rebuilds
    /// the runnable mask, takes the generic selection path and reads the
    /// epoch from the shared squash state on every call. Kept so tests
    /// can run a circuit with it; not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        // Redirects are always absorbed.
        for t in 0..self.threads {
            ctx.set_ready(self.redirect, t, true);
        }
        for t in 0..self.threads {
            let runnable = self.runnable(t);
            self.has.set(t, runnable);
        }
        let picked = self
            .select
            .select(ctx, self.out, &self.arbiter, &self.has)
            .map(|t| (t, self.epoch(t)));
        self.drive(ctx, picked);
    }
}

impl Component<ProcToken> for Fetcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.redirect], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Redirect ready is constant; fetch selection depends only on
        // registered PC/status state plus downstream ready (the arbiter's
        // ready-first pick), damped by the anti-swap guard. Crucially, no
        // combinational path runs from the redirect input to the fetch
        // output — that is what makes the processor's control-flow
        // feedback loop legal.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    /// Word-level evaluation: the redirect `ready` word (constant ones)
    /// and the runnable mask depend only on registered state, so both are
    /// built and committed once per step. The round-robin pick is
    /// [`SelectState::select_with_hint`]: one word scan over
    /// `runnable ∩ ready(out)` on a non-feedback output, as in
    /// `ReducedMeb`.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        if ctx.first_eval() {
            for t in 0..self.threads {
                let runnable = self.runnable(t);
                self.has.set(t, runnable);
            }
            ctx.set_ready_mask(self.redirect, &self.redirect_ready);
        }
        let hint = self.arbiter.rotation_hint();
        let picked = self
            .select
            .select_with_hint(ctx, self.out, &self.arbiter, &self.has, hint);
        self.drive(ctx, picked.map(|t| (t, self.epochs[t])));
    }

    fn tick(&mut self, ctx: &TickCtx<'_, ProcToken>) {
        // A fetch left for the pipeline: advance or block the thread.
        if let Some(t) = self.select.on_tick(ctx, self.out) {
            let Some(&ProcToken::Fetched { pc, word, .. }) = ctx.data(self.out) else {
                unreachable!("fetch output carries Fetched tokens");
            };
            self.fetched[t] += 1;
            let speculate = self.spec.is_some();
            match Instr::decode(word) {
                // An undecodable word stops the thread and faults.
                Err(_) => {
                    self.status[t] = ThreadStatus::Halted;
                    ctx.fault(ProtocolError::InvalidInstruction { pc, word });
                }
                Ok(Instr::Halt) => self.status[t] = ThreadStatus::Halted,
                // Direct jumps: under speculation the target is known at
                // predecode — take it immediately, no stall.
                Ok(Instr::J { target } | Instr::Jal { target }) if speculate => {
                    self.pcs[t] = target;
                }
                // Conditional branches: predict not-taken, keep fetching.
                Ok(Instr::Beq { .. } | Instr::Bne { .. }) if speculate => self.pcs[t] += 1,
                Ok(i) if i.is_control_flow() => self.status[t] = ThreadStatus::WaitControl,
                Ok(_) => self.pcs[t] += 1,
            }
            self.arbiter.commit(t);
        }
        // A control-flow instruction resolved.
        if let Some((t, tok)) = ctx.fired_any(self.redirect) {
            let ProcToken::Executed {
                instr,
                pc,
                taken,
                target,
                epoch,
                seq,
                ..
            } = tok
            else {
                unreachable!("redirect carries Executed tokens");
            };
            if let Some(spec) = &self.spec {
                match instr {
                    Instr::Halt | Instr::J { .. } | Instr::Jal { .. } => {
                        // Halt handled at predecode; direct jumps already
                        // taken at predecode.
                    }
                    Instr::Beq { .. } | Instr::Bne { .. } => {
                        if *taken && spec.mispredict(t, *epoch, *seq) {
                            // Misprediction: redirect and squash the wrong
                            // path fetched since this branch. Any
                            // wrong-path `halt`/`jr` froze the thread's
                            // status — that freeze was bogus, so resume.
                            self.squashed[t] += self.fetched[t] - (seq + 1);
                            self.pcs[t] = *target;
                            self.status[t] = ThreadStatus::Running;
                            self.epochs[t] += 1;
                        }
                        // Correct prediction or stale (already squashed):
                        // nothing to do.
                    }
                    _ => {
                        // jr still uses stall-and-wait even when
                        // speculating (its target is data-dependent).
                        if !spec.is_squashed(t, *epoch, *seq) {
                            debug_assert_eq!(self.status[t], ThreadStatus::WaitControl);
                            self.pcs[t] = if *taken { *target } else { pc + 1 };
                            self.status[t] = ThreadStatus::Running;
                        }
                    }
                }
            } else {
                match instr {
                    Instr::Halt => {}
                    _ => {
                        debug_assert_eq!(self.status[t], ThreadStatus::WaitControl);
                        self.pcs[t] = if *taken { *target } else { pc + 1 };
                        self.status[t] = ThreadStatus::Running;
                    }
                }
            }
        }
    }

    fn reset(&mut self) -> bool {
        self.pcs.copy_from_slice(&self.entry_pcs);
        self.status.fill(ThreadStatus::Running);
        self.arbiter.reset();
        self.select.reset();
        self.epochs.fill(0);
        self.fetched.fill(0);
        self.squashed.fill(0);
        if let Some(spec) = &self.spec {
            spec.reset();
        }
        true
    }

    fn slots(&self) -> Vec<SlotView> {
        (0..self.threads)
            .map(|t| {
                let label = match self.status[t] {
                    ThreadStatus::Running => format!("pc={}", self.pcs[t]),
                    ThreadStatus::WaitControl => "wait".to_string(),
                    ThreadStatus::Halted => "halt".to_string(),
                };
                SlotView::full(format!("thread[{t}]"), t, label)
            })
            .collect()
    }

    impl_as_any!();
}

/// The decode + writeback stage: per-thread register files, per-thread
/// scoreboards, hazard-gated issue.
pub struct RegUnit {
    name: String,
    id_in: ChannelId,
    wb_in: ChannelId,
    id_out: ChannelId,
    threads: usize,
    regs: Vec<[u32; NUM_REGS]>,
    /// In-flight writers per (thread, register).
    pending: Vec<[u8; NUM_REGS]>,
    /// Per-thread busy-register mask: bit `r` is set while register `r`
    /// has an in-flight writer (`pending > 0`; r0 never is).
    busy: Vec<u32>,
    retired: Vec<u64>,
    /// Squash state (absent when not speculating): wrong-path writebacks
    /// release their scoreboard entry but leave the register file alone.
    spec: Option<Arc<SpecState>>,
    /// Threads with no in-flight register write, built once per cycle.
    idle: ThreadMask,
    /// Writeback ready word: all ones (writeback never stalls).
    wb_ready: ThreadMask,
    /// Scratch issue `ready` word.
    issue_ready: ThreadMask,
}

impl RegUnit {
    /// A register unit for `threads` threads, all registers zeroed.
    pub fn new(
        name: impl Into<String>,
        id_in: ChannelId,
        wb_in: ChannelId,
        id_out: ChannelId,
        threads: usize,
    ) -> Self {
        let mut wb_ready = ThreadMask::new(threads);
        wb_ready.fill();
        Self {
            name: name.into(),
            id_in,
            wb_in,
            id_out,
            threads,
            regs: vec![[0; NUM_REGS]; threads],
            pending: vec![[0; NUM_REGS]; threads],
            busy: vec![0; threads],
            retired: vec![0; threads],
            spec: None,
            idle: ThreadMask::new(threads),
            wb_ready,
            issue_ready: ThreadMask::new(threads),
        }
    }

    /// Shares the speculation squash state (see
    /// [`Fetcher::with_speculation`]).
    #[must_use]
    pub fn with_speculation(mut self, spec: Arc<SpecState>) -> Self {
        self.spec = Some(spec);
        self
    }

    fn is_stale(&self, t: usize, epoch: u32, seq: u64) -> bool {
        self.spec
            .as_ref()
            .is_some_and(|s| s.is_squashed(t, epoch, seq))
    }

    /// Architectural register value (r0 is always 0).
    pub fn reg(&self, thread: usize, r: usize) -> u32 {
        self.regs[thread][r]
    }

    /// Instructions written back for `thread` (loads, ALU ops, stores and
    /// nops all pass through writeback; control flow retires at the
    /// fetcher instead).
    pub fn retired(&self, thread: usize) -> u64 {
        self.retired[thread]
    }

    fn hazard(&self, t: usize, instr: &Instr) -> bool {
        self.busy[t] & instr.reg_mask() != 0
    }

    /// [`hazard`](Self::hazard) as a per-register scoreboard scan.
    fn hazard_reference(&self, t: usize, instr: &Instr) -> bool {
        let busy = |r: u8| r != 0 && self.pending[t][r as usize] > 0;
        instr.sources().any(busy) || instr.dest().is_some_and(busy)
    }

    /// The decoded token for `instr`, with its operands read from thread
    /// `t`'s register file.
    fn read_operands(&self, t: usize, pc: u32, instr: Instr, epoch: u32, seq: u64) -> ProcToken {
        let src = |r: u8| self.regs[t][r as usize];
        let (a, b) = match instr {
            Instr::Add { rs, rt, .. }
            | Instr::Sub { rs, rt, .. }
            | Instr::And { rs, rt, .. }
            | Instr::Or { rs, rt, .. }
            | Instr::Xor { rs, rt, .. }
            | Instr::Nor { rs, rt, .. }
            | Instr::Slt { rs, rt, .. }
            | Instr::Sltu { rs, rt, .. }
            | Instr::Mul { rs, rt, .. }
            | Instr::Beq { rs, rt, .. }
            | Instr::Bne { rs, rt, .. }
            | Instr::Sw { rs, rt, .. } => (src(rs), src(rt)),
            Instr::Sll { rt, .. } | Instr::Srl { rt, .. } | Instr::Sra { rt, .. } => (0, src(rt)),
            Instr::Jr { rs }
            | Instr::Addi { rs, .. }
            | Instr::Andi { rs, .. }
            | Instr::Ori { rs, .. }
            | Instr::Xori { rs, .. }
            | Instr::Slti { rs, .. }
            | Instr::Lw { rs, .. } => (src(rs), 0),
            Instr::Lui { .. }
            | Instr::Tid { .. }
            | Instr::J { .. }
            | Instr::Jal { .. }
            | Instr::Nop
            | Instr::Halt => (0, 0),
        };
        ProcToken::Decoded {
            thread: t,
            pc,
            instr,
            a,
            b,
            epoch,
            seq,
        }
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: drives every `ready` bit one at a time, scans the
    /// scoreboard of every thread and decodes and hazard-checks the
    /// offered word once per thread and again for the issue. Kept so
    /// tests can run a circuit with it; not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        // Writeback never stalls.
        for t in 0..self.threads {
            ctx.set_ready(self.wb_in, t, true);
        }
        // Issue: pass the offered instruction through decode if it is
        // hazard-free and the next stage accepts. Only the offered thread's
        // instruction word is visible on the channel, so its gate is the
        // exact hazard check; for every other thread we answer
        // *conservatively* from the scoreboard (ready only when the thread
        // has no in-flight register writes at all — a state in which no
        // instruction can be hazarded). Conservative answers can only be
        // upgraded when a thread is actually offered, so the upstream
        // MEB's selection never chases a false ready and the settle loop
        // converges. An undecodable word is taken and dropped (`tick`
        // reports it).
        let offered = ctx.incoming(self.id_in).map(|(t, tok)| (t, tok.clone()));
        for t in 0..self.threads {
            let gate = match &offered {
                Some((ot, ProcToken::Fetched { word, .. })) if *ot == t => {
                    Instr::decode(*word).map_or(true, |i| !self.hazard_reference(t, &i))
                }
                _ => self.pending[t].iter().all(|&p| p == 0),
            };
            ctx.set_ready(self.id_in, t, gate && ctx.ready(self.id_out, t));
        }
        // Drive the decoded token downstream.
        match &offered {
            Some((
                t,
                ProcToken::Fetched {
                    pc,
                    word,
                    epoch,
                    seq,
                    ..
                },
            )) => match Instr::decode(*word) {
                Ok(instr) if !self.hazard_reference(*t, &instr) => {
                    let decoded = self.read_operands(*t, *pc, instr, *epoch, *seq);
                    ctx.drive_token(self.id_out, *t, decoded);
                }
                _ => ctx.drive_idle(self.id_out),
            },
            _ => ctx.drive_idle(self.id_out),
        }
    }
}

impl Component<ProcToken> for RegUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.id_in, self.wb_in], [self.id_out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Writeback ready is constant (no paths from wb_in). Issue is a
        // gated pass-through: the hazard gate inspects the *offered*
        // instruction (valid/data of id_in) and the next stage's ready.
        vec![
            CombPath::ValidToValid {
                from: self.id_in,
                to: self.id_out,
            },
            CombPath::ValidToReady {
                from: self.id_in,
                to: self.id_in,
            },
            CombPath::ReadyToReady {
                from: self.id_out,
                to: self.id_in,
            },
        ]
    }

    /// Word-level evaluation. The writeback `ready` word (constant ones)
    /// and the per-thread "no in-flight write" mask depend only on
    /// registered state and are built once per step. The offered word is
    /// decoded and hazard-checked once — one AND of its register mask
    /// against the thread's busy mask — and the issue `ready` word is that
    /// conservative mask with the offered thread's exact gate, ANDed with
    /// `ready(id_out)` and committed in one masked write. An undecodable
    /// word is taken and dropped; [`tick`](Component::tick) reports it.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        if ctx.first_eval() {
            for t in 0..self.threads {
                self.idle.set(t, self.busy[t] == 0);
            }
            ctx.set_ready_mask(self.wb_in, &self.wb_ready);
        }
        let offered = match ctx.incoming(self.id_in) {
            Some((
                t,
                &ProcToken::Fetched {
                    pc,
                    word,
                    epoch,
                    seq,
                    ..
                },
            )) => Some((t, pc, word, epoch, seq)),
            _ => None,
        };
        self.issue_ready.copy_from(&self.idle);
        let mut issue = None;
        if let Some((t, pc, word, epoch, seq)) = offered {
            match Instr::decode(word) {
                Ok(instr) => {
                    let clear = !self.hazard(t, &instr);
                    self.issue_ready.set(t, clear);
                    if clear {
                        issue = Some((t, self.read_operands(t, pc, instr, epoch, seq)));
                    }
                }
                Err(_) => {
                    self.issue_ready.set(t, true);
                }
            }
        }
        self.issue_ready.and_with(ctx.ready_mask(self.id_out));
        ctx.set_ready_mask(self.id_in, &self.issue_ready);
        match issue {
            Some((t, decoded)) => ctx.drive_token(self.id_out, t, decoded),
            None => ctx.drive_idle(self.id_out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, ProcToken>) {
        // Retire writebacks first (a dependent issue still waits one cycle;
        // there is no same-cycle bypass, cf. module docs).
        if let Some((t, tok)) = ctx.fired_any(self.wb_in) {
            let ProcToken::Executed {
                instr,
                result,
                epoch,
                seq,
                ..
            } = tok
            else {
                unreachable!("writeback carries Executed tokens");
            };
            let stale = self.is_stale(t, *epoch, *seq);
            if let Some(rd) = instr.dest() {
                if rd != 0 {
                    if !stale {
                        self.regs[t][rd as usize] = *result;
                    }
                    // The scoreboard entry is released either way — the
                    // wrong-path instruction did occupy the writer slot.
                    let p = &mut self.pending[t][rd as usize];
                    debug_assert!(*p > 0, "writeback without a pending issue");
                    *p -= 1;
                    if *p == 0 {
                        self.busy[t] &= !(1 << rd);
                    }
                }
            }
            if !stale {
                self.retired[t] += 1;
            }
        }
        // Record the issue. A decodable word taken from `id_in` is always
        // issued in the same cycle, so a word taken without an issue is
        // one `eval` dropped as undecodable.
        if let Some((t, tok)) = ctx.fired_any(self.id_out) {
            let ProcToken::Decoded { instr, .. } = tok else {
                unreachable!("issue output carries Decoded tokens");
            };
            if let Some(rd) = instr.dest() {
                if rd != 0 {
                    self.pending[t][rd as usize] += 1;
                    self.busy[t] |= 1 << rd;
                }
            }
        } else if let Some((_, &ProcToken::Fetched { pc, word, .. })) = ctx.fired_any(self.id_in) {
            ctx.fault(ProtocolError::InvalidInstruction { pc, word });
        }
    }

    fn reset(&mut self) -> bool {
        self.regs.fill([0; NUM_REGS]);
        self.pending.fill([0; NUM_REGS]);
        self.busy.fill(0);
        self.retired.fill(0);
        if let Some(spec) = &self.spec {
            spec.reset();
        }
        true
    }

    impl_as_any!();
}

/// Computes an [`Instr`] on its operands — the pure function the execute
/// stage applies (wired into a
/// [`VarLatency`](elastic_sim::VarLatency) with a per-token latency).
///
/// # Panics
///
/// Panics if `tok` is not a [`ProcToken::Decoded`].
pub fn execute(tok: &ProcToken) -> ProcToken {
    let ProcToken::Decoded {
        thread,
        pc,
        instr,
        a,
        b,
        epoch,
        seq,
    } = tok.clone()
    else {
        panic!("execute stage received a non-decoded token");
    };
    let (mut result, mut addr, mut taken, mut target) = (0u32, 0u32, false, 0u32);
    match instr {
        Instr::Add { .. } => result = a.wrapping_add(b),
        Instr::Sub { .. } => result = a.wrapping_sub(b),
        Instr::And { .. } => result = a & b,
        Instr::Or { .. } => result = a | b,
        Instr::Xor { .. } => result = a ^ b,
        Instr::Nor { .. } => result = !(a | b),
        Instr::Slt { .. } => result = u32::from((a as i32) < (b as i32)),
        Instr::Sltu { .. } => result = u32::from(a < b),
        Instr::Mul { .. } => result = a.wrapping_mul(b),
        Instr::Sll { shamt, .. } => result = b << shamt,
        Instr::Srl { shamt, .. } => result = b >> shamt,
        Instr::Sra { shamt, .. } => result = ((b as i32) >> shamt) as u32,
        Instr::Tid { .. } => result = thread as u32,
        Instr::Addi { imm, .. } => result = a.wrapping_add(imm as i32 as u32),
        Instr::Andi { imm, .. } => result = a & u32::from(imm),
        Instr::Ori { imm, .. } => result = a | u32::from(imm),
        Instr::Xori { imm, .. } => result = a ^ u32::from(imm),
        Instr::Slti { imm, .. } => result = u32::from((a as i32) < i32::from(imm)),
        Instr::Lui { imm, .. } => result = u32::from(imm) << 16,
        Instr::Lw { imm, .. } => addr = a.wrapping_add(imm as i32 as u32),
        Instr::Sw { imm, .. } => {
            addr = a.wrapping_add(imm as i32 as u32);
            result = b; // store value travels in `result`
        }
        Instr::Beq { imm, .. } => {
            taken = a == b;
            target = pc.wrapping_add(1).wrapping_add(imm as i32 as u32);
        }
        Instr::Bne { imm, .. } => {
            taken = a != b;
            target = pc.wrapping_add(1).wrapping_add(imm as i32 as u32);
        }
        Instr::J { target: t } => {
            taken = true;
            target = t;
        }
        Instr::Jal { target: t } => {
            taken = true;
            target = t;
            result = pc + 1; // link value
        }
        Instr::Jr { .. } => {
            taken = true;
            target = a;
        }
        Instr::Nop | Instr::Halt => {}
    }
    ProcToken::Executed {
        thread,
        pc,
        instr,
        result,
        addr,
        taken,
        target,
        epoch,
        seq,
    }
}

/// The variable-latency data-memory unit. Loads and stores take effect at
/// the *accept* edge (so per-thread program order through memory is
/// architectural); the reply is delayed by a random latency.
pub struct MemUnit {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    threads: usize,
    capacity: usize,
    lat_min: u32,
    lat_max: u32,
    /// Seed of the latency stream (restored by `reset`).
    seed: u64,
    mem: Vec<u32>,
    entries: Vec<(usize, ProcToken, u64)>,
    rng: StdRng,
    arbiter: RoundRobin,
    select: SelectState,
    /// Threads with a completed head entry.
    has: ThreadMask,
    /// Entry index of each thread's completed head (meaningful where
    /// `has` is set).
    head_idx: Vec<usize>,
    /// Scratch "oldest entry already seen" mask of the head scan.
    seen: ThreadMask,
    /// Upstream ready word: all ones while a slot is free, else zero.
    ready: ThreadMask,
    /// Squash state (absent when not speculating): wrong-path loads and
    /// stores must not touch memory.
    spec: Option<Arc<SpecState>>,
}

impl MemUnit {
    /// A memory of `words` words, latency uniform in `lat_min..=lat_max`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `lat_min > lat_max` or `lat_min == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        capacity: usize,
        words: usize,
        (lat_min, lat_max): (u32, u32),
        seed: u64,
    ) -> Self {
        assert!(capacity > 0, "memory unit needs at least one slot");
        assert!(lat_min > 0 && lat_min <= lat_max, "invalid latency range");
        Self {
            name: name.into(),
            inp,
            out,
            threads,
            capacity,
            lat_min,
            lat_max,
            seed,
            mem: vec![0; words],
            entries: Vec::with_capacity(capacity),
            rng: StdRng::seed_from_u64(seed ^ 0xD3E),
            arbiter: RoundRobin::new(),
            select: SelectState::new(),
            has: ThreadMask::new(threads),
            head_idx: vec![0; threads],
            seen: ThreadMask::new(threads),
            ready: ThreadMask::new(threads),
            spec: None,
        }
    }

    /// Shares the speculation squash state (see
    /// [`Fetcher::with_speculation`]).
    #[must_use]
    pub fn with_speculation(mut self, spec: Arc<SpecState>) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Reads a word (test inspection).
    pub fn read(&self, addr: usize) -> u32 {
        self.mem[addr]
    }

    /// Writes a word before the program starts (test setup).
    pub fn write(&mut self, addr: usize, value: u32) {
        self.mem[addr] = value;
    }

    /// Words of storage.
    pub fn size(&self) -> usize {
        self.mem.len()
    }

    /// Rebuilds `has` and `head_idx` with the oldest entry per thread,
    /// where it has completed by `cycle`.
    fn rebuild_heads(&mut self, cycle: u64) {
        self.seen.clear();
        self.has.clear();
        for (i, (t, _, done)) in self.entries.iter().enumerate() {
            if !self.seen.get(*t) {
                self.seen.set(*t, true);
                if *done <= cycle {
                    self.has.set(*t, true);
                    self.head_idx[*t] = i;
                }
            }
        }
    }

    fn head_token(&self, t: usize) -> &ProcToken {
        &self
            .entries
            .iter()
            .find(|(et, _, _)| *et == t)
            .expect("selected thread has an entry")
            .1
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: drives every `ready` bit one at a time, rebuilds
    /// the completed heads and searches the entries for the offered head
    /// on every call, and takes the generic selection path. Kept so tests
    /// can run a circuit with it; not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        let free = self.entries.len() < self.capacity;
        for t in 0..self.threads {
            ctx.set_ready(self.inp, t, free);
        }
        self.rebuild_heads(ctx.cycle());
        match self.select.select(ctx, self.out, &self.arbiter, &self.has) {
            Some(t) => {
                let tok = self.head_token(t).clone();
                ctx.drive_token(self.out, t, tok);
            }
            None => ctx.drive_idle(self.out),
        }
    }
}

impl Component<ProcToken> for MemUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Like VarLatency: ready is registered occupancy, the output
        // arbiter reads downstream ready (damped), and no combinational
        // path crosses from input to output.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    /// Word-level evaluation: the free-slot `ready` word and the
    /// completed-head mask (with each head's entry index) depend only on
    /// the entries, so they are built and committed once per step. The
    /// round-robin pick is [`SelectState::select_with_hint`]: one word
    /// scan over `heads ∩ ready(out)` on a non-feedback output.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        if ctx.first_eval() {
            if self.entries.len() < self.capacity {
                self.ready.fill();
            } else {
                self.ready.clear();
            }
            self.rebuild_heads(ctx.cycle());
            ctx.set_ready_mask(self.inp, &self.ready);
        }
        let hint = self.arbiter.rotation_hint();
        let picked = self
            .select
            .select_with_hint(ctx, self.out, &self.arbiter, &self.has, hint);
        match picked {
            Some(t) => {
                let tok = self.entries[self.head_idx[t]].1.clone();
                ctx.drive_token(self.out, t, tok);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, ProcToken>) {
        if let Some(t) = self.select.on_tick(ctx, self.out) {
            let pos = self
                .entries
                .iter()
                .position(|(et, _, _)| *et == t)
                .expect("emitted thread has an entry");
            self.entries.remove(pos);
            self.arbiter.commit(t);
        }
        if let Some((t, tok)) = ctx.fired_any(self.inp) {
            let mut tok = tok.clone();
            let stale = self
                .spec
                .as_ref()
                .is_some_and(|s| s.is_squashed(t, tok.epoch(), tok.seq()));
            let latency = if let ProcToken::Executed {
                instr,
                addr,
                result,
                ..
            } = &mut tok
            {
                let in_range = (*addr as usize) < self.mem.len();
                match instr {
                    _ if stale => 1, // squashed: no side effects, no service time
                    Instr::Lw { .. } | Instr::Sw { .. } if !in_range => {
                        // Faulting access: no side effects, no service time.
                        ctx.fault(ProtocolError::AddressOutOfRange {
                            addr: *addr,
                            words: self.mem.len(),
                        });
                        1
                    }
                    Instr::Lw { .. } => {
                        *result = self.mem[*addr as usize];
                        self.rng.gen_range(self.lat_min..=self.lat_max)
                    }
                    Instr::Sw { .. } => {
                        self.mem[*addr as usize] = *result;
                        self.rng.gen_range(self.lat_min..=self.lat_max)
                    }
                    // Non-memory instructions pass through in one cycle.
                    _ => 1,
                }
            } else {
                unreachable!("memory stage receives Executed tokens");
            };
            self.entries
                .push((t, tok, ctx.cycle() + u64::from(latency)));
        }
    }

    fn reset(&mut self) -> bool {
        self.mem.fill(0);
        self.entries.clear();
        self.rng = StdRng::seed_from_u64(self.seed ^ 0xD3E);
        self.arbiter.reset();
        self.select.reset();
        if let Some(spec) = &self.spec {
            spec.reset();
        }
        true
    }

    fn slots(&self) -> Vec<SlotView> {
        (0..self.capacity)
            .map(|i| match self.entries.get(i) {
                Some((t, tok, _)) => {
                    SlotView::full(format!("slot[{i}]"), *t, elastic_sim::Token::label(tok))
                }
                None => SlotView::empty(format!("slot[{i}]")),
            })
            .collect()
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_computes_alu_results() {
        let dec = |instr, a, b| ProcToken::Decoded {
            thread: 0,
            pc: 10,
            instr,
            a,
            b,
            epoch: 0,
            seq: 0,
        };
        let get = |tok: ProcToken| match tok {
            ProcToken::Executed { result, .. } => result,
            _ => panic!("expected executed"),
        };
        assert_eq!(
            get(execute(&dec(
                Instr::Add {
                    rd: 1,
                    rs: 2,
                    rt: 3
                },
                7,
                5
            ))),
            12
        );
        assert_eq!(
            get(execute(&dec(
                Instr::Sub {
                    rd: 1,
                    rs: 2,
                    rt: 3
                },
                3,
                5
            ))),
            3u32.wrapping_sub(5)
        );
        assert_eq!(
            get(execute(&dec(
                Instr::Slt {
                    rd: 1,
                    rs: 2,
                    rt: 3
                },
                (-1i32) as u32,
                0
            ))),
            1
        );
        assert_eq!(
            get(execute(&dec(
                Instr::Sltu {
                    rd: 1,
                    rs: 2,
                    rt: 3
                },
                (-1i32) as u32,
                0
            ))),
            0
        );
        assert_eq!(
            get(execute(&dec(
                Instr::Sra {
                    rd: 1,
                    rt: 2,
                    shamt: 4
                },
                0,
                (-64i32) as u32
            ))),
            (-4i32) as u32
        );
        assert_eq!(get(execute(&dec(Instr::Tid { rd: 1 }, 0, 0))), 0);
    }

    #[test]
    fn execute_resolves_branches() {
        let dec = |instr, a, b| ProcToken::Decoded {
            thread: 0,
            pc: 10,
            instr,
            a,
            b,
            epoch: 0,
            seq: 0,
        };
        match execute(&dec(
            Instr::Beq {
                rs: 1,
                rt: 2,
                imm: -3,
            },
            9,
            9,
        )) {
            ProcToken::Executed { taken, target, .. } => {
                assert!(taken);
                assert_eq!(target, 8); // 10 + 1 - 3
            }
            _ => panic!("expected executed"),
        }
        match execute(&dec(Instr::Jal { target: 99 }, 0, 0)) {
            ProcToken::Executed {
                taken,
                target,
                result,
                ..
            } => {
                assert!(taken);
                assert_eq!(target, 99);
                assert_eq!(result, 11); // link = pc + 1
            }
            _ => panic!("expected executed"),
        }
    }

    #[test]
    fn execute_forms_memory_addresses() {
        let dec = |instr, a, b| ProcToken::Decoded {
            thread: 1,
            pc: 0,
            instr,
            a,
            b,
            epoch: 0,
            seq: 0,
        };
        match execute(&dec(
            Instr::Sw {
                rt: 2,
                rs: 1,
                imm: 4,
            },
            100,
            77,
        )) {
            ProcToken::Executed { addr, result, .. } => {
                assert_eq!(addr, 104);
                assert_eq!(result, 77);
            }
            _ => panic!("expected executed"),
        }
    }
}
