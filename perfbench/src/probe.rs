//! Measurement plumbing that lives entirely in the benchmark: a counting
//! global allocator and the transparent [`Timed`] protocol wrapper.
//!
//! Both record into thread-local counters. A sweep trial runs start to
//! finish on one worker thread, so a trial reads its own numbers by
//! resetting the counters when it starts and taking them when it ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::time::Instant;

use gqs_consensus::ConsensusNode;
use gqs_core::ProcessId;
use gqs_registers::{AbdRegister, SampledAbd};
use gqs_simnet::{Context, Flood, Gossip, OpId, Protocol, SimTime, TimerId};

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations, allocated bytes and the
/// live-byte high-water mark of the calling thread.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    // `try_with` keeps allocations during thread teardown safe; the
    // counters are plain `Cell`s without destructors.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + size as u64));
    note_live(size as i64);
}

fn note_live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + new_size as u64));
        note_live(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// This thread's allocation count and allocated bytes so far.
#[derive(Copy, Clone, Debug, Default)]
pub struct AllocMark {
    pub count: u64,
    pub bytes: u64,
}

impl AllocMark {
    pub fn now() -> Self {
        AllocMark { count: ALLOCS.with(Cell::get), bytes: ALLOC_BYTES.with(Cell::get) }
    }

    /// Allocations made on this thread since `self` was taken.
    pub fn since(self) -> AllocMark {
        let now = AllocMark::now();
        AllocMark { count: now.count - self.count, bytes: now.bytes - self.bytes }
    }
}

/// Restarts this thread's live-byte high-water mark at the current live
/// bytes and returns them.
pub fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

/// This thread's live-byte high-water mark since [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Per-layer handler spans
// ---------------------------------------------------------------------------

/// Layer indices of [`Timed`] wrappers.
pub const FLOOD: usize = 0;
pub const REGISTER: usize = 1;
pub const CONSENSUS: usize = 2;
pub const GOSSIP: usize = 3;
pub const ABD: usize = 4;
pub const LAYERS: usize = 5;

/// What one layer's handler calls cost: spans include nested layers.
#[derive(Copy, Clone, Debug, Default)]
pub struct LayerStats {
    pub calls: u64,
    pub message_calls: u64,
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Per-trial handler accounting of the calling thread.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    pub layers: [LayerStats; LAYERS],
    /// Virtual time of the trial's first decision, once a node decided.
    pub first_decision: Option<SimTime>,
    /// Consensus handler calls at virtual times after the first decision.
    pub post_decision_calls: u64,
}

thread_local! {
    static SPANS: RefCell<Spans> = RefCell::new(Spans::default());
}

/// Clears this thread's handler accounting (call at trial start).
pub fn reset_spans() {
    SPANS.with(|s| *s.borrow_mut() = Spans::default());
}

/// Takes this thread's handler accounting (call at trial end).
pub fn take_spans() -> Spans {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Message deliveries layer `layer` handled in this trial so far.
pub fn layer_messages(layer: usize) -> u64 {
    SPANS.with(|s| s.borrow().layers[layer].message_calls)
}

/// Protocols whose state reveals a decision (consensus); the rest keep
/// the default.
pub trait Decides {
    fn decided_at(&self) -> Option<SimTime> {
        None
    }
}

impl Decides for ConsensusNode<u64> {
    fn decided_at(&self) -> Option<SimTime> {
        self.decision().map(|&(_, _, at)| at)
    }
}
impl<P: Protocol> Decides for Flood<P> {}
impl Decides for AbdRegister<u8, u64> {}
impl Decides for Gossip {}
impl Decides for SampledAbd<u64> {}

/// A transparent [`Protocol`] wrapper that times every handler call of
/// `P` as layer `L` and counts the allocations made inside it. It sends
/// nothing and draws no randomness, so a run over `Timed` nodes is
/// event-for-event the run over the bare nodes.
#[derive(Clone, Debug)]
pub struct Timed<P, const L: usize> {
    inner: P,
}

impl<P: Protocol + Decides, const L: usize> Timed<P, L> {
    pub fn new(inner: P) -> Self {
        Timed { inner }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn span(&mut self, now: SimTime, message: bool, call: impl FnOnce(&mut P)) {
        let mark = AllocMark::now();
        let start = Instant::now();
        call(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        let allocs = mark.since();
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let l = &mut s.layers[L];
            l.calls += 1;
            l.message_calls += message as u64;
            l.ns += ns;
            l.allocs += allocs.count;
            l.alloc_bytes += allocs.bytes;
            if L == CONSENSUS {
                match s.first_decision {
                    Some(at) if now > at => s.post_decision_calls += 1,
                    Some(_) => {}
                    None => s.first_decision = self.inner.decided_at(),
                }
            }
        });
    }
}

impl<P: Protocol + Decides, const L: usize> Protocol for Timed<P, L> {
    type Msg = P::Msg;
    type Op = P::Op;
    type Resp = P::Resp;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.span(ctx.now(), false, |p| p.on_start(ctx));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        self.span(ctx.now(), true, |p| p.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.span(ctx.now(), false, |p| p.on_timer(id, ctx));
    }

    fn on_invoke(&mut self, op: OpId, body: Self::Op, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.span(ctx.now(), false, |p| p.on_invoke(op, body, ctx));
    }

    fn on_recover(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.span(ctx.now(), false, |p| p.on_recover(ctx));
    }
}
