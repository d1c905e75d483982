//! A [`MemoryBackend`] that forwards every call to a real
//! [`MemorySystem`] and counts and times it: the seam between the
//! `gm-sim` core and the `ghostminion` memory system, measured from
//! outside both crates.

use ghostminion::MemorySystem;
use gm_sim::{LoadResp, MemReq, MemoryBackend, Ticket};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Counting, timing wrapper around a borrowed memory system.
pub struct TimedBackend<'a> {
    inner: &'a mut MemorySystem,
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl<'a> TimedBackend<'a> {
    pub fn new(inner: &'a mut MemorySystem) -> Self {
        Self {
            inner,
            calls: Cell::new(0),
            nanos: Cell::new(0),
        }
    }

    /// Calls forwarded so far and the host nanoseconds spent inside them.
    pub fn totals(&self) -> (u64, u64) {
        (self.calls.get(), self.nanos.get())
    }

    fn record(&self, started: Instant) {
        self.calls.set(self.calls.get() + 1);
        self.nanos
            .set(self.nanos.get() + started.elapsed().as_nanos() as u64);
    }
}

/// Times one forwarded call: `timed!(self, expr)` evaluates `expr`
/// between two clock reads and books the call.
macro_rules! timed {
    ($self:ident, $call:expr) => {{
        let started = Instant::now();
        let out = $call;
        $self.record(started);
        out
    }};
}

impl MemoryBackend for TimedBackend<'_> {
    fn load(&mut self, req: &MemReq) -> LoadResp {
        timed!(self, self.inner.load(req))
    }

    fn commit_load(&mut self, req: &MemReq) -> u64 {
        timed!(self, self.inner.commit_load(req))
    }

    fn store_commit(&mut self, req: &MemReq, value: u64) {
        timed!(self, self.inner.store_commit(req, value))
    }

    fn ifetch(&mut self, req: &MemReq) -> LoadResp {
        timed!(self, self.inner.ifetch(req))
    }

    fn commit_ifetch(&mut self, core: usize, line_addr: u64, now: u64) {
        timed!(self, self.inner.commit_ifetch(core, line_addr, now))
    }

    fn squash(&mut self, core: usize, above_ts: u64, max_ts: u64, now: u64) {
        timed!(self, self.inner.squash(core, above_ts, max_ts, now))
    }

    fn take_cancellations(&mut self, core: usize) -> Vec<Ticket> {
        timed!(self, self.inner.take_cancellations(core))
    }

    fn cancellations_pending(&self, core: usize) -> bool {
        timed!(self, self.inner.cancellations_pending(core))
    }

    fn read_value(&self, addr: u64, size: u64) -> u64 {
        timed!(self, self.inner.read_value(addr, size))
    }

    fn write_value(&mut self, addr: u64, value: u64, size: u64) {
        timed!(self, self.inner.write_value(addr, value, size))
    }

    fn write_bytes(&mut self, base: u64, bytes: &[u8]) {
        timed!(self, self.inner.write_bytes(base, bytes))
    }

    fn write_bytes_shared(&mut self, base: u64, bytes: &Arc<[u8]>) {
        timed!(self, self.inner.write_bytes_shared(base, bytes))
    }

    fn ll_reserve(&mut self, core: usize, addr: u64, ts: u64) {
        timed!(self, self.inner.ll_reserve(core, addr, ts))
    }

    fn sc_try(&mut self, core: usize, addr: u64, ts: u64) -> bool {
        timed!(self, self.inner.sc_try(core, addr, ts))
    }
}
