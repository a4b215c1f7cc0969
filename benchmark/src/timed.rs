//! `Timed<A>`: spans at a runtime's public boundary, recorded from outside.
//!
//! Wraps any [`TxAccess`] and delegates every call; the four calls that
//! make up a transaction (`begin`, `read`, `write`, `commit`) are counted
//! and timed on both clocks. Whatever a workload spends outside those
//! spans is its own body — the caller subtracts.

use std::time::Instant;

use specpmt_pmem::TimingMode;
use specpmt_txn::TxAccess;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Begin,
    Read,
    Write,
    Commit,
}

pub const CALLS: [Call; 4] = [Call::Begin, Call::Read, Call::Write, Call::Commit];

impl Call {
    pub fn as_str(self) -> &'static str {
        match self {
            Call::Begin => "begin",
            Call::Read => "read",
            Call::Write => "write",
            Call::Commit => "commit",
        }
    }
}

/// Totals of one call kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    pub calls: u64,
    pub host_ns: u64,
    pub sim_ns: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spans(pub [Span; 4]);

impl Spans {
    pub fn of(&self, call: Call) -> Span {
        self.0[call as usize]
    }

    pub fn host_ns(&self) -> u64 {
        self.0.iter().map(|s| s.host_ns).sum()
    }

    pub fn add(&mut self, other: &Spans) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.calls += b.calls;
            a.host_ns += b.host_ns;
            a.sim_ns += b.sim_ns;
        }
    }
}

pub struct Timed<'a, A: TxAccess> {
    inner: &'a mut A,
    pub spans: Spans,
}

impl<'a, A: TxAccess> Timed<'a, A> {
    pub fn new(inner: &'a mut A) -> Self {
        Self { inner, spans: Spans::default() }
    }

    fn span<T>(&mut self, call: Call, f: impl FnOnce(&mut A) -> T) -> T {
        let sim0 = self.inner.local_now_ns();
        let t = Instant::now();
        let out = f(self.inner);
        let host_ns = t.elapsed().as_nanos() as u64;
        let s = &mut self.spans.0[call as usize];
        s.calls += 1;
        s.host_ns += host_ns;
        s.sim_ns += self.inner.local_now_ns().saturating_sub(sim0);
        out
    }
}

impl<A: TxAccess> TxAccess for Timed<'_, A> {
    fn begin(&mut self) {
        self.span(Call::Begin, |a| a.begin());
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        self.span(Call::Write, |a| a.write(addr, data));
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.span(Call::Read, |a| a.read(addr, buf));
    }

    fn commit(&mut self) {
        self.span(Call::Commit, |a| a.commit());
    }

    fn abort(&mut self) {
        self.inner.abort();
    }

    fn doomed(&self) -> bool {
        self.inner.doomed()
    }

    fn alloc(&mut self, size: usize, align: usize) -> usize {
        self.inner.alloc(size, align)
    }

    fn free(&mut self, addr: usize, size: usize, align: usize) {
        self.inner.free(addr, size, align);
    }

    fn in_tx(&self) -> bool {
        self.inner.in_tx()
    }

    fn compute(&mut self, ns: u64) {
        self.inner.compute(ns);
    }

    fn local_now_ns(&self) -> u64 {
        self.inner.local_now_ns()
    }

    fn set_timing(&mut self, mode: TimingMode) -> TimingMode {
        self.inner.set_timing(mode)
    }

    fn setup_alloc(&mut self, bytes: usize, align: usize) -> usize {
        self.inner.setup_alloc(bytes, align)
    }

    fn setup_write(&mut self, addr: usize, data: &[u8]) {
        self.inner.setup_write(addr, data);
    }

    fn maintain(&mut self) {
        self.inner.maintain();
    }
}
