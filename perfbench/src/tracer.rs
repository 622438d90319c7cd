//! In-memory span recorder and the forwarding crypto wrapper.
//!
//! Spans are recorded by the benchmark's own code around the public calls
//! it makes into each layer, and by [`TracedCrypto`] around every
//! [`CryptoEngine`] call the engine makes. Each span carries its parent: the
//! innermost span open on the same thread, or — on a thread with nothing
//! open (the recovery workers) — the span the benchmark marked as the
//! cross-thread parent with [`Tracer::span_across`]. Spans stay in memory
//! until [`Tracer::write_tsv`] dumps them at exit.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use steins_crypto::CryptoEngine;

/// One closed span. `parent == 0` marks a root; ids start at 1.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Messages presented by a batched (`*_many`) crypto call, else 0.
    pub msgs: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The process-wide recorder. Recording is off until [`Tracer::enable`].
pub struct Tracer {
    on: AtomicBool,
    /// Set while [`Tracer::muted`] runs: nothing is recorded.
    mute: AtomicBool,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    /// Parent for spans opened on a thread whose own stack is empty.
    across: AtomicU32,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// (thread number, open span ids) of the current thread.
    static STACK: RefCell<(u32, Vec<u32>)> = const { RefCell::new((0, Vec::new())) };
}

pub fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        mute: AtomicBool::new(false),
        next_id: AtomicU32::new(1),
        next_thread: AtomicU32::new(1),
        across: AtomicU32::new(0),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// An open span; closing happens on drop.
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    thread: u32,
    start_ns: u64,
    msgs: u32,
}

impl Tracer {
    pub fn enable(&self) {
        self.on.store(true, Ordering::Release);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed) && !self.mute.load(Ordering::Relaxed)
    }

    /// Runs `f` recording nothing, for calls whose inner spans would only
    /// flood the recorder: a full scrub pass makes one crypto call per
    /// written line, millions per run.
    pub fn muted<R>(&self, f: impl FnOnce() -> R) -> R {
        self.mute.store(true, Ordering::Relaxed);
        let r = f();
        self.mute.store(false, Ordering::Relaxed);
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` (a no-op returning `None` while off).
    pub fn span(&self, name: &'static str) -> Option<Guard> {
        self.span_msgs(name, 0)
    }

    fn span_msgs(&self, name: &'static str, msgs: usize) -> Option<Guard> {
        if !self.enabled() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (thread, parent) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.0 == 0 {
                s.0 = self.next_thread.fetch_add(1, Ordering::Relaxed);
            }
            let parent = match s.1.last() {
                Some(&p) => p,
                None => self.across.load(Ordering::Acquire),
            };
            s.1.push(id);
            (s.0, parent)
        });
        Some(Guard {
            id,
            parent,
            name,
            thread,
            start_ns: self.now_ns(),
            msgs: msgs as u32,
        })
    }

    /// Runs `f` inside a span that also parents every span opened on other
    /// threads with nothing open of their own (the recovery workers).
    pub fn span_across<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let g = self.span(name);
        if let Some(g) = &g {
            self.across.store(g.id, Ordering::Release);
        }
        let r = f();
        self.across.store(0, Ordering::Release);
        drop(g);
        r
    }

    /// Takes every recorded span, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Writes spans as tab-separated `id parent thread name start_ns end_ns
    /// msgs` lines.
    pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tthread\tname\tstart_ns\tend_ns\tmsgs")?;
        for s in spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns, s.msgs
            )?;
        }
        w.flush()
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let t = tracer();
        let end_ns = t.now_ns();
        // Guards are scoped, so the span closing is the innermost one open.
        STACK.with(|s| s.borrow_mut().1.pop());
        // A poisoned recorder still takes spans: pushes leave it valid.
        t.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                thread: self.thread,
                start_ns: self.start_ns,
                end_ns,
                msgs: self.msgs,
            });
    }
}

/// Span names of the crypto wrapper, one per trait entry point.
pub const CRYPTO_SPANS: [&str; 7] = [
    "crypto.otp",
    "crypto.mac64",
    "crypto.mac64_72",
    "crypto.mac64_88",
    "crypto.mac64_many",
    "crypto.mac64_72_many",
    "crypto.mac64_88_many",
];

/// Forwards every [`CryptoEngine`] entry point to the wrapped engine inside
/// a span. `mac_lanes` and the three batched entry points are forwarded as
/// well, so the engine presents exactly the batches it presents to the
/// unwrapped engine; `data_mac` stays on the trait default, which the
/// wrapped engines use too.
pub struct TracedCrypto(pub Box<dyn CryptoEngine>);

impl CryptoEngine for TracedCrypto {
    fn otp(&self, addr: u64, major: u64, minor: u64) -> [u8; 64] {
        let _g = tracer().span(CRYPTO_SPANS[0]);
        self.0.otp(addr, major, minor)
    }

    fn mac64(&self, msg: &[u8]) -> u64 {
        let _g = tracer().span(CRYPTO_SPANS[1]);
        self.0.mac64(msg)
    }

    fn mac64_72(&self, msg: &[u8; 72]) -> u64 {
        let _g = tracer().span(CRYPTO_SPANS[2]);
        self.0.mac64_72(msg)
    }

    fn mac64_88(&self, msg: &[u8; 88]) -> u64 {
        let _g = tracer().span(CRYPTO_SPANS[3]);
        self.0.mac64_88(msg)
    }

    fn mac_lanes(&self) -> usize {
        self.0.mac_lanes()
    }

    fn mac64_many(&self, msgs: &[&[u8]], out: &mut [u64]) {
        let _g = tracer().span_msgs(CRYPTO_SPANS[4], msgs.len());
        self.0.mac64_many(msgs, out)
    }

    fn mac64_72_many(&self, msgs: &[[u8; 72]], out: &mut [u64]) {
        let _g = tracer().span_msgs(CRYPTO_SPANS[5], msgs.len());
        self.0.mac64_72_many(msgs, out)
    }

    fn mac64_88_many(&self, msgs: &[[u8; 88]], out: &mut [u64]) {
        let _g = tracer().span_msgs(CRYPTO_SPANS[6], msgs.len());
        self.0.mac64_88_many(msgs, out)
    }
}

/// Per-name totals over a span set: call count, total and self time,
/// messages presented. Self time is a span's duration minus the durations
/// of its same-thread children; children on other threads (the recovery
/// workers) run in parallel with their parent and are not subtracted.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: i64,
    pub msgs: u64,
}

pub struct Analysis {
    pub spans: Vec<Span>,
    /// End of the first `recovery.recover_all` span (or `u64::MAX`). The
    /// engine rebuilds each recovered system around a fresh crypto engine
    /// of the configured kind, so the wrapper's spans stop there, and so
    /// does everything that splits crypto time from its parent's.
    pub crypto_traced_until: u64,
    /// Index by span id - 1.
    index: Vec<u32>,
    /// Same-thread child duration sum per span (by position in `spans`).
    child_ns: Vec<u64>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Self {
        let max_id = spans.iter().map(|s| s.id).max().unwrap_or(0) as usize;
        let mut index = vec![u32::MAX; max_id];
        for (i, s) in spans.iter().enumerate() {
            index[s.id as usize - 1] = i as u32;
        }
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = Self::lookup(&index, s.parent) {
                if spans[p].thread == s.thread {
                    child_ns[p] += s.dur_ns();
                }
            }
        }
        let crypto_traced_until = spans
            .iter()
            .filter(|s| s.name == "recovery.recover_all")
            .map(|s| s.end_ns)
            .min()
            .unwrap_or(u64::MAX);
        Analysis {
            spans,
            crypto_traced_until,
            index,
            child_ns,
        }
    }

    fn lookup(index: &[u32], id: u32) -> Option<usize> {
        if id == 0 {
            return None;
        }
        match index.get(id as usize - 1) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }

    pub fn self_ns(&self, i: usize) -> i64 {
        self.spans[i].dur_ns() as i64 - self.child_ns[i] as i64
    }

    /// The nearest ancestor (or the span itself) whose name is in `roots`.
    fn root_in(&self, mut i: usize, roots: &[&str]) -> Option<usize> {
        loop {
            if roots.contains(&self.spans[i].name) {
                return Some(i);
            }
            i = Self::lookup(&self.index, self.spans[i].parent)?;
        }
    }

    /// Totals for spans named `name` that sit under (or are) a span named
    /// in `roots`; every span when `roots` is empty. With `crypto_traced`,
    /// only spans that start while crypto calls are still traced.
    pub fn stats(&self, name: &str, roots: &[&str], crypto_traced: bool) -> NameStats {
        let mut st = NameStats::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name
                || (crypto_traced && s.start_ns >= self.crypto_traced_until)
                || (!roots.is_empty() && self.root_in(i, roots).is_none())
            {
                continue;
            }
            st.calls += 1;
            st.total_ns += s.dur_ns();
            st.self_ns += self.self_ns(i);
            st.msgs += s.msgs as u64;
        }
        st
    }

    /// Sum of [`Self::stats`] over several names.
    pub fn stats_of(&self, names: &[&str], roots: &[&str], crypto_traced: bool) -> NameStats {
        let mut st = NameStats::default();
        for n in names {
            let s = self.stats(n, roots, crypto_traced);
            st.calls += s.calls;
            st.total_ns += s.total_ns;
            st.self_ns += s.self_ns;
            st.msgs += s.msgs;
        }
        st
    }

    /// Checks the accounting identity the per-layer split relies on: every
    /// span lies inside its same-thread parent, so no self time is
    /// negative, and for every same-thread tree the self times of its spans
    /// add up to the root's duration. Returns the first violation.
    pub fn check_nesting(&self) -> Result<(), String> {
        // Sum of self times per same-thread root.
        let mut tree_self = vec![0i64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let sf = self.self_ns(i);
            if sf < 0 {
                return Err(format!("span {} ({}) has negative self time", s.id, s.name));
            }
            let mut r = i;
            while let Some(p) = Self::lookup(&self.index, self.spans[r].parent) {
                let (ps, cs) = (&self.spans[p], &self.spans[r]);
                if ps.thread != cs.thread {
                    break;
                }
                if cs.start_ns < ps.start_ns || cs.end_ns > ps.end_ns {
                    return Err(format!("span {} ({}) escapes its parent", cs.id, cs.name));
                }
                r = p;
            }
            tree_self[r] += sf;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let is_root = match Self::lookup(&self.index, s.parent) {
                None => true,
                Some(p) => self.spans[p].thread != s.thread,
            };
            if is_root && tree_self[i] != s.dur_ns() as i64 {
                return Err(format!(
                    "self times under span {} ({}) sum to {} ns, span lasts {} ns",
                    s.id,
                    s.name,
                    tree_self[i],
                    s.dur_ns()
                ));
            }
        }
        Ok(())
    }
}
