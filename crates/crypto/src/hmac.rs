//! HMAC-SHA-256 (RFC 2104 / FIPS-198-1), built on [`crate::sha256::Sha256`].
//!
//! Secure-NVM metadata MACs are 64-bit; [`HmacSha256::mac64`] truncates the
//! full HMAC to its first 8 bytes, the standard truncation used by SGX-style
//! integrity-tree designs (VAULT, Anubis, STAR, SCUE).
//!
//! The implementation stores the two *midstates* — the SHA-256 chaining
//! values after absorbing the inner and outer pads — instead of cloneable
//! hasher objects. A MAC then runs the compression function directly over
//! the message from the inner midstate (padding built on the stack) and
//! finishes with exactly **one** outer compression: the 32-byte inner digest
//! plus its padding is a single block. No allocation, no buffer copies, no
//! intermediate `Sha256` clones.
//!
//! Every MAC runs on one [`Backend`], probed once at key setup like
//! [`crate::aes::Aes128`]'s AES-NI flag, fastest first:
//!
//! 1. [`Backend::ShaNi`] — the x86 SHA extensions. Single messages *and*
//!    batches run one message at a time through
//!    the SHA-NI compression: one SHA-NI MAC is cheaper than its
//!    share of an 8-lane AVX2 batch, so lanes would only add latency.
//! 2. [`Backend::Avx2Lanes`] — the **batched** entry points
//!    ([`HmacSha256::mac64_many`] and the fixed-length variants) press 8
//!    independent messages per call through the AVX2 multi-lane compression
//!    of [`crate::sha256_multi`]; single messages run the portable rounds.
//! 3. [`Backend::PortableLanes`] — the same with the portable 4-lane
//!    compression.
//!
//! Lane batches fall back to the single-message path for mixed lengths and
//! ragged tails. Every backend is bit-identical to the portable scalar
//! rounds — the backend changes throughput, never bytes.

use crate::sha256::{sha_ni_available, Sha256, H0};
use crate::sha256_multi::{compress_lanes, wide_lanes_available, LANES_PORTABLE, LANES_WIDE};

/// The compression an [`HmacSha256`] runs its MACs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// SHA-NI for every MAC, one message at a time.
    ShaNi,
    /// 8-lane AVX2 batches; portable rounds for single messages.
    Avx2Lanes,
    /// 4-lane portable batches; portable rounds for single messages.
    PortableLanes,
}

impl Backend {
    /// Every backend, fastest first — the order [`Backend::probe`] tries.
    pub const ALL: [Backend; 3] = [Backend::ShaNi, Backend::Avx2Lanes, Backend::PortableLanes];

    /// The fastest backend the running CPU supports.
    pub fn probe() -> Backend {
        Self::ALL
            .into_iter()
            .find(|b| b.available())
            .unwrap_or(Backend::PortableLanes)
    }

    /// Whether the running CPU supports this backend.
    pub fn available(self) -> bool {
        match self {
            Backend::ShaNi => sha_ni_available(),
            Backend::Avx2Lanes => wide_lanes_available(),
            Backend::PortableLanes => true,
        }
    }

    /// The CPU feature this backend needs (`None`: runs everywhere).
    pub fn requires(self) -> Option<&'static str> {
        match self {
            Backend::ShaNi => Some("sha"),
            Backend::Avx2Lanes => Some("avx2"),
            Backend::PortableLanes => None,
        }
    }

    /// Lanes a batch fills per compression call; `1` means batches run one
    /// message at a time.
    pub fn lanes(self) -> usize {
        match self {
            Backend::ShaNi => 1,
            Backend::Avx2Lanes => LANES_WIDE,
            Backend::PortableLanes => LANES_PORTABLE,
        }
    }
}

/// Keyed HMAC-SHA-256 instance with precomputed inner/outer midstates.
#[derive(Clone)]
pub struct HmacSha256 {
    /// Chaining value after compressing `key ^ ipad`.
    istate: [u32; 8],
    /// Chaining value after compressing `key ^ opad`.
    ostate: [u32; 8],
    /// The compression every MAC of this instance runs on.
    backend: Backend,
}

impl HmacSha256 {
    /// Creates an HMAC instance for `key` (any length; hashed if > 64 bytes).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            let d = Sha256::digest(key);
            k[..32].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..64 {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut istate = H0;
        Sha256::compress(&mut istate, &ipad);
        let mut ostate = H0;
        Sha256::compress(&mut ostate, &opad);
        HmacSha256 {
            istate,
            ostate,
            backend: Backend::probe(),
        }
    }

    /// The backend this instance runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Lanes the batched paths fill per compression call on this backend.
    pub fn lane_count(&self) -> usize {
        self.backend.lanes()
    }

    /// Pins the instance to `backend`, or `None` where the running CPU lacks
    /// it — differential tests and benches exercise every backend on one
    /// machine.
    #[cfg(any(test, feature = "ref-impls"))]
    pub fn with_backend(mut self, backend: Backend) -> Option<Self> {
        if !backend.available() {
            return None;
        }
        self.backend = backend;
        Some(self)
    }

    /// Inner hash: `SHA-256(ipad-midstate ‖ msg)` with stack-built padding.
    #[inline(always)]
    fn inner_state(&self, msg: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; 64])) -> [u32; 8] {
        let mut st = self.istate;
        let mut chunks = msg.chunks_exact(64);
        for chunk in &mut chunks {
            compress(&mut st, chunk.try_into().unwrap());
        }
        let rest = chunks.remainder();
        // Total hashed length includes the 64-byte ipad block.
        let bit_len = ((64 + msg.len()) as u64) * 8;
        let mut block = [0u8; 64];
        block[..rest.len()].copy_from_slice(rest);
        block[rest.len()] = 0x80;
        if rest.len() >= 56 {
            compress(&mut st, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut st, &block);
        st
    }

    /// Outer hash: one compression — 32 digest bytes, padding, and the
    /// length (64 + 32 bytes = 768 bits) all fit in a single block.
    #[inline(always)]
    fn outer_state(
        &self,
        inner: [u32; 8],
        compress: impl Fn(&mut [u32; 8], &[u8; 64]),
    ) -> [u32; 8] {
        let mut block = [0u8; 64];
        for (i, word) in inner.iter().enumerate() {
            block[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        block[32] = 0x80;
        block[56..].copy_from_slice(&(96u64 * 8).to_be_bytes());
        let mut st = self.ostate;
        compress(&mut st, &block);
        st
    }

    /// Final (outer) state of the HMAC of `msg`, on this instance's backend.
    #[inline]
    fn mac_state(&self, msg: &[u8]) -> [u32; 8] {
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::ShaNi {
            // SAFETY: `ShaNi` is set only when `sha_ni_available()` holds.
            return unsafe { self.mac_state_shani(msg) };
        }
        let st = self.inner_state(msg, Sha256::compress_portable);
        self.outer_state(st, Sha256::compress_portable)
    }

    /// [`Self::mac_state`] compiled with the SHA extensions enabled, so
    /// every compression inlines.
    ///
    /// # Safety
    /// The features of [`crate::sha256::shani::compress`] must be available
    /// (runtime-detected via [`sha_ni_available`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn mac_state_shani(&self, msg: &[u8]) -> [u32; 8] {
        // SAFETY: callers reach this only under `Backend::ShaNi`, i.e.
        // after `sha_ni_available()` held.
        let compress = |st: &mut [u32; 8], block: &[u8; 64]| unsafe {
            crate::sha256::shani::compress(st, block)
        };
        let st = self.inner_state(msg, compress);
        self.outer_state(st, compress)
    }

    /// Full 32-byte HMAC of `msg`.
    pub fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let st = self.mac_state(msg);
        let mut out = [0u8; 32];
        for (i, word) in st.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// 64-bit truncated HMAC, the wire format of secure-NVM metadata MACs.
    /// One-shot: only the first two state words are ever serialized.
    #[inline]
    pub fn mac64(&self, msg: &[u8]) -> u64 {
        Self::truncate64(&self.mac_state(msg))
    }

    /// Message lengths with a dedicated monomorphized fast path wired into
    /// the [`crate::engine::RealCrypto`] hot paths: 72 B (node-MAC / ASIT
    /// slot strings) and 88 B (data-MAC strings). The microbench asserts the
    /// hot message sizes stay on this list, so a routing regression (like
    /// the one that sent 88 B messages down the generic slice path) fails
    /// the bench run instead of only showing up as a slow number.
    pub const FIXED_FAST_LENS: [usize; 2] = [72, 88];

    /// Monomorphized [`Self::mac64`] for fixed-size messages. Unlike the
    /// generic slice path, `N` is a compile-time constant here, so the block
    /// count, tail split, and padding layout all resolve at monomorphization
    /// time and the copies/loops fully unroll. Output is bit-identical to
    /// `mac64(msg)`.
    #[inline]
    pub fn mac64_fixed<const N: usize>(&self, msg: &[u8; N]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::ShaNi {
            // SAFETY: `ShaNi` is set only when `sha_ni_available()` holds.
            return unsafe { self.mac64_fixed_shani(msg) };
        }
        self.mac64_fixed_with(msg, Sha256::compress_portable)
    }

    /// [`Self::mac64_fixed`] compiled with the SHA extensions enabled.
    ///
    /// # Safety
    /// The features of [`crate::sha256::shani::compress`] must be available
    /// (runtime-detected via [`sha_ni_available`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn mac64_fixed_shani<const N: usize>(&self, msg: &[u8; N]) -> u64 {
        // SAFETY: callers reach this only under `Backend::ShaNi`, i.e.
        // after `sha_ni_available()` held.
        self.mac64_fixed_with(msg, |st, block| unsafe {
            crate::sha256::shani::compress(st, block)
        })
    }

    /// The body of [`Self::mac64_fixed`] over one compression function.
    #[inline(always)]
    fn mac64_fixed_with<const N: usize>(
        &self,
        msg: &[u8; N],
        compress: impl Fn(&mut [u32; 8], &[u8; 64]),
    ) -> u64 {
        let mut st = self.istate;
        let full = N / 64;
        for b in 0..full {
            let block: &[u8; 64] = msg[b * 64..b * 64 + 64].try_into().unwrap();
            compress(&mut st, block);
        }
        let rem = N % 64;
        // Total hashed length includes the 64-byte ipad block.
        let bit_len = ((64 + N) as u64) * 8;
        let mut block = [0u8; 64];
        block[..rem].copy_from_slice(&msg[full * 64..]);
        block[rem] = 0x80;
        if rem >= 56 {
            compress(&mut st, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut st, &block);
        let st = self.outer_state(st, compress);
        Self::truncate64(&st)
    }

    /// Fixed-length fast path for the 72-byte node-MAC string.
    #[inline]
    pub fn mac64_72(&self, msg: &[u8; 72]) -> u64 {
        self.mac64_fixed(msg)
    }

    /// Fixed-length fast path for the 88-byte data-MAC string.
    #[inline]
    pub fn mac64_88(&self, msg: &[u8; 88]) -> u64 {
        self.mac64_fixed(msg)
    }

    /// First 8 MAC bytes of an outer state, in the `mac64` wire format.
    #[inline(always)]
    fn truncate64(st: &[u32; 8]) -> u64 {
        let mut first8 = [0u8; 8];
        first8[..4].copy_from_slice(&st[0].to_be_bytes());
        first8[4..].copy_from_slice(&st[1].to_be_bytes());
        u64::from_le_bytes(first8)
    }

    /// `L` truncated MACs over `L` equal-length messages, lane-parallel: the
    /// inner block loop, tail padding, and single outer compression all run
    /// across lanes in lock-step through `compress`. Bit-identical to `L`
    /// serial [`Self::mac64`] calls for any correct lane compression.
    #[inline(always)]
    fn mac64_lanes_with<const L: usize>(
        &self,
        msgs: [&[u8]; L],
        compress: &mut impl FnMut(&mut [[u32; 8]; L], &[[u8; 64]; L]),
    ) -> [u64; L] {
        let len = msgs[0].len();
        debug_assert!(msgs.iter().all(|m| m.len() == len), "lanes need one length");
        let mut st: [[u32; 8]; L] = [self.istate; L];
        let mut blocks = [[0u8; 64]; L];
        for b in 0..len / 64 {
            for (l, block) in blocks.iter_mut().enumerate() {
                block.copy_from_slice(&msgs[l][b * 64..b * 64 + 64]);
            }
            compress(&mut st, &blocks);
        }
        let rem = len % 64;
        let bit_len = ((64 + len) as u64) * 8;
        for (l, block) in blocks.iter_mut().enumerate() {
            *block = [0u8; 64];
            block[..rem].copy_from_slice(&msgs[l][len - rem..]);
            block[rem] = 0x80;
        }
        if rem >= 56 {
            compress(&mut st, &blocks);
            blocks = [[0u8; 64]; L];
        }
        for block in blocks.iter_mut() {
            block[56..].copy_from_slice(&bit_len.to_be_bytes());
        }
        compress(&mut st, &blocks);
        // Outer: 32 digest bytes + padding + length fit in a single block.
        let mut ost: [[u32; 8]; L] = [self.ostate; L];
        for (l, block) in blocks.iter_mut().enumerate() {
            *block = [0u8; 64];
            for (i, word) in st[l].iter().enumerate() {
                block[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            block[32] = 0x80;
            block[56..].copy_from_slice(&(96u64 * 8).to_be_bytes());
        }
        compress(&mut ost, &blocks);
        core::array::from_fn(|l| Self::truncate64(&ost[l]))
    }

    /// Portable lane batch (autovectorized compression).
    #[inline(always)]
    fn mac64_lanes<const L: usize>(&self, msgs: [&[u8]; L]) -> [u64; L] {
        self.mac64_lanes_with(msgs, &mut compress_lanes::<L>)
    }

    /// The 8-lane batch on the explicit AVX2 compression.
    ///
    /// # Safety
    /// The `avx2` target feature must be available (runtime-detected via
    /// [`wide_lanes_available`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn mac64_lanes8_avx2(&self, msgs: [&[u8]; 8]) -> [u64; 8] {
        // SAFETY: the caller guarantees AVX2; `compress8` requires it.
        self.mac64_lanes_with::<8>(msgs, &mut |st, blocks| unsafe {
            crate::sha256_multi::avx2::compress8(st, blocks)
        })
    }

    /// Batched [`Self::mac64`]: `out[i] = mac64(msgs[i])` for every `i`.
    ///
    /// On the lane backends, runs of [`Self::lane_count`] equal-length
    /// messages go through the multi-lane compression; mixed-length runs and
    /// the ragged tail fall back to the single-message path, as does every
    /// message under [`Backend::ShaNi`]. Output bytes never depend on batch
    /// shape.
    pub fn mac64_many(&self, msgs: &[&[u8]], out: &mut [u64]) {
        assert_eq!(msgs.len(), out.len(), "one output slot per message");
        let mut i = 0;
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Avx2Lanes {
            while i + LANES_WIDE <= msgs.len() {
                let chunk: [&[u8]; LANES_WIDE] = msgs[i..i + LANES_WIDE].try_into().unwrap();
                if chunk.iter().all(|m| m.len() == chunk[0].len()) {
                    // SAFETY: `Avx2Lanes` is set only when
                    // `wide_lanes_available()` holds.
                    let macs = unsafe { self.mac64_lanes8_avx2(chunk) };
                    out[i..i + LANES_WIDE].copy_from_slice(&macs);
                    i += LANES_WIDE;
                } else {
                    out[i] = self.mac64(msgs[i]);
                    i += 1;
                }
            }
        }
        while self.backend != Backend::ShaNi && i + LANES_PORTABLE <= msgs.len() {
            let chunk: [&[u8]; LANES_PORTABLE] = msgs[i..i + LANES_PORTABLE].try_into().unwrap();
            if chunk.iter().all(|m| m.len() == chunk[0].len()) {
                let macs = self.mac64_lanes::<LANES_PORTABLE>(chunk);
                out[i..i + LANES_PORTABLE].copy_from_slice(&macs);
                i += LANES_PORTABLE;
            } else {
                out[i] = self.mac64(msgs[i]);
                i += 1;
            }
        }
        while i < msgs.len() {
            out[i] = self.mac64(msgs[i]);
            i += 1;
        }
    }

    /// Batched fixed-length MACs (uniform length by construction, so on the
    /// lane backends every full chunk takes the multi-lane path and the tail
    /// is single-message mop-up; [`Backend::ShaNi`] runs them all singly).
    #[inline]
    pub fn mac64_fixed_many<const N: usize>(&self, msgs: &[[u8; N]], out: &mut [u64]) {
        assert_eq!(msgs.len(), out.len(), "one output slot per message");
        let mut i = 0;
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Avx2Lanes {
            while i + LANES_WIDE <= msgs.len() {
                let chunk: [&[u8]; LANES_WIDE] = core::array::from_fn(|l| msgs[i + l].as_slice());
                // SAFETY: `Avx2Lanes` is set only when
                // `wide_lanes_available()` holds.
                let macs = unsafe { self.mac64_lanes8_avx2(chunk) };
                out[i..i + LANES_WIDE].copy_from_slice(&macs);
                i += LANES_WIDE;
            }
        }
        while self.backend != Backend::ShaNi && i + LANES_PORTABLE <= msgs.len() {
            let chunk: [&[u8]; LANES_PORTABLE] = core::array::from_fn(|l| msgs[i + l].as_slice());
            let macs = self.mac64_lanes::<LANES_PORTABLE>(chunk);
            out[i..i + LANES_PORTABLE].copy_from_slice(&macs);
            i += LANES_PORTABLE;
        }
        while i < msgs.len() {
            out[i] = self.mac64_fixed(&msgs[i]);
            i += 1;
        }
    }

    /// Batched 72-byte MACs (node-MAC strings of a flush batch).
    pub fn mac64_72_many(&self, msgs: &[[u8; 72]], out: &mut [u64]) {
        self.mac64_fixed_many(msgs, out);
    }

    /// Batched 88-byte MACs (data-MAC strings of a flush batch).
    pub fn mac64_88_many(&self, msgs: &[[u8; 88]], out: &mut [u64]) {
        self.mac64_fixed_many(msgs, out);
    }
}

/// Scalar reference implementations of the batch entry points, kept for the
/// differential tests and the `ref-impls` microbenchmark baseline (the
/// "before" side of the multi-lane speedup, like [`crate::aes::reference`]).
#[cfg(any(test, feature = "ref-impls"))]
pub mod reference {
    use super::HmacSha256;

    /// Per-message `mac64` — the semantics `mac64_many` must match
    /// byte-for-byte on every batch shape. On a
    /// [`super::Backend::PortableLanes`] instance this is the portable
    /// scalar reference.
    pub fn mac64_many_ref(h: &HmacSha256, msgs: &[&[u8]], out: &mut [u64]) {
        for (m, o) in msgs.iter().zip(out.iter_mut()) {
            *o = h.mac64(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The pre-midstate implementation: cloned hashers and intermediate
    /// digests. Kept as the differential reference for the fast path.
    fn mac_ref(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            let d = Sha256::digest(key);
            k[..32].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..64 {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        inner.update(msg);
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// One instance of `key` per backend the host runs, fastest first.
    /// Prints each backend it skips, so a host without SHA-NI (or AVX2)
    /// shows those cases as skipped instead of passing them silently.
    fn each_backend(key: &[u8]) -> Vec<HmacSha256> {
        Backend::ALL
            .into_iter()
            .filter_map(|b| {
                let h = HmacSha256::new(key).with_backend(b);
                if h.is_none() {
                    println!("skipped {b:?}: host lacks {}", b.requires().unwrap_or("?"));
                }
                h
            })
            .collect()
    }

    /// The portable scalar reference: every MAC on the scalar rounds.
    fn portable(key: &[u8]) -> HmacSha256 {
        HmacSha256::new(key)
            .with_backend(Backend::PortableLanes)
            .expect("the portable backend runs everywhere")
    }

    /// Reports the probed backend (CI runs this with `--nocapture`) and
    /// pins the probe to the fastest available one.
    #[test]
    fn probed_backend_is_the_fastest_available() {
        let probed = HmacSha256::new(b"probe").backend();
        let available: Vec<Backend> = Backend::ALL.into_iter().filter(|b| b.available()).collect();
        println!(
            "HMAC backend: {probed:?} ({} lane(s)); available on this host: {available:?}",
            probed.lanes()
        );
        assert_eq!(available.first(), Some(&probed));
        assert_eq!(available.last(), Some(&Backend::PortableLanes));
    }

    fn rfc4231(key: &[u8], msg: &[u8], expect: &str) {
        for h in each_backend(key) {
            assert_eq!(hex(&h.mac(msg)), expect, "{:?}", h.backend());
        }
    }

    #[test]
    fn rfc4231_case1() {
        rfc4231(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case2() {
        rfc4231(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case3() {
        rfc4231(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        rfc4231(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    /// The midstate fast path must agree with the two-hasher reference on
    /// every message length around the block/padding boundaries, on every
    /// backend.
    #[test]
    fn midstate_matches_reference_all_boundary_lengths() {
        let key = b"steins-mac-key";
        let data: Vec<u8> = (0..300).map(|i| (i * 31 + 7) as u8).collect();
        for h in each_backend(key) {
            for len in 0..=data.len() {
                let b = h.backend();
                assert_eq!(
                    h.mac(&data[..len]),
                    mac_ref(key, &data[..len]),
                    "{b:?} len={len}"
                );
            }
        }
    }

    #[test]
    fn mac64_is_prefix_of_mac() {
        let h = HmacSha256::new(b"key");
        let full = h.mac(b"message");
        assert_eq!(
            h.mac64(b"message"),
            u64::from_le_bytes(full[..8].try_into().unwrap())
        );
    }

    #[test]
    fn mac64_fixed_matches_slice_path() {
        let h = HmacSha256::new(b"key");
        let msg72 = [0x5a; 72];
        assert_eq!(h.mac64_fixed(&msg72), h.mac64(&msg72));
        let msg88 = [0xc3; 88];
        assert_eq!(h.mac64_fixed(&msg88), h.mac64(&msg88));
    }

    #[test]
    fn different_keys_give_different_macs() {
        let a = HmacSha256::new(b"k1").mac64(b"m");
        let b = HmacSha256::new(b"k2").mac64(b"m");
        assert_ne!(a, b);
    }

    #[test]
    fn fixed_paths_match_generic_and_are_registered() {
        let h = HmacSha256::new(b"fixed-key");
        let mut msg72 = [0u8; 72];
        let mut msg88 = [0u8; 88];
        for (i, b) in msg72.iter_mut().enumerate() {
            *b = (i * 13 + 1) as u8;
        }
        for (i, b) in msg88.iter_mut().enumerate() {
            *b = (i * 29 + 3) as u8;
        }
        assert_eq!(h.mac64_72(&msg72), h.mac64(&msg72));
        assert_eq!(h.mac64_88(&msg88), h.mac64(&msg88));
        // Both hot message sizes must stay routed off the generic path.
        assert!(HmacSha256::FIXED_FAST_LENS.contains(&72));
        assert!(HmacSha256::FIXED_FAST_LENS.contains(&88));
    }

    /// `mac64_fixed` must agree with the slice path on every tail layout:
    /// short tail, the 56-byte padding split, and exact block multiples.
    #[test]
    fn mac64_fixed_matches_generic_on_boundary_lengths() {
        let h = HmacSha256::new(b"key");
        fn check<const N: usize>(h: &HmacSha256) {
            let msg: [u8; N] = core::array::from_fn(|i| (i * 7 + N) as u8);
            assert_eq!(h.mac64_fixed(&msg), h.mac64(&msg), "N={N}");
        }
        check::<0>(&h);
        check::<1>(&h);
        check::<55>(&h);
        check::<56>(&h);
        check::<63>(&h);
        check::<64>(&h);
        check::<65>(&h);
        check::<72>(&h);
        check::<88>(&h);
        check::<119>(&h);
        check::<120>(&h);
        check::<128>(&h);
        check::<200>(&h);
    }

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x
    }

    /// The backend differential: 10 000 random messages (random lengths,
    /// random bytes) pressed through the batch path in random batch shapes
    /// must be byte-identical to the portable scalar reference — on every
    /// backend the host runs.
    #[test]
    fn multi_lane_matches_scalar_on_10k_random_messages() {
        let scalar = portable(b"multi-lane-key");
        let backends = each_backend(b"multi-lane-key");
        let mut seed = 0x5eed_1234_u64;
        let mut msgs: Vec<Vec<u8>> = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            let len = (lcg(&mut seed) % 160) as usize;
            msgs.push((0..len).map(|_| lcg(&mut seed) as u8).collect());
        }
        let mut start = 0;
        while start < msgs.len() {
            let batch = 1 + (lcg(&mut seed) % 37) as usize;
            let end = (start + batch).min(msgs.len());
            let refs: Vec<&[u8]> = msgs[start..end].iter().map(|m| m.as_slice()).collect();
            let mut expect = vec![0u64; refs.len()];
            reference::mac64_many_ref(&scalar, &refs, &mut expect);
            for h in &backends {
                let mut got = vec![0u64; refs.len()];
                h.mac64_many(&refs, &mut got);
                assert_eq!(got, expect, "{:?} batch [{start}, {end})", h.backend());
            }
            start = end;
        }
    }

    /// Uniform-length batches (the hot shape): 10 000 random 72 B and 88 B
    /// messages through the fixed batch paths of every backend.
    #[test]
    fn fixed_many_matches_scalar_on_10k_random_messages() {
        let scalar = portable(b"fixed-many-key");
        let backends = each_backend(b"fixed-many-key");
        let mut seed = 0xfeed_5678_u64;
        fn run<const N: usize>(scalar: &HmacSha256, backends: &[HmacSha256], seed: &mut u64) {
            let msgs: Vec<[u8; N]> = (0..5_000)
                .map(|_| core::array::from_fn(|_| lcg(seed) as u8))
                .collect();
            let expect: Vec<u64> = msgs.iter().map(|m| scalar.mac64(m)).collect();
            for h in backends {
                let mut got = vec![0u64; msgs.len()];
                h.mac64_fixed_many(&msgs, &mut got);
                assert_eq!(got, expect, "{:?} N={N}", h.backend());
            }
        }
        run::<72>(&scalar, &backends, &mut seed);
        run::<88>(&scalar, &backends, &mut seed);
    }

    /// Ragged batch sizes around the lane count: 1, L−1, L, L+1, 3L+2 — the
    /// shapes where a lane/tail split bug would hide.
    #[test]
    fn ragged_batch_sizes_match_serial() {
        let scalar = portable(b"ragged-key");
        for h in each_backend(b"ragged-key") {
            let lanes = h.lane_count();
            for n in [1, lanes - 1, lanes, lanes + 1, 3 * lanes + 2] {
                let msgs: Vec<[u8; 72]> = (0..n)
                    .map(|i| core::array::from_fn(|j| (i * 72 + j) as u8))
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
                let expect: Vec<u64> = msgs.iter().map(|m| scalar.mac64(m)).collect();
                let b = h.backend();
                let mut got = vec![0u64; n];
                h.mac64_many(&refs, &mut got);
                assert_eq!(got, expect, "{b:?} mac64_many n={n} lanes={lanes}");
                let mut got_fixed = vec![0u64; n];
                h.mac64_72_many(&msgs, &mut got_fixed);
                assert_eq!(got_fixed, expect, "{b:?} mac64_72_many n={n} lanes={lanes}");
            }
        }
    }

    /// Mixed-length batches must fall back per message, never mixing lanes.
    #[test]
    fn mixed_length_batches_match_serial() {
        let h = HmacSha256::new(b"mixed-key");
        let msgs: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; (i * 11) % 97]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let mut expect = vec![0u64; refs.len()];
        reference::mac64_many_ref(&h, &refs, &mut expect);
        let mut got = vec![0u64; refs.len()];
        h.mac64_many(&refs, &mut got);
        assert_eq!(got, expect);
    }
}
