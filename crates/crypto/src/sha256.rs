//! SHA-256, implemented from scratch per FIPS-180-4.
//!
//! Used by [`crate::hmac::HmacSha256`] for the MAC engine and by
//! [`crate::SecretKey::derive`] for key derivation.
//!
//! Two compression functions, one dispatch:
//!
//! * `shani::compress` — the x86 SHA extensions (`sha256rnds2`,
//!   `sha256msg1`/`msg2`), selected at runtime via
//!   `sha_ni_available` exactly like the AES-NI path in [`crate::aes`].
//! * `Sha256::compress_portable` — the scalar rounds, kept as the
//!   portable path and as the differential reference. It keeps only a
//!   rolling 16-word message schedule (instead of materializing all 64
//!   `W[t]` up front) and unrolls the round loop so the eight working
//!   variables never shuffle through a register rotation — the standard
//!   software-SHA-256 shape, ~2× the naive loop.
//!
//! `Sha256::compress` picks the first available of the two, so
//! [`Sha256::update`], [`Sha256::digest`], key derivation and the HMAC key
//! midstates all run on SHA-NI where the CPU has it. Both paths are
//! bit-identical; only the speed differs.

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// σ0: the small sigma of the message schedule.
#[inline(always)]
pub(crate) fn ssig0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

/// σ1: the small sigma of the message schedule.
#[inline(always)]
pub(crate) fn ssig1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// One compression round over a 64-byte block (FIPS-180-4 §6.2.2) on
    /// the fastest available backend: SHA-NI, else the portable rounds.
    #[inline]
    pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_available() {
            // SAFETY: `sha_ni_available` confirmed every feature
            // `shani::compress` enables.
            unsafe { shani::compress(state, block) };
            return;
        }
        Self::compress_portable(state, block);
    }

    /// The scalar compression: the portable path and the reference every
    /// other backend is differential-tested against.
    #[inline]
    pub(crate) fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        // One round, expressed so the working variables stay in fixed
        // registers: the caller rotates the *argument order* instead of the
        // values (the new `e` lands in the old `d`, the new `a` in the old
        // `h`).
        macro_rules! rnd {
            ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident,$f:ident,$g:ident,$h:ident,$t:expr,$i:expr) => {{
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add(K[$t])
                    .wrapping_add(w[$i]);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            }};
        }
        macro_rules! rnd16 {
            ($t:expr) => {{
                rnd!(a, b, c, d, e, f, g, h, $t, 0);
                rnd!(h, a, b, c, d, e, f, g, $t + 1, 1);
                rnd!(g, h, a, b, c, d, e, f, $t + 2, 2);
                rnd!(f, g, h, a, b, c, d, e, $t + 3, 3);
                rnd!(e, f, g, h, a, b, c, d, $t + 4, 4);
                rnd!(d, e, f, g, h, a, b, c, $t + 5, 5);
                rnd!(c, d, e, f, g, h, a, b, $t + 6, 6);
                rnd!(b, c, d, e, f, g, h, a, $t + 7, 7);
                rnd!(a, b, c, d, e, f, g, h, $t + 8, 8);
                rnd!(h, a, b, c, d, e, f, g, $t + 9, 9);
                rnd!(g, h, a, b, c, d, e, f, $t + 10, 10);
                rnd!(f, g, h, a, b, c, d, e, $t + 11, 11);
                rnd!(e, f, g, h, a, b, c, d, $t + 12, 12);
                rnd!(d, e, f, g, h, a, b, c, $t + 13, 13);
                rnd!(c, d, e, f, g, h, a, b, $t + 14, 14);
                rnd!(b, c, d, e, f, g, h, a, $t + 15, 15);
            }};
        }
        // Advance the rolling schedule by 16: slot `i` becomes `W[t+16]`
        // (`W[t] + σ0(W[t+1]) + W[t+9] + σ1(W[t+14])`, indices mod 16 — the
        // slots left of `i` were already advanced this pass, which is
        // exactly the generation the recurrence needs).
        macro_rules! sched16 {
            () => {{
                for i in 0..16 {
                    w[i] = w[i]
                        .wrapping_add(ssig0(w[(i + 1) & 15]))
                        .wrapping_add(w[(i + 9) & 15])
                        .wrapping_add(ssig1(w[(i + 14) & 15]));
                }
            }};
        }
        rnd16!(0);
        sched16!();
        rnd16!(16);
        sched16!();
        rnd16!(32);
        sched16!();
        rnd16!(48);
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                Self::compress(&mut self.state, &block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Everything landed in the partial buffer; do not let the
                // remainder path below clobber it.
                return;
            }
            debug_assert_eq!(self.buf_len, 0, "buffer must be drained here");
        }
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            Self::compress(&mut self.state, chunk.try_into().unwrap());
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length.
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Manual length append: bypass update's total_len accounting.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        Self::compress(&mut self.state, &block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Whether the running CPU has the SHA extensions (plus the SSE4.1 blend
/// the state shuffle uses). The probe is cached by `std`, so callers may
/// ask per call; HMAC instances still probe once at key setup.
pub(crate) fn sha_ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// SHA-256 compression on the x86 SHA extensions.
///
/// `sha256rnds2` runs two rounds on a state split across two registers in
/// the instruction's `ABEF`/`CDGH` word order, taking `W[t] + K[t]` for
/// both rounds in the low 64 bits of its third operand. `sha256msg1` and
/// `sha256msg2` compute the σ0 and σ1 halves of the message schedule four
/// words at a time; the `W[t-7]` term in between is an `alignr`.
#[cfg(target_arch = "x86_64")]
pub(crate) mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// `K[t..t+4]` as one vector (lane `i` holds `K[t+i]`).
    #[inline(always)]
    unsafe fn k4(t: usize) -> __m128i {
        _mm_set_epi32(
            K[t + 3] as i32,
            K[t + 2] as i32,
            K[t + 1] as i32,
            K[t] as i32,
        )
    }

    /// One compression over `block`, bit-identical to
    /// [`super::Sha256::compress_portable`].
    ///
    /// # Safety
    /// The `sha`, `sse2`, `ssse3` and `sse4.1` target features must be
    /// available (runtime-detected by [`super::sha_ni_available`], never
    /// assumed).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(crate) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte-swap mask: message words are big-endian, lanes little-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // [A B C D] [E F G H] -> [A B E F] [C D G H], the rnds2 operand
        // order (most significant lane first).
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let abef_in = _mm_alignr_epi8(cdab, efgh, 8);
        let cdgh_in = _mm_blend_epi16(efgh, cdab, 0xF0);
        let mut abef = abef_in;
        let mut cdgh = cdgh_in;

        // Four rounds on the schedule quad `$w` = W[t..t+4].
        macro_rules! rounds4 {
            ($w:expr, $t:expr) => {{
                let wk = _mm_add_epi32($w, k4($t));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }
        // Finishes the quad `$next` (already through msg1) from the two
        // quads before it: adds W[t-7] and the σ1 half.
        macro_rules! msg2 {
            ($next:ident, $cur:ident, $prev:ident) => {
                $next = _mm_sha256msg2_epu32(
                    _mm_add_epi32($next, _mm_alignr_epi8($cur, $prev, 4)),
                    $cur,
                )
            };
        }
        // Starts the quad 16 words past `$prev`: W[t-16] + σ0(W[t-15]).
        macro_rules! msg1 {
            ($prev:ident, $cur:ident) => {
                $prev = _mm_sha256msg1_epu32($prev, $cur)
            };
        }

        // A macro, not a closure: closures do not inherit `target_feature`.
        macro_rules! load {
            ($i:expr) => {
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * $i).cast()), bswap)
            };
        }
        let mut w0 = load!(0);
        let mut w1 = load!(1);
        let mut w2 = load!(2);
        let mut w3 = load!(3);

        rounds4!(w0, 0);
        rounds4!(w1, 4);
        msg1!(w0, w1);
        rounds4!(w2, 8);
        msg1!(w1, w2);
        rounds4!(w3, 12);
        msg2!(w0, w3, w2);
        msg1!(w2, w3);
        // Steady state: each quad finishes the next one and starts the one
        // three ahead.
        macro_rules! quad {
            ($t:expr, $cur:ident, $prev:ident, $next:ident) => {{
                rounds4!($cur, $t);
                msg2!($next, $cur, $prev);
                msg1!($prev, $cur);
            }};
        }
        quad!(16, w0, w3, w1);
        quad!(20, w1, w0, w2);
        quad!(24, w2, w1, w3);
        quad!(28, w3, w2, w0);
        quad!(32, w0, w3, w1);
        quad!(36, w1, w0, w2);
        quad!(40, w2, w1, w3);
        quad!(44, w3, w2, w0);
        quad!(48, w0, w3, w1);
        rounds4!(w1, 52);
        msg2!(w2, w1, w0);
        rounds4!(w2, 56);
        msg2!(w3, w2, w1);
        rounds4!(w3, 60);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
        // Back to [A B C D] [E F G H].
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// SHA-NI differential: 20 000 random (state, block) pairs must
    /// compress bit-identically on SHA-NI and on the portable rounds.
    #[test]
    fn sha_ni_compress_matches_portable_on_20k_random_pairs() {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_available() {
            let mut x = 0x5a17_c0de_u64;
            let mut next = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 32) as u32
            };
            for i in 0..20_000 {
                let state: [u32; 8] = core::array::from_fn(|_| next());
                let block: [u8; 64] = core::array::from_fn(|_| next() as u8);
                let mut portable = state;
                Sha256::compress_portable(&mut portable, &block);
                let mut hw = state;
                // SAFETY: guarded by the `sha_ni_available` probe above.
                unsafe { shani::compress(&mut hw, &block) };
                assert_eq!(hw, portable, "pair {i}");
            }
            return;
        }
        println!("skipped: host lacks sha");
    }

    /// FIPS-180-4 long-message vector: one million 'a's — 15,625 straight
    /// compression rounds, the regression guard for the unrolled rewrite.
    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    /// Feeding a message one byte at a time must match the one-shot digest
    /// across every buffer-boundary alignment the streaming path has.
    #[test]
    fn one_byte_at_a_time_matches_oneshot() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 129, 300] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "len={len}");
        }
    }

    /// Irregular chunk sizes (prime-ish strides crossing the 64 B block
    /// boundary in every phase) must match the one-shot digest.
    #[test]
    fn chunked_updates_match_oneshot() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        for stride in [1usize, 3, 7, 31, 61, 64, 67, 256, 1000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(stride) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "stride={stride}");
        }
    }
}
