//! Multi-lane (message-parallel) SHA-256 compression.
//!
//! The scalar compression in [`crate::sha256`] is latency-bound: every round
//! depends on the previous one, so a single message cannot use the CPU's SIMD
//! width. Independent messages can. This module runs `L` compressions in
//! lock-step with a *lane-array* data layout — each working variable is an
//! `[u32; L]` and each schedule slot an `[u32; L]` — so every round operation
//! is an elementwise loop over lanes that LLVM autovectorizes into one vector
//! instruction per lane-array op.
//!
//! Two widths are exposed, mirroring the AES-NI runtime-detection pattern in
//! [`crate::aes`]:
//!
//! * **4 lanes** — portable; the lane arrays fill one 128-bit register on
//!   every x86-64 (SSE2 is baseline) and NEON-class targets.
//! * **8 lanes** — behind an `avx2` `#[target_feature]` wrapper, selected at
//!   runtime via `is_x86_feature_detected!`; the same generic body compiled
//!   with 256-bit registers enabled.
//!
//! Callers (the HMAC batch paths in [`crate::hmac`]) dispatch on a
//! [`crate::hmac::Backend`] probed once at key setup, exactly like
//! [`crate::aes::Aes128`]'s `use_hw`. Where the CPU has SHA-NI, that probe
//! prefers one-message-at-a-time SHA-NI over either lane width.

use crate::sha256::{ssig0, ssig1, K};

/// Portable lane count: four 32-bit lanes fill one 128-bit vector register.
pub const LANES_PORTABLE: usize = 4;

/// Wide lane count: eight 32-bit lanes fill one 256-bit (AVX2) register.
pub const LANES_WIDE: usize = 8;

/// One compression round over `L` independent (state, block) pairs.
///
/// Bit-exact to `L` calls of [`crate::sha256::Sha256::compress_portable`]:
/// the lanes never mix, only the instruction scheduling is shared. Marked
/// `#[inline(always)]` so the AVX2 wrapper below inlines it and compiles the
/// body with 256-bit vectors enabled.
#[inline(always)]
// The schedule loop indexes four rotating rows of `w` at once; an iterator
// form would obscure the recurrence without helping codegen.
#[allow(clippy::needless_range_loop)]
pub(crate) fn compress_lanes<const L: usize>(states: &mut [[u32; 8]; L], blocks: &[[u8; 64]; L]) {
    // Message schedule, lane-innermost: w[t][lane].
    let mut w = [[0u32; L]; 16];
    for (t, wt) in w.iter_mut().enumerate() {
        for (l, lane) in wt.iter_mut().enumerate() {
            let o = t * 4;
            *lane = u32::from_be_bytes(blocks[l][o..o + 4].try_into().unwrap());
        }
    }
    let mut a: [u32; L] = core::array::from_fn(|l| states[l][0]);
    let mut b: [u32; L] = core::array::from_fn(|l| states[l][1]);
    let mut c: [u32; L] = core::array::from_fn(|l| states[l][2]);
    let mut d: [u32; L] = core::array::from_fn(|l| states[l][3]);
    let mut e: [u32; L] = core::array::from_fn(|l| states[l][4]);
    let mut f: [u32; L] = core::array::from_fn(|l| states[l][5]);
    let mut g: [u32; L] = core::array::from_fn(|l| states[l][6]);
    let mut h: [u32; L] = core::array::from_fn(|l| states[l][7]);
    for t in 0..64 {
        if t >= 16 {
            // Rolling 16-slot schedule, advanced elementwise per lane.
            let i = t & 15;
            for l in 0..L {
                w[i][l] = w[i][l]
                    .wrapping_add(ssig0(w[(i + 1) & 15][l]))
                    .wrapping_add(w[(i + 9) & 15][l])
                    .wrapping_add(ssig1(w[(i + 14) & 15][l]));
            }
        }
        let wt = w[t & 15];
        let mut t1 = [0u32; L];
        for l in 0..L {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            t1[l] = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(wt[l]);
        }
        let mut next_a = [0u32; L];
        for l in 0..L {
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            next_a[l] = t1[l].wrapping_add(s0).wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        e = core::array::from_fn(|l| d[l].wrapping_add(t1[l]));
        d = c;
        c = b;
        b = a;
        a = next_a;
    }
    for l in 0..L {
        states[l][0] = states[l][0].wrapping_add(a[l]);
        states[l][1] = states[l][1].wrapping_add(b[l]);
        states[l][2] = states[l][2].wrapping_add(c[l]);
        states[l][3] = states[l][3].wrapping_add(d[l]);
        states[l][4] = states[l][4].wrapping_add(e[l]);
        states[l][5] = states[l][5].wrapping_add(f[l]);
        states[l][6] = states[l][6].wrapping_add(g[l]);
        states[l][7] = states[l][7].wrapping_add(h[l]);
    }
}

/// 8-lane SHA-256 compression with explicit AVX2 intrinsics.
///
/// The portable [`compress_lanes`] relies on autovectorization, which LLVM
/// declines for the 64-round dependency chain (it keeps the lane arrays in
/// scalar registers and only vectorizes the loads). This path states the
/// lane parallelism directly: every working variable and schedule slot is one
/// `__m256i` holding the eight lanes, so each round is a fixed sequence of
/// vector ops — the same hand-over-hand structure as the scalar rounds, ×8.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use crate::sha256::K;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    /// `x >>> R` on all eight lanes. The shift intrinsics only accept
    /// standalone const arguments, so the complement `L = 32 − R` is a second
    /// parameter rather than an expression.
    #[inline(always)]
    unsafe fn rotr<const R: i32, const L: i32>(x: __m256i) -> __m256i {
        debug_assert_eq!(R + L, 32);
        _mm256_or_si256(_mm256_srli_epi32(x, R), _mm256_slli_epi32(x, L))
    }

    #[inline(always)]
    unsafe fn add(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }

    /// σ0 across lanes: `(x >>> 7) ^ (x >>> 18) ^ (x >> 3)`.
    #[inline(always)]
    unsafe fn ssig0v(x: __m256i) -> __m256i {
        _mm256_xor_si256(
            _mm256_xor_si256(rotr::<7, 25>(x), rotr::<18, 14>(x)),
            _mm256_srli_epi32(x, 3),
        )
    }

    /// σ1 across lanes: `(x >>> 17) ^ (x >>> 19) ^ (x >> 10)`.
    #[inline(always)]
    unsafe fn ssig1v(x: __m256i) -> __m256i {
        _mm256_xor_si256(
            _mm256_xor_si256(rotr::<17, 15>(x), rotr::<19, 13>(x)),
            _mm256_srli_epi32(x, 10),
        )
    }

    /// Loads one `[u32; 8]` gather as a lane vector.
    #[inline(always)]
    unsafe fn load(words: &[u32; 8]) -> __m256i {
        _mm256_loadu_si256(words.as_ptr() as *const __m256i)
    }

    /// Eight compressions in lock-step, bit-exact to eight scalar
    /// [`crate::sha256::Sha256::compress_portable`] calls.
    ///
    /// # Safety
    /// The `avx2` target feature must be available (runtime-detected by the
    /// caller via [`super::wide_lanes_available`], never assumed).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn compress8(states: &mut [[u32; 8]; 8], blocks: &[[u8; 64]; 8]) {
        // Transpose message words and chaining values into lane vectors.
        let mut w = [_mm256_setzero_si256(); 16];
        for (t, wt) in w.iter_mut().enumerate() {
            let mut lanes = [0u32; 8];
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = u32::from_be_bytes(blocks[l][t * 4..t * 4 + 4].try_into().unwrap());
            }
            *wt = load(&lanes);
        }
        let mut init = [_mm256_setzero_si256(); 8];
        for (i, v) in init.iter_mut().enumerate() {
            let mut lanes = [0u32; 8];
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = states[l][i];
            }
            *v = load(&lanes);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = init;
        for t in 0..64 {
            if t >= 16 {
                let i = t & 15;
                w[i] = add(
                    add(w[i], ssig0v(w[(i + 1) & 15])),
                    add(w[(i + 9) & 15], ssig1v(w[(i + 14) & 15])),
                );
            }
            let s1 = _mm256_xor_si256(
                _mm256_xor_si256(rotr::<6, 26>(e), rotr::<11, 21>(e)),
                rotr::<25, 7>(e),
            );
            let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
            let t1 = add(
                add(add(h, s1), add(ch, _mm256_set1_epi32(K[t] as i32))),
                w[t & 15],
            );
            let s0 = _mm256_xor_si256(
                _mm256_xor_si256(rotr::<2, 30>(a), rotr::<13, 19>(a)),
                rotr::<22, 10>(a),
            );
            let maj = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
                _mm256_and_si256(b, c),
            );
            let t2 = add(s0, maj);
            h = g;
            g = f;
            f = e;
            e = add(d, t1);
            d = c;
            c = b;
            b = a;
            a = add(t1, t2);
        }
        let fin = [a, b, c, d, e, f, g, h];
        for (i, v) in fin.iter().enumerate() {
            let mut lanes = [0u32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, add(init[i], *v));
            for (l, lane) in lanes.iter().enumerate() {
                states[l][i] = *lane;
            }
        }
    }
}

/// Whether the running CPU supports the 8-lane (AVX2) path.
pub fn wide_lanes_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{Sha256, H0};

    /// Lane-array compression must be bit-exact to L scalar compressions on
    /// every lane, for both supported widths.
    #[test]
    fn lanes_match_scalar_compression() {
        fn check<const L: usize>() {
            let mut blocks = [[0u8; 64]; L];
            let mut states: [[u32; 8]; L] = [H0; L];
            for (l, block) in blocks.iter_mut().enumerate() {
                for (i, byte) in block.iter_mut().enumerate() {
                    *byte = (l * 131 + i * 37 + 5) as u8;
                }
                // Distinct starting states per lane too.
                for (i, word) in states[l].iter_mut().enumerate() {
                    *word = word.wrapping_add((l * 1000 + i) as u32);
                }
            }
            let mut expect = states;
            for l in 0..L {
                Sha256::compress_portable(&mut expect[l], &blocks[l]);
            }
            compress_lanes(&mut states, &blocks);
            assert_eq!(states, expect, "L={L}");
        }
        check::<1>();
        check::<4>();
        check::<8>();
    }

    /// The AVX2 intrinsic compression must be bit-exact to the portable
    /// lane compression (and hence to the scalar path).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_compress_matches_portable() {
        if !wide_lanes_available() {
            println!("skipped: host lacks avx2");
            return;
        }
        let blocks: [[u8; 64]; 8] =
            core::array::from_fn(|l| core::array::from_fn(|i| (l * 97 + i * 13 + 1) as u8));
        let mut portable: [[u32; 8]; 8] =
            core::array::from_fn(|l| core::array::from_fn(|i| H0[i].wrapping_add(l as u32)));
        let mut wide = portable;
        compress_lanes::<8>(&mut portable, &blocks);
        // SAFETY: guarded by the runtime feature probe above.
        unsafe { avx2::compress8(&mut wide, &blocks) };
        assert_eq!(portable, wide);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_lanes_probe_is_stable() {
        // The probe must be deterministic: HMAC instances cache it at key
        // setup and dispatch on the cached flag.
        assert_eq!(wide_lanes_available(), wide_lanes_available());
    }
}
