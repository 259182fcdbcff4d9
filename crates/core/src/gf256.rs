//! Arithmetic over the finite field GF(2^8).
//!
//! The field underlying the random-linear-network-coding layer
//! ([`crate::rlnc`]). Elements are bytes; addition is XOR (so addition
//! and subtraction coincide and vectorize trivially), and
//! multiplication works through compile-time log/exp tables for the
//! primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`, the
//! classic Reed–Solomon modulus) with generator `2`.
//!
//! The slice operations are the hot path of Gaussian elimination and
//! packet mixing. The `c = 0` and `c = 1` multiplier cases reduce to a
//! no-op and a plain XOR loop (which the compiler auto-vectorizes).
//! Every other multiplier reads its row of a 64 KiB product table
//! `MUL[c][x] = c · x`, built at compile time, so a call costs nothing
//! to set up and the loop is one lookup and XOR per byte. On x86-64
//! CPUs with AVX2, slices of at least 32 bytes go through a
//! split-nibble kernel instead: `c · x = c · (x & 0x0F) ^ c · (x &
//! 0xF0)`, so two 16-entry tables cut from `MUL[c]` and two `pshufb`
//! byte shuffles multiply 32 bytes at a time. The kernel is chosen at
//! run time; other CPUs and architectures keep the table loop, which
//! gives the same bytes.
//!
//! # Examples
//!
//! ```
//! use ocd_core::gf256;
//!
//! let a = 0x53;
//! assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
//! assert_eq!(gf256::add(a, a), 0, "characteristic 2: x + x = 0");
//! ```

/// The primitive polynomial: `x^8 + x^4 + x^3 + x^2 + 1`.
pub const POLY: u16 = 0x11D;

/// `EXP[i] = g^i` for generator `g = 2`, doubled so `EXP[log a + log b]`
/// needs no modular reduction (indices reach at most `254 + 254`).
const EXP: [u8; 512] = TABLES.0;
/// `LOG[x] = log_g x` for `x != 0`; `LOG[0]` is unused.
const LOG: [u8; 256] = TABLES.1;

const TABLES: ([u8; 512], [u8; 256]) = build_tables();

/// `MUL[a][b] = a · b`: the whole multiplication table, 64 KiB, built
/// at compile time. Row `MUL[c]` is the product row the slice kernels
/// read for multiplier `c`.
static MUL: [[u8; 256]; 256] = build_mul();

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    (exp, log)
}

const fn build_mul() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut a = 1;
    while a < 256 {
        let mut b = 1;
        while b < 256 {
            table[a][b] = EXP[LOG[a] as usize + LOG[b] as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

/// Field addition: XOR. Subtraction is the same operation
/// (characteristic 2).
#[inline(always)]
#[must_use]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via the log/exp tables.
#[inline]
#[must_use]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on `a == 0`, which has no inverse.
#[inline]
#[must_use]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "0 has no multiplicative inverse in GF(2^8)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Field division `a / b`.
///
/// # Panics
///
/// Panics on division by zero.
#[inline]
#[must_use]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// `dst[i] ^= src[i]` — vector addition.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// `dst[i] ^= c · src[i]` — the axpy kernel of Gaussian elimination
/// and packet mixing. `c = 0` is a no-op, `c = 1` a plain XOR loop;
/// other multipliers take the AVX2 kernel where it runs and the slice
/// fills a vector, and the product-table loop otherwise.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_add_slice(dst: &mut [u8], c: u8, src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        0 => {}
        1 => add_slice(dst, src),
        #[cfg(target_arch = "x86_64")]
        _ if dst.len() >= simd::WIDTH && simd::available() => simd::mul_add_slice(dst, c, src),
        _ => mul_add_table(dst, c, src),
    }
}

/// `dst[i] = c · dst[i]` — row scaling. `c = 1` is a no-op; other
/// multipliers dispatch like [`mul_add_slice`].
pub fn mul_slice(dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        #[cfg(target_arch = "x86_64")]
        _ if dst.len() >= simd::WIDTH && simd::available() => simd::mul_slice(dst, c),
        _ => mul_table(dst, c),
    }
}

/// The portable [`mul_add_slice`] kernel, correct for every `c`: one
/// product-row lookup and XOR per byte.
fn mul_add_table(dst: &mut [u8], c: u8, src: &[u8]) {
    let row = &MUL[c as usize];
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= row[s as usize];
    }
}

/// The portable [`mul_slice`] kernel, correct for every `c`.
fn mul_table(dst: &mut [u8], c: u8) {
    let row = &MUL[c as usize];
    for d in dst.iter_mut() {
        *d = row[*d as usize];
    }
}

/// The AVX2 split-nibble kernels, and the only `unsafe` code in this
/// crate: `std::arch` loads and stores, and the call into code compiled
/// for a CPU feature that is checked first. Each kernel is correct for
/// every multiplier and length; the bytes past the last whole vector go
/// through the table loop.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::MUL;
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_loadu_si128,
    };

    /// Bytes per vector.
    pub(super) const WIDTH: usize = 32;

    /// Whether this CPU runs the kernels below. The answer is detected
    /// once and cached by the standard library.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// `dst[i] ^= c · src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX2 or the slices differ in length.
    pub(super) fn mul_add_slice(dst: &mut [u8], c: u8, src: &[u8]) {
        assert!(available(), "AVX2 kernel called on a CPU without AVX2");
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        // SAFETY: the assert above proved that the CPU has AVX2, the
        // one feature `mul_add_avx2` is compiled for.
        unsafe { mul_add_avx2(dst, c, src) }
    }

    /// `dst[i] = c · dst[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX2.
    pub(super) fn mul_slice(dst: &mut [u8], c: u8) {
        assert!(available(), "AVX2 kernel called on a CPU without AVX2");
        // SAFETY: the assert above proved that the CPU has AVX2, the
        // one feature `mul_avx2` is compiled for.
        unsafe { mul_avx2(dst, c) }
    }

    #[target_feature(enable = "avx2")]
    fn mul_add_avx2(dst: &mut [u8], c: u8, src: &[u8]) {
        let nibbles = Nibbles::new(c);
        let (dst_vecs, dst_tail) = dst.as_chunks_mut::<WIDTH>();
        let (src_vecs, src_tail) = src.as_chunks::<WIDTH>();
        for (d, s) in dst_vecs.iter_mut().zip(src_vecs) {
            let sum = _mm256_xor_si256(load(d), nibbles.mul(load(s)));
            store(d, sum);
        }
        super::mul_add_table(dst_tail, c, src_tail);
    }

    #[target_feature(enable = "avx2")]
    fn mul_avx2(dst: &mut [u8], c: u8) {
        let nibbles = Nibbles::new(c);
        let (vecs, tail) = dst.as_chunks_mut::<WIDTH>();
        for d in vecs {
            let product = nibbles.mul(load(d));
            store(d, product);
        }
        super::mul_table(tail, c);
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(bytes: &[u8; WIDTH]) -> __m256i {
        // SAFETY: `bytes` is 32 readable bytes, and the unaligned load
        // accepts any address.
        unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(bytes: &mut [u8; WIDTH], value: __m256i) {
        // SAFETY: `bytes` is 32 writable bytes, and the unaligned store
        // accepts any address.
        unsafe { _mm256_storeu_si256(bytes.as_mut_ptr().cast(), value) }
    }

    /// A multiplier `c` as two 16-entry product tables, copied into
    /// both 128-bit lanes: `lo[x] = c · x` and `hi[x] = c · (x << 4)`.
    #[derive(Clone, Copy)]
    struct Nibbles {
        lo: __m256i,
        hi: __m256i,
    }

    impl Nibbles {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(c: u8) -> Self {
            let row = &MUL[c as usize];
            let hi: [u8; 16] = std::array::from_fn(|x| row[x << 4]);
            // SAFETY: `row` has 256 readable bytes and `hi` 16, and the
            // unaligned loads read 16 bytes from any address.
            let (lo, hi) = unsafe {
                (
                    _mm_loadu_si128(row.as_ptr().cast()),
                    _mm_loadu_si128(hi.as_ptr().cast()),
                )
            };
            Nibbles {
                lo: _mm256_broadcastsi128_si256(lo),
                hi: _mm256_broadcastsi128_si256(hi),
            }
        }

        /// `c · x` for each of 32 bytes: split every byte into its two
        /// nibbles, look each up in its table with one `pshufb`, and XOR
        /// the halves.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn mul(self, x: __m256i) -> __m256i {
            let mask = _mm256_set1_epi8(0x0F);
            let lo = _mm256_and_si256(x, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
            _mm256_xor_si256(
                _mm256_shuffle_epi8(self.lo, lo),
                _mm256_shuffle_epi8(self.hi, hi),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_round_trip() {
        for x in 1..=255u8 {
            assert_eq!(EXP[LOG[x as usize] as usize], x);
        }
        // The doubled exp table agrees with itself mod 255.
        for i in 0..255usize {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn multiplication_axioms() {
        // Spot-check associativity and distributivity on a stride of
        // triples (the full cube is 16M cases; the stride covers every
        // residue class of each operand).
        let samples: Vec<u8> = (0u16..256).step_by(7).map(|x| x as u8).collect();
        for &a in &samples {
            for &b in &samples {
                assert_eq!(mul(a, b), mul(b, a));
                for &c in &samples {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn units_and_inverses() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn zero_has_no_inverse() {
        let _ = inv(0);
    }

    #[test]
    fn slice_kernels_match_scalar_arithmetic() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x53, 0xFF] {
            let mut dst: Vec<u8> = (0..=255).rev().collect();
            let expect: Vec<u8> = dst
                .iter()
                .zip(&src)
                .map(|(&d, &s)| add(d, mul(c, s)))
                .collect();
            mul_add_slice(&mut dst, c, &src);
            assert_eq!(dst, expect, "mul_add_slice c = {c}");

            let mut scaled = src.clone();
            mul_slice(&mut scaled, c);
            let expect: Vec<u8> = src.iter().map(|&s| mul(c, s)).collect();
            assert_eq!(scaled, expect, "mul_slice c = {c}");
        }
        let mut dst = vec![0xAA; 4];
        add_slice(&mut dst, &[0xFF, 0x00, 0xAA, 0x01]);
        assert_eq!(dst, vec![0x55, 0xAA, 0x00, 0xAB]);
    }

    #[test]
    fn product_table_matches_log_exp_multiplication() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(MUL[a as usize][b as usize], mul(a, b), "{a} · {b}");
            }
        }
    }

    /// Checks one pair of slice kernels against scalar arithmetic for
    /// every multiplier, every length in 0..=130 (across the 32-byte
    /// vector width and every tail) plus 1024 and 1031, and slices at
    /// offsets 0..=31 into larger buffers. Each (multiplier, length)
    /// pair runs four `dst` offsets, and the multipliers rotate them,
    /// so every length meets every `dst` offset; the `src` offset moves
    /// with both, so every relative misalignment occurs too.
    fn check_kernels(name: &str, mul_add: fn(&mut [u8], u8, &[u8]), scale: fn(&mut [u8], u8)) {
        const SLACK: usize = 32;
        let mut state = 0x9E37_79B9u32;
        let mut noise = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 17;
                    state ^= state << 5;
                    state as u8
                })
                .collect()
        };
        let lens: Vec<usize> = (0..=130).chain([1024, 1031]).collect();
        for c in 0..=255u8 {
            for &len in &lens {
                let src_buf = noise(len + SLACK);
                let dst_buf = noise(len + SLACK);
                for dst_off in (c as usize % 8..SLACK).step_by(8) {
                    let src_off = (dst_off * 7 + len + c as usize) % SLACK;
                    let src = &src_buf[src_off..src_off + len];
                    let mut dst = dst_buf.clone();
                    mul_add(&mut dst[dst_off..dst_off + len], c, src);
                    let mut expect = dst_buf.clone();
                    for (d, &s) in expect[dst_off..dst_off + len].iter_mut().zip(src) {
                        *d = add(*d, mul(c, s));
                    }
                    assert_eq!(
                        dst, expect,
                        "{name} mul_add: c = {c}, len = {len}, dst_off = {dst_off}"
                    );

                    let mut dst = dst_buf.clone();
                    scale(&mut dst[dst_off..dst_off + len], c);
                    let mut expect = dst_buf.clone();
                    for d in &mut expect[dst_off..dst_off + len] {
                        *d = mul(c, *d);
                    }
                    assert_eq!(
                        dst, expect,
                        "{name} mul: c = {c}, len = {len}, dst_off = {dst_off}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_kernels_match_scalar_arithmetic() {
        check_kernels("table", mul_add_table, mul_table);
    }

    /// The AVX2 kernels, called directly rather than through the
    /// dispatcher, so this and the table test cover both on a host
    /// with AVX2. Skipped where AVX2 is absent.
    #[test]
    fn simd_kernels_match_scalar_arithmetic() {
        #[cfg(target_arch = "x86_64")]
        if simd::available() {
            check_kernels("avx2", simd::mul_add_slice, simd::mul_slice);
        }
    }
}
