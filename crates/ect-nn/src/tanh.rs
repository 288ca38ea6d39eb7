//! `tanh` for the activation layers, bit-identical to glibc's and
//! vectorised.
//!
//! # Provenance
//!
//! This is a port of glibc 2.36's x86_64 `tanh` (`sysdeps/ieee754/dbl-64/
//! s_tanh.c`, the fdlibm algorithm) together with `__expm1_fma`, the
//! `expm1` variant glibc's IFUNC picks on CPUs with FMA. That pair is what
//! `f64::tanh` computed on the hosts where this crate's golden checksums
//! were pinned, so the port keeps every trained weight bit for bit.
//! `__expm1_fma` is `s_expm1.c` built with FMA contraction; the port fuses
//! exactly the operations GCC fused there and rounds every other one on
//! its own:
//!
//! * `hi = fma(−k, ln2_hi, x)`;
//! * the polynomial `R1 = fma(hxs, Q1, 1)`, `R2 = fma(hxs, Q3, Q2)`,
//!   `R3 = fma(hxs, Q5, Q4)`, `r1 = fma(h4, R3, fma(h2, R2, R1))`;
//! * `t = fma(−r1, hfx, 3)` and the divisor `fma(−x, t, 6)`;
//! * `fma(x, e, −hxs)` for `k = 0`, `fma(x, e − c, −c)` otherwise;
//! * `fma(x − e, 0.5, −0.5)` for `k = −1` and `fma(x − e, 2, 1)` for
//!   `k = 1`.
//!
//! The `tanh` wrapper itself is not fused.
//!
//! # Branch table
//!
//! For `|x| < 1`, `tanh(x) = −t / (t + 2)` with `t = expm1(−2|x|)`. For
//! `1 ≤ |x| < 22`, it is `1 − 2 / (t + 2)` with `t = expm1(2|x|)`. The sign
//! of `x` is put back last. `expm1(u)` reduces `u = k·ln2 + r` and then
//! takes one of these forms:
//!
//! | `u` (by the high word of `|u|`) | `k`                        | result                          |
//! |---------------------------------|----------------------------|---------------------------------|
//! | `|u| ≤ 0.5 ln2`                 | 0                          | `r − (r·e − hxs)`               |
//! | `0.5 ln2 < |u| < 1.5 ln2`       | ±1                         | `(r − e)/2 − 1/2`, `1 + 2(r − e)` |
//! | otherwise                       | `trunc(u/ln2 ± 1/2)`       | by `k`:                          |
//! |                                 | `k ≤ −2` or `k > 56`       | `(1 − (e − r))·2ᵏ − 1`          |
//! |                                 | `2 ≤ k < 20`               | `((1 − 2⁻ᵏ) − (e − r))·2ᵏ`      |
//! |                                 | `20 ≤ k ≤ 56`              | `((r − (e + 2⁻ᵏ)) + 1)·2ᵏ`      |
//!
//! `tanh` passes `u` in `(−2, −2⁻⁵⁴]` or `[2, 44)`, so `expm1`'s overflow
//! and tiny-argument branches never run and are left out. Scaling by `2ᵏ`
//! is the multiplication glibc performs by adding `k` to the exponent
//! field: both are exact for these arguments. `tanh` itself returns `x`
//! for `|x| < 2⁻⁵⁵` (including `±0` and subnormals) and `±1` for
//! `|x| ≥ 22` and `±∞`.
//!
//! # Vectorisation and dispatch
//!
//! [`tanh_in_place`] evaluates a whole slice without branches: every lane
//! computes every case above and the result is picked per lane with
//! selects, with one division shared by both `tanh` forms. The body is
//! compiled three times: 8 lanes wide under `#[target_feature(enable =
//! "avx512f")]`, 4 wide under `avx2,fma`, and 1 wide for the baseline
//! target. Each call picks the widest copy the CPU supports at run time,
//! like the products in [`crate::matrix`]. There is no build-time switch.
//!
//! # Bit contract
//!
//! Fused steps use [`f64::mul_add`], which is correctly rounded on every
//! target: a hardware FMA where one is compiled in, a correctly rounded
//! library `fma` otherwise. Every other step is a single IEEE operation.
//! So every copy, on every CPU, returns the same bits as glibc 2.36's
//! `tanh` on an FMA CPU; results no longer depend on the linked libm or on
//! the CPU. The tests pin this against a table captured from that libm
//! (`tanh/golden.rs`) and check each compiled copy against the 1-wide one.
//! NaN payloads are not pinned: a NaN input gives some NaN.

/// `ln 2`, high part: its low 32 bits are zero, so `k · LN2_HI` is exact.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1 / ln 2`.
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// Scaled `expm1` polynomial coefficients.
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);
/// The smallest `|u|` whose high word exceeds `0x3fd62e42` (`≈ 0.5 ln2`).
const HALF_LN2_BOUND: f64 = f64::from_bits(0x3fd6_2e43_0000_0000);
/// The smallest `|u|` whose high word reaches `0x3ff0a2b2` (`≈ 1.5 ln2`).
const THREE_HALVES_LN2_BOUND: f64 = f64::from_bits(0x3ff0_a2b2_0000_0000);
/// `2⁻⁵⁵`: below it `tanh(x)` rounds to `x`.
const TINY: f64 = f64::from_bits(0x3c80_0000_0000_0000);
/// `2⁵² + 2⁵¹`: adding it to a small integral `f64` leaves the integer in
/// the low bits of the sum.
const INT_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Lanes per block in the AVX-512 copy.
#[cfg(target_arch = "x86_64")]
const AVX512_LANES: usize = 8;
/// Lanes per block in the AVX2 copy.
#[cfg(target_arch = "x86_64")]
const AVX2_LANES: usize = 4;

/// Replaces every element of `values` with its `tanh`, on the widest
/// kernel copy the CPU supports.
pub(crate) fn tanh_in_place(values: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the running CPU supports AVX-512F (detected just above).
            unsafe { run_avx512(values) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the running CPU supports AVX2 and FMA (detected just
            // above).
            unsafe { run_avx2(values) };
            return;
        }
    }
    run_portable(values);
}

/// The port compiled 1 wide for the baseline target.
fn run_portable(values: &mut [f64]) {
    slice_body::<1>(values);
}

/// The port compiled 4 wide with AVX2 and FMA enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2(values: &mut [f64]) {
    slice_body::<AVX2_LANES>(values);
}

/// The port compiled 8 wide with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512(values: &mut [f64]) {
    slice_body::<AVX512_LANES>(values);
}

/// Whole blocks of `W` lanes, then the tail padded out to one block.
#[inline(always)]
fn slice_body<const W: usize>(values: &mut [f64]) {
    let mut blocks = values.chunks_exact_mut(W);
    for block in &mut blocks {
        tanh_block::<W>(block.try_into().expect("block width"));
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let mut block = [0.0; W];
        block[..tail.len()].copy_from_slice(tail);
        tanh_block(&mut block);
        tail.copy_from_slice(&block[..tail.len()]);
    }
}

/// One block of lanes; the lane body has no branches, so this compiles to
/// `W`-wide vector code.
#[inline(always)]
fn tanh_block<const W: usize>(block: &mut [f64; W]) {
    for x in block.iter_mut() {
        *x = tanh_lane(*x);
    }
}

/// `tanh` of one lane (see the module docs for the branch table).
#[inline(always)]
fn tanh_lane(x: f64) -> f64 {
    let ax = x.abs();
    let big = ax >= 1.0;
    let t = expm1_lane(if big { 2.0 } else { -2.0 } * ax);
    // −t/(t + 2) below 1, 1 − 2/(t + 2) from 1 on: one division for both.
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // `>=` keeps a NaN on the computed path.
    let z = if ax >= 22.0 { 1.0 } else { z };
    if ax < TINY {
        x
    } else {
        z.copysign(x)
    }
}

/// glibc's `__expm1_fma` on the arguments [`tanh_lane`] passes (see the
/// module docs).
#[inline(always)]
fn expm1_lane(x: f64) -> f64 {
    let ax = x.abs();
    let k = if ax < HALF_LN2_BOUND {
        0.0
    } else if ax < THREE_HALVES_LN2_BOUND {
        1.0f64.copysign(x)
    } else {
        (INV_LN2 * x + 0.5f64.copysign(x)).trunc()
    };
    // x = k·ln2 + r with r = hi − lo and c the rounding error of r; k = 0
    // leaves r = x, c = 0.
    let hi = (-k).mul_add(LN2_HI, x);
    let lo = k * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = hxs.mul_add(Q1, 1.0);
    let h2 = hxs * hxs;
    let r2 = hxs.mul_add(Q3, Q2);
    let h4 = h2 * h2;
    let r3 = hxs.mul_add(Q5, Q4);
    let r1 = h4.mul_add(r3, h2.mul_add(r2, r1));
    let t = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - t) / (-r).mul_add(t, 6.0));

    let k_zero = r - r.mul_add(e, -hxs);
    let e = r.mul_add(e - c, -c) - hxs;
    let k_minus_one = (r - e).mul_add(0.5, -0.5);
    let k_one = if r < -0.25 {
        -2.0 * (e - (r + 0.5))
    } else {
        (r - e).mul_add(2.0, 1.0)
    };
    // |k| ≥ 2: build 2ᵏ and 2⁻ᵏ from k's bits.
    let k_int = (k + INT_MAGIC).to_bits().wrapping_sub(INT_MAGIC.to_bits());
    let two_k = f64::from_bits(1023u64.wrapping_add(k_int) << 52);
    let two_minus_k = f64::from_bits(1023u64.wrapping_sub(k_int) << 52);
    let far = k <= -2.0 || k > 56.0;
    let y = if far {
        1.0 - (e - r)
    } else if k < 20.0 {
        (1.0 - two_minus_k) - (e - r)
    } else {
        (r - (e + two_minus_k)) + 1.0
    };
    let k_wide = if far { y * two_k - 1.0 } else { y * two_k };

    if k == 0.0 {
        k_zero
    } else if k == -1.0 {
        k_minus_one
    } else if k == 1.0 {
        k_one
    } else {
        k_wide
    }
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use ect_types::rng::EctRng;
    use proptest::prelude::*;

    /// Runs `values` through every kernel copy directly, bypassing the
    /// runtime dispatch. Each entry is the copy's name and its output, or
    /// `None` where the CPU lacks the copy's features.
    fn all_copies(values: &[f64]) -> [(&'static str, Option<Vec<f64>>); 3] {
        let run = |copy: &dyn Fn(&mut [f64])| {
            let mut out = values.to_vec();
            copy(&mut out);
            out
        };
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512) = (
            (std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
            .then(|| {
                // SAFETY: AVX2 and FMA support were just detected.
                run(&|out| unsafe { run_avx2(out) })
            }),
            std::arch::is_x86_feature_detected!("avx512f").then(|| {
                // SAFETY: AVX-512F support was just detected.
                run(&|out| unsafe { run_avx512(out) })
            }),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512) = (None, None);
        [
            ("portable", Some(run(&|out| run_portable(out)))),
            ("avx2", avx2),
            ("avx512", avx512),
        ]
    }

    /// Bit equality, with any NaN matching any NaN (Rust does not pin NaN
    /// payloads).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn kernel_copies_match_the_glibc_golden_table() {
        let inputs: Vec<f64> = golden::GOLDEN
            .iter()
            .map(|&(x, _)| f64::from_bits(x))
            .collect();
        let copies = all_copies(&inputs);
        // Name the copies this CPU ran and skipped, so a runner without a
        // feature shows as missing coverage rather than a silent pass.
        let names = |ran: bool| {
            let copies = copies.iter().filter(|c| c.1.is_some() == ran);
            copies.map(|c| c.0).collect::<Vec<_>>()
        };
        eprintln!(
            "kernel_copies_match_the_glibc_golden_table: tanh kernel copies run: {:?}; \
             skipped (CPU lacks them): {:?}",
            names(true),
            names(false)
        );
        for (name, out) in copies {
            let Some(out) = out else { continue };
            for (&(x, want), got) in golden::GOLDEN.iter().zip(out) {
                let (x, want) = (f64::from_bits(x), f64::from_bits(want));
                assert!(
                    same(got, want),
                    "{name}: tanh({x:e} = {:#018x}) = {:#018x}, want {:#018x}",
                    x.to_bits(),
                    got.to_bits(),
                    want.to_bits()
                );
            }
        }
    }

    #[test]
    fn dispatched_entry_point_matches_the_golden_table() {
        let mut values: Vec<f64> = golden::GOLDEN
            .iter()
            .map(|&(x, _)| f64::from_bits(x))
            .collect();
        tanh_in_place(&mut values);
        for (&(_, want), got) in golden::GOLDEN.iter().zip(values) {
            assert!(same(got, f64::from_bits(want)));
        }
    }

    #[test]
    fn special_values() {
        let sub = f64::from_bits(3);
        let mut values = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            22.0,
            f64::NAN,
            -sub,
        ];
        tanh_in_place(&mut values);
        let want = [0.0, -0.0, 1.0, -1.0, 1.0, f64::NAN, -sub];
        for (got, want) in values.iter().zip(want) {
            assert!(same(*got, want), "{got:e} vs {want:e}");
        }
        tanh_in_place(&mut []);
    }

    /// A slice entry for the copy-equivalence property: non-finite values,
    /// signed zeros, subnormals, branch thresholds and ordinary magnitudes.
    fn lane_value(rng: &mut EctRng) -> f64 {
        let special = [
            f64::NAN,
            f64::INFINITY,
            0.0,
            f64::from_bits(1),
            TINY,
            HALF_LN2_BOUND / 2.0,
            THREE_HALVES_LN2_BOUND / 2.0,
            1.0,
            22.0,
        ];
        let sign = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
        let magnitude = match rng.below(4) {
            0 => special[rng.below(special.len())],
            1 => rng.uniform_in(0.0, 1.0),
            _ => rng.uniform_in(0.0, 25.0),
        };
        sign * magnitude
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernel_copies_match_the_width_one_port(len in 0usize..20, seed in 0u64..1_000_000) {
            let mut rng = EctRng::seed_from(seed);
            let values: Vec<f64> = (0..len).map(|_| lane_value(&mut rng)).collect();
            let mut want = values.clone();
            run_portable(&mut want);
            for (name, out) in all_copies(&values) {
                let Some(out) = out else { continue };
                prop_assert_eq!(out.len(), len);
                for ((&x, &w), &g) in values.iter().zip(&want).zip(&out) {
                    prop_assert!(same(g, w), "{name}: tanh({x:e}) = {g:e}, width-1 port {w:e}");
                }
            }
        }
    }
}
