//! Register-blocked, row-major batched matmul micro-kernels and the
//! preallocated activation storage behind the batched [`Mlp`] paths.
//!
//! The three GEMM shapes below are exactly the ones one dense layer needs:
//!
//! * forward:       `Z[B×out]  = A[B×in] · W[out×in]ᵀ`   → [`gemm_nt`]
//! * input grads:   `Gx[B×in]  = Δ[B×out] · W[out×in]`   → [`gemm_nn`]
//!   (or only some of its columns → [`gemm_nn_cols`])
//! * weight grads:  `Gw[out×in] += Δ[B×out]ᵀ · A[B×in]`  → [`gemm_tn_acc`]
//!
//! All operands are dense row-major `&[f64]` slabs; nothing here allocates.
//!
//! Every kernel is written once over a `Lanes` register type and built
//! three times: a portable build (four scalar lanes, plain mul-then-add,
//! so it never hits the libm `fma` soft fallback), an `avx2,fma` build
//! (one 256-bit register, explicit `vfmadd`) and an `avx512f` build (one
//! 512-bit register of eight lanes, falling back to the `avx2,fma`
//! register for what is narrower than eight). The widest build the host
//! runs is detected once ([`build_name`]) and every kernel dispatches on
//! that choice. The two SIMD builds fuse every multiply-add and are
//! bitwise identical; fused results differ from unfused in final ulps, so
//! kernel output is reproducible on every FMA host (and across thread
//! counts), not between FMA and non-FMA hosts — the same caveat the rest
//! of the engine carries for wall times.
//!
//! # Order contract
//!
//! Within one build each output element is computed by one fixed sequence
//! of floating-point operations, whatever block shape or register width
//! the kernel picks for it. That makes every path below bitwise
//! interchangeable, which the oracle tests in this module pin against the
//! previous (one row, four or eight columns at a time) kernels on NaN, ±∞
//! and signed-zero inputs:
//!
//! * [`gemm_nt`]: over each `KC`-deep depth panel, four lane sums
//!   `s_q = Σ a[l]·b[l]` for `l ≡ q (mod 4)` in depth order, then
//!   `out += ((s0 + s1) + (s2 + s3)) + tail` with `tail` the scalar sum of
//!   the `k mod 4` leftover products, into a zero-filled output.
//!   *Small-k path* (`m ≥ 4`, `k < 8`: the input layers): one output
//!   column per lane (eight, then four per vector) through a transposed
//!   weight panel on the stack, so no output pays a horizontal reduction;
//!   a single row is faster without it. *Register-blocked path*
//!   (`m ≥ 2`): two rows by four columns per block, each operand load
//!   feeding two or four accumulators; an eight-lane register holds the
//!   depth quads of both rows, so a block is two rows by eight columns.
//!   *Single-row path* (`m = 1`, inference, in four-lane registers): eight
//!   then four columns per pass over the row — the same bits as the
//!   matching batched row.
//! * [`gemm_nn`] / [`gemm_tn_acc`]: for each depth quad `d..d+4` (input
//!   unit for `gemm_nn`, sample for `gemm_tn_acc`) whose four coefficients
//!   are not all zero, `o = c0·b0 + (c1·b1 + (c2·b2 + (c3·b3 + o)))`, then
//!   `o = c·b + o` per leftover depth with `c ≠ 0`. The all-zero skip (a
//!   ReLU-killed quad) is part of the contract: it decides how `-0.0`,
//!   NaN and ∞ propagate. Output rows are held in registers across the
//!   whole depth, one output column per lane: eight, then four registers
//!   at a time, then one, then a four-lane register, then one column at a
//!   time. Narrow [`gemm_tn_acc`] outputs (fewer than 16 columns: the
//!   input layers' weight gradients) instead run one output row per lane,
//!   a per-lane select standing in for the skip.
//!
//! NaN payloads (which NaN an operation with two NaN operands returns) are
//! outside the contract: x86 picks it by instruction operand order, which
//! the compiler chooses.

use crate::Mlp;
use std::ops::Range;
use std::sync::OnceLock;

/// Depth-block size of [`gemm_nt`]: the shared `k` dimension is walked in
/// panels this wide so both panel operands fit comfortably in L1/L2.
const KC: usize = 256;

/// Output rows narrower than this take [`gemm_tn_acc`]'s narrow path.
const CHUNK: usize = 16;

/// A register of `4·Q` `f64` lanes plus the scalar multiply-add of the
/// same build. Every kernel body is generic over this, so the three builds
/// share one operation order. A lane holds one output value, except in
/// [`gemm_nt`]'s depth-lane accumulators, where the register holds `Q`
/// depth quads, one per output row.
trait Lanes: Copy {
    /// Depth quads per register: 1 (four lanes) or 2 (eight lanes).
    const Q: usize;
    /// `f64` lanes per register.
    const LANES: usize = 4 * Self::Q;
    /// The four-lane register of the same build (`Self` when `Q = 1`),
    /// for what is narrower than one register.
    type Quad: Lanes;
    /// All lanes zero.
    fn zero() -> Self;
    /// `c` in every lane.
    fn splat(c: f64) -> Self;
    /// The first `LANES` values of `s`.
    fn load(s: &[f64]) -> Self;
    /// Writes the lanes over the first `LANES` values of `s`.
    fn store(self, s: &mut [f64]);
    /// The first four values of `first` in quad 0 and of `last` in quad
    /// `Q − 1`: one depth quad of each row of a `Q`-row group.
    fn load_rows(first: &[f64], last: &[f64]) -> Self;
    /// The first four values of `s` in every quad.
    fn dup_quad(s: &[f64]) -> Self;
    /// Quad `p < Q` (lanes `4p..4p + 4`).
    fn quad(self, p: usize) -> Self::Quad;
    /// Lane-wise `acc + x·y`, fused in the SIMD builds.
    fn madd(x: Self, y: Self, acc: Self) -> Self;
    /// Lane-wise `self + o`.
    fn add(self, o: Self) -> Self;
    /// Scalar `acc + x·y`, fused exactly when [`Lanes::madd`] is.
    fn madd1(x: f64, y: f64, acc: f64) -> f64;
    /// Per-lane flags for [`Lanes::select`].
    type Mask: Copy;
    /// Lanes where any of `c` is not `== 0.0` (NaN counts as nonzero).
    fn nonzero(c: &[Self]) -> Self::Mask;
    /// `yes` in the lanes `mask` flags, `no` elsewhere.
    fn select(mask: Self::Mask, yes: Self, no: Self) -> Self;

    /// The lanes, then zeros up to eight.
    #[inline(always)]
    fn lanes(self) -> [f64; 8] {
        let mut l = [0.0; 8];
        self.store(&mut l);
        l
    }

    /// Lane `4p + c` is `(q₀ + q₁) + (q₂ + q₃)` for quad `p` of `v[c]`:
    /// the lane sums of four [`gemm_nt`] accumulators, one per output
    /// column, for each of the `Q` rows they hold.
    #[inline(always)]
    fn fold_lanes(v: [Self; 4]) -> Self {
        let mut s = [0.0; 8];
        for (c, v) in v.into_iter().enumerate() {
            let l = v.lanes();
            for p in 0..Self::Q {
                let q = &l[4 * p..];
                s[4 * p + c] = (q[0] + q[1]) + (q[2] + q[3]);
            }
        }
        Self::load(&s)
    }
}

/// The portable build: four scalar lanes, mul-then-add.
#[derive(Clone, Copy)]
struct Portable([f64; 4]);

impl Lanes for Portable {
    const Q: usize = 1;
    type Quad = Self;

    #[inline(always)]
    fn zero() -> Self {
        Self([0.0; 4])
    }

    #[inline(always)]
    fn splat(c: f64) -> Self {
        Self([c; 4])
    }

    #[inline(always)]
    fn load(s: &[f64]) -> Self {
        Self(s[..4].try_into().expect("quad"))
    }

    #[inline(always)]
    fn store(self, s: &mut [f64]) {
        s[..4].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn load_rows(first: &[f64], _: &[f64]) -> Self {
        Self::load(first)
    }

    #[inline(always)]
    fn dup_quad(s: &[f64]) -> Self {
        Self::load(s)
    }

    #[inline(always)]
    fn quad(self, _: usize) -> Self {
        self
    }

    #[inline(always)]
    fn madd(x: Self, y: Self, acc: Self) -> Self {
        Self(std::array::from_fn(|l| acc.0[l] + x.0[l] * y.0[l]))
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] + o.0[l]))
    }

    #[inline(always)]
    fn madd1(x: f64, y: f64, acc: f64) -> f64 {
        acc + x * y
    }

    type Mask = [bool; 4];

    #[inline(always)]
    fn nonzero(c: &[Self]) -> [bool; 4] {
        std::array::from_fn(|l| c.iter().any(|q| q.0[l] != 0.0))
    }

    #[inline(always)]
    fn select(mask: [bool; 4], yes: Self, no: Self) -> Self {
        Self(std::array::from_fn(|l| {
            if mask[l] {
                yes.0[l]
            } else {
                no.0[l]
            }
        }))
    }
}

/// The `avx2,fma` build: one 256-bit register. Lane for lane each
/// operation computes what four scalar `mul_add`s or adds compute; the
/// explicit intrinsics guarantee 4-wide `vfmadd` (LLVM's SLP pass was
/// observed pairing portable lane loops into 128-bit ops at half
/// throughput). Only reachable through the [`Build`] dispatch, which runs
/// it on hosts with AVX2 and FMA only and is what makes executing these
/// instructions sound; the `unsafe` blocks below discharge the raw-pointer
/// obligations locally through bounds-checked four-element slices.
#[cfg(target_arch = "x86_64")]
mod avx {
    #![allow(unsafe_code)]
    use super::Lanes;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_fmadd_pd, _mm256_hadd_pd,
        _mm256_loadu_pd, _mm256_or_pd, _mm256_permute2f128_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _CMP_NEQ_UQ,
    };

    #[derive(Clone, Copy)]
    pub(super) struct Avx(pub(super) __m256d);

    impl Lanes for Avx {
        const Q: usize = 1;
        type Quad = Self;

        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX.
            Self(unsafe { _mm256_setzero_pd() })
        }

        #[inline(always)]
        fn splat(c: f64) -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX.
            Self(unsafe { _mm256_set1_pd(c) })
        }

        #[inline(always)]
        fn load(s: &[f64]) -> Self {
            let q: &[f64; 4] = s[..4].try_into().expect("quad");
            // SAFETY: `q` spans exactly the 32 bytes read; the unaligned
            // load form has no alignment requirement.
            Self(unsafe { _mm256_loadu_pd(q.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, s: &mut [f64]) {
            let q: &mut [f64; 4] = (&mut s[..4]).try_into().expect("quad");
            // SAFETY: `q` spans exactly the 32 bytes written.
            unsafe { _mm256_storeu_pd(q.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn load_rows(first: &[f64], _: &[f64]) -> Self {
            Self::load(first)
        }

        #[inline(always)]
        fn dup_quad(s: &[f64]) -> Self {
            Self::load(s)
        }

        #[inline(always)]
        fn quad(self, _: usize) -> Self {
            self
        }

        #[inline(always)]
        fn madd(x: Self, y: Self, acc: Self) -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees FMA.
            Self(unsafe { _mm256_fmadd_pd(x.0, y.0, acc.0) })
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX.
            Self(unsafe { _mm256_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn madd1(x: f64, y: f64, acc: f64) -> f64 {
            x.mul_add(y, acc)
        }

        type Mask = __m256d;

        #[inline(always)]
        fn nonzero(c: &[Self]) -> __m256d {
            // SAFETY: value-only intrinsics; the dispatch layer guarantees AVX.
            unsafe {
                let zero = _mm256_setzero_pd();
                let mut m = zero;
                for q in c {
                    m = _mm256_or_pd(m, _mm256_cmp_pd::<_CMP_NEQ_UQ>(q.0, zero));
                }
                m
            }
        }

        #[inline(always)]
        fn select(mask: __m256d, yes: Self, no: Self) -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX.
            Self(unsafe { _mm256_blendv_pd(no.0, yes.0, mask) })
        }

        /// `hadd(a, b) = [a0+a1, b0+b1, a2+a3, b2+b3]`; the two 128-bit
        /// halves of `hadd(a, b)` and `hadd(c, d)` then line up as the
        /// pair sums `[a0+a1, b0+b1, c0+c1, d0+d1]` and
        /// `[a2+a3, b2+b3, c2+c3, d2+d3]`, added last — the portable
        /// order exactly (addition of two non-NaN values commutes bitwise).
        #[inline(always)]
        fn fold_lanes(v: [Self; 4]) -> Self {
            // SAFETY: value-only intrinsics; the dispatch layer guarantees AVX.
            unsafe {
                let ab = _mm256_hadd_pd(v[0].0, v[1].0);
                let cd = _mm256_hadd_pd(v[2].0, v[3].0);
                let lo = _mm256_permute2f128_pd::<0x20>(ab, cd);
                let hi = _mm256_permute2f128_pd::<0x31>(ab, cd);
                Self(_mm256_add_pd(lo, hi))
            }
        }
    }
}

/// The `avx512f` build: one 512-bit register of eight lanes, with
/// [`avx::Avx`] as its four-lane register. Every lane runs exactly the
/// fused operation its `avx2,fma` counterpart runs, so the two builds are
/// bitwise identical. Only reachable through the [`Build`] dispatch, which
/// runs it on hosts with AVX-512F, AVX2 and FMA only and is what makes
/// executing these instructions sound; the `unsafe` blocks below discharge
/// the raw-pointer obligations locally through bounds-checked slices.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    #![allow(unsafe_code)]
    use super::{avx::Avx, Lanes};
    use std::arch::x86_64::{
        __m512d, __mmask8, _mm512_add_pd, _mm512_broadcast_f64x4, _mm512_castpd256_pd512,
        _mm512_castpd512_pd256, _mm512_cmp_pd_mask, _mm512_extractf64x4_pd, _mm512_fmadd_pd,
        _mm512_insertf64x4, _mm512_loadu_pd, _mm512_mask_blend_pd, _mm512_permutex2var_pd,
        _mm512_set1_pd, _mm512_set_epi64, _mm512_setzero_pd, _mm512_storeu_pd, _mm512_unpackhi_pd,
        _mm512_unpacklo_pd, _CMP_NEQ_UQ,
    };

    #[derive(Clone, Copy)]
    pub(super) struct Avx512(__m512d);

    impl Lanes for Avx512 {
        const Q: usize = 2;
        type Quad = Avx;

        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX-512F.
            Self(unsafe { _mm512_setzero_pd() })
        }

        #[inline(always)]
        fn splat(c: f64) -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX-512F.
            Self(unsafe { _mm512_set1_pd(c) })
        }

        #[inline(always)]
        fn load(s: &[f64]) -> Self {
            let o: &[f64; 8] = s[..8].try_into().expect("octet");
            // SAFETY: `o` spans exactly the 64 bytes read; the unaligned
            // load form has no alignment requirement.
            Self(unsafe { _mm512_loadu_pd(o.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, s: &mut [f64]) {
            let o: &mut [f64; 8] = (&mut s[..8]).try_into().expect("octet");
            // SAFETY: `o` spans exactly the 64 bytes written.
            unsafe { _mm512_storeu_pd(o.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn load_rows(first: &[f64], last: &[f64]) -> Self {
            let (lo, hi) = (Avx::load(first), Avx::load(last));
            // SAFETY: value-only intrinsics; the dispatch layer guarantees AVX-512F.
            Self(unsafe { _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(lo.0), hi.0) })
        }

        #[inline(always)]
        fn dup_quad(s: &[f64]) -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX-512F.
            Self(unsafe { _mm512_broadcast_f64x4(Avx::load(s).0) })
        }

        #[inline(always)]
        fn quad(self, p: usize) -> Avx {
            // SAFETY: value-only intrinsics; the dispatch layer guarantees AVX-512F.
            Avx(unsafe {
                if p == 0 {
                    _mm512_castpd512_pd256(self.0)
                } else {
                    _mm512_extractf64x4_pd::<1>(self.0)
                }
            })
        }

        #[inline(always)]
        fn madd(x: Self, y: Self, acc: Self) -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX-512F.
            Self(unsafe { _mm512_fmadd_pd(x.0, y.0, acc.0) })
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX-512F.
            Self(unsafe { _mm512_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn madd1(x: f64, y: f64, acc: f64) -> f64 {
            x.mul_add(y, acc)
        }

        type Mask = __mmask8;

        #[inline(always)]
        fn nonzero(c: &[Self]) -> __mmask8 {
            // SAFETY: value-only intrinsics; the dispatch layer guarantees AVX-512F.
            unsafe {
                let zero = _mm512_setzero_pd();
                let mut m = 0;
                for q in c {
                    m |= _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(q.0, zero);
                }
                m
            }
        }

        #[inline(always)]
        fn select(mask: __mmask8, yes: Self, no: Self) -> Self {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX-512F.
            Self(unsafe { _mm512_mask_blend_pd(mask, no.0, yes.0) })
        }

        /// `[v0₀, v1₀, v0₂, v1₂, …] + [v0₁, v1₁, v0₃, v1₃, …]` is the
        /// per-quad `hadd(v0, v1)` of the AVX build, and likewise for
        /// `v2, v3`; two cross-lane permutes then line up the pair sums of
        /// each quad as the AVX build's `lo` and `hi`, added last.
        #[inline(always)]
        fn fold_lanes(v: [Self; 4]) -> Self {
            // SAFETY: value-only intrinsics; the dispatch layer guarantees AVX-512F.
            unsafe {
                let ab = _mm512_add_pd(
                    _mm512_unpacklo_pd(v[0].0, v[1].0),
                    _mm512_unpackhi_pd(v[0].0, v[1].0),
                );
                let cd = _mm512_add_pd(
                    _mm512_unpacklo_pd(v[2].0, v[3].0),
                    _mm512_unpackhi_pd(v[2].0, v[3].0),
                );
                // Indices 8.. pick from `cd`.
                let lo = _mm512_permutex2var_pd(ab, _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0), cd);
                let hi =
                    _mm512_permutex2var_pd(ab, _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2), cd);
                Self(_mm512_add_pd(lo, hi))
            }
        }
    }
}

/// One compiled build of the kernels. Ordered by width: a host that runs
/// one build runs every narrower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Build {
    /// Four scalar lanes, unfused.
    Portable,
    /// One 256-bit register, fused (`avx2,fma`).
    Avx2Fma,
    /// One 512-bit register, fused (`avx512f`), bitwise [`Build::Avx2Fma`].
    Avx512,
}

impl Build {
    /// The widest build this host runs, detected on first use and cached:
    /// the build every kernel call dispatches to.
    pub(crate) fn widest() -> Build {
        static WIDEST: OnceLock<Build> = OnceLock::new();
        *WIDEST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("avx2") && has!("fma") {
                    return if has!("avx512f") {
                        Build::Avx512
                    } else {
                        Build::Avx2Fma
                    };
                }
            }
            Build::Portable
        })
    }

    /// Stable name, as reports and bench headers print it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Build::Portable => "portable",
            Build::Avx2Fma => "avx2+fma",
            Build::Avx512 => "avx512f",
        }
    }
}

/// Name of the kernel build this host dispatches to: `portable`,
/// `avx2+fma` or `avx512f`. Kernel output is bitwise the same on every
/// host but the portable one, whose unfused multiply-adds round
/// differently.
pub fn build_name() -> &'static str {
    Build::widest().name()
}

/// Evaluates `$body` in build `$build`, with `$V` naming that build's
/// [`Lanes`] type and the listed arguments in scope. The SIMD builds run
/// in `#[target_feature]` functions, so the body's inlined kernel is
/// compiled for them; the assert is what makes calling those sound.
macro_rules! dispatch {
    ($build:expr, $V:ident, ($($arg:ident: $ty:ty),* $(,)?) => $body:expr) => {{
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        fn avx2($($arg: $ty),*) {
            #[allow(dead_code)]
            type $V = avx::Avx;
            $body
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx2,fma")]
        fn avx512($($arg: $ty),*) {
            #[allow(dead_code)]
            type $V = avx512::Avx512;
            $body
        }
        let build: Build = $build;
        assert!(
            build <= Build::widest(),
            "{} kernels need CPU features this host lacks",
            build.name()
        );
        match build {
            // SAFETY: the assert above proved this host runs the build.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Build::Avx512 => unsafe { avx512($($arg),*) },
            // SAFETY: the assert above proved this host runs the build.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Build::Avx2Fma => unsafe { avx2($($arg),*) },
            _ => {
                #[allow(dead_code)]
                type $V = Portable;
                $body
            }
        }
    }};
}

/// One block of [`gemm_nt`] output over the depth panel `l0..l0 + len`:
/// rows `i..i + R`, columns `j..j + C`. A register holds the depth quads
/// of `Q` rows for one column, so the block runs `R / Q` register rows;
/// each operand load feeds `C` (left) or `R / Q` (right) accumulators.
/// When `Q > 1`, `pairs` holds the rows' depth quads interleaved as
/// [`interleave`] lays them out; otherwise it is not read.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn nt_block<V: Lanes, const R: usize, const C: usize>(
    out: &mut [f64],
    n: usize,
    a: &[f64],
    b: &[f64],
    k: usize,
    (i, j): (usize, usize),
    (l0, len): (usize, usize),
    pairs: &[f64],
) {
    let groups = R / V::Q;
    debug_assert_eq!(groups * V::Q, R);
    // Plain loops, not `array::from_fn`: a closure left out of line would
    // hide from LLVM that every slice is `len` long (here) or keep the
    // target-feature intrinsics it calls out of line (below).
    let mut ar: [&[f64]; R] = [&[]; R];
    for (r, x) in ar.iter_mut().enumerate() {
        *x = &a[(i + r) * k + l0..][..len];
    }
    let mut br: [&[f64]; C] = [&[]; C];
    for (c, x) in br.iter_mut().enumerate() {
        *x = &b[(j + c) * k + l0..][..len];
    }
    let len4 = len & !3;
    // Register row `g`'s depth quads in load order.
    let mut quads: [&[f64]; R] = [&[]; R];
    for (g, x) in quads.iter_mut().enumerate().take(groups) {
        *x = if V::Q > 1 {
            &pairs[g * V::Q * len4..][..V::Q * len4]
        } else {
            &ar[g][..len4]
        };
    }
    let mut acc = [[V::zero(); C]; R];
    let mut t = 0;
    while t < len4 {
        let mut av = [V::zero(); R];
        for (av, quads) in av.iter_mut().zip(&quads).take(groups) {
            *av = V::load(&quads[V::Q * t..V::Q * (t + 4)]);
        }
        for c in 0..C {
            let bv = V::dup_quad(&br[c][t..t + 4]);
            for g in 0..groups {
                acc[g][c] = V::madd(av[g], bv, acc[g][c]);
            }
        }
        t += 4;
    }
    let mut tail = [[0.0f64; C]; R];
    while t < len {
        for r in 0..R {
            for c in 0..C {
                tail[r][c] = V::madd1(ar[r][t], br[c][t], tail[r][c]);
            }
        }
        t += 1;
    }
    for (g, acc) in acc.iter().enumerate().take(groups) {
        let rows = i + g * V::Q..i + (g + 1) * V::Q;
        let (first, last) = (&tail[g * V::Q], &tail[g * V::Q + V::Q - 1]);
        let mut c = 0;
        while c + 4 <= C {
            let s = V::fold_lanes([acc[c], acc[c + 1], acc[c + 2], acc[c + 3]]);
            let s = s.add(V::load_rows(&first[c..c + 4], &last[c..c + 4]));
            for (p, row) in rows.clone().enumerate() {
                let or = &mut out[row * n + j + c..][..4];
                V::Quad::load(or).add(s.quad(p)).store(or);
            }
            c += 4;
        }
        while c < C {
            let l = acc[c].lanes();
            for (p, row) in rows.clone().enumerate() {
                let q = &l[4 * p..];
                out[row * n + j + c] += (q[0] + q[1]) + (q[2] + q[3]) + tail[row - i][c];
            }
            c += 1;
        }
    }
}

/// Columns `j0..` of [`gemm_nt`] for `k < 8`, `LANES` at a time through a
/// transposed weight panel, so each lane runs the scalar element order (at
/// most one depth quad, then the tail) without a horizontal reduction.
/// Returns the first column it left.
#[inline(always)]
fn nt_small_k<V: Lanes>(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    (m, k, n): (usize, usize, usize),
    j0: usize,
) -> usize {
    debug_assert!(k < 8);
    let k4 = k & !3;
    let mut j = j0;
    while j + V::LANES <= n {
        let mut wt = [V::zero(); 8];
        for (l, w) in wt.iter_mut().enumerate().take(k) {
            let mut col = [0.0; 8];
            for (c, x) in col.iter_mut().enumerate().take(V::LANES) {
                *x = b[(j + c) * k + l];
            }
            *w = V::load(&col);
        }
        for i in 0..m {
            let ar = &a[i * k..(i + 1) * k];
            let mut s = [V::zero(); 4];
            if k4 == 4 {
                for q in 0..4 {
                    s[q] = V::madd(V::splat(ar[q]), wt[q], s[q]);
                }
            }
            let mut tail = V::zero();
            for l in k4..k {
                tail = V::madd(V::splat(ar[l]), wt[l], tail);
            }
            let sum = s[0].add(s[1]).add(s[2].add(s[3])).add(tail);
            let or = &mut out[i * n + j..][..V::LANES];
            V::load(or).add(sum).store(or);
        }
        j += V::LANES;
    }
    j
}

/// Copies the depth quads of rows `i..i + R` over the panel
/// `l0..l0 + len` into `pairs`, `Q` rows per register row: register row
/// `g` starts at `g·Q·len4` and holds, per depth quad, the quad of each of
/// its rows in turn, so one load fetches what one accumulator needs.
#[inline(always)]
fn interleave<V: Lanes, const R: usize>(
    pairs: &mut [f64],
    a: &[f64],
    k: usize,
    i: usize,
    (l0, len): (usize, usize),
) {
    let len4 = len & !3;
    for r in 0..R {
        let (g, p) = (r / V::Q, r % V::Q);
        let row = &a[(i + r) * k + l0..][..len4];
        let dst = &mut pairs[g * V::Q * len4..][..V::Q * len4];
        for t in (0..len4).step_by(4) {
            dst[V::Q * t + 4 * p..][..4].copy_from_slice(&row[t..t + 4]);
        }
    }
}

/// The `R` rows starting at `i` over one depth panel: blocks of eight
/// accumulators (eight columns when one register row covers the block,
/// else four), then four-column blocks, then single columns in four-lane
/// registers (one column has too few accumulators to fill eight lanes).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn nt_rows<V: Lanes, const R: usize>(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    i: usize,
    panel: (usize, usize),
    pairs: &mut [f64],
) {
    if V::Q > 1 && n >= 4 {
        interleave::<V, R>(pairs, a, k, i, panel);
    }
    let mut j = 0;
    if R == V::Q {
        while j + 8 <= n {
            nt_block::<V, R, 8>(out, n, a, b, k, (i, j), panel, pairs);
            j += 8;
        }
    }
    while j + 4 <= n {
        nt_block::<V, R, 4>(out, n, a, b, k, (i, j), panel, pairs);
        j += 4;
    }
    while j < n {
        nt_block::<V::Quad, R, 1>(out, n, a, b, k, (i, j), panel, pairs);
        j += 1;
    }
}

#[inline(always)]
fn gemm_nt_impl<V: Lanes>(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    out[..m * n].fill(0.0);
    if m >= 4 && k < 8 {
        let j = nt_small_k::<V>(out, a, b, (m, k, n), 0);
        let j = nt_small_k::<V::Quad>(out, a, b, (m, k, n), j);
        for jj in j..n {
            for i in 0..m {
                nt_block::<V::Quad, 1, 1>(out, n, a, b, k, (i, jj), (0, k), &[]);
            }
        }
        return;
    }
    // Eight-lane builds interleave row pairs into `pairs` (see
    // [`interleave`]) for their blocks of four columns or more, and block
    // four rows by four columns.
    let mut storage: [f64; 4 * KC];
    let pairs: &mut [f64] = if V::Q > 1 && m >= 2 && n >= 4 {
        storage = [0.0; 4 * KC];
        &mut storage
    } else {
        &mut []
    };
    for l0 in (0..k).step_by(KC) {
        let panel = (l0, (l0 + KC).min(k) - l0);
        let mut i = 0;
        if V::Q > 1 {
            while i + 4 <= m {
                nt_rows::<V, 4>(out, a, b, k, n, i, panel, pairs);
                i += 4;
            }
        }
        while i + 2 <= m {
            nt_rows::<V, 2>(out, a, b, k, n, i, panel, pairs);
            i += 2;
        }
        if i < m {
            nt_rows::<V::Quad, 1>(out, a, b, k, n, i, panel, pairs);
        }
    }
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ` — the forward-pass shape, with the right
/// operand stored row-major as `n` rows of length `k` (an MLP weight
/// matrix, one row per output unit).
///
/// # Panics
///
/// Panics if any slice is shorter than its `m·k`/`n·k`/`m·n` shape.
pub fn gemm_nt(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    gemm_nt_on(Build::widest(), out, a, b, m, k, n);
}

/// [`gemm_nt`] in `build`.
///
/// # Panics
///
/// As [`gemm_nt`], and if this host cannot run `build`.
pub(crate) fn gemm_nt_on(
    build: Build,
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(
        a.len() >= m * k && b.len() >= n * k && out.len() >= m * n,
        "operand shorter than its shape"
    );
    dispatch!(build, V, (out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize)
        => gemm_nt_impl::<V>(out, a, b, m, k, n))
}

/// Runs the gradient fold of the module docs over `depth` depth rows for
/// the `W·LANES` output values in `or`, held in `W` registers throughout
/// and starting from `or` (`accumulate`) or from zero. Depth `d`
/// contributes `coef(d)` times `b[d·n + j..]`, the chunk's columns of
/// row `d` of `b`.
#[inline(always)]
fn fold_chunk<V: Lanes, const W: usize>(
    or: &mut [f64],
    accumulate: bool,
    coef: impl Fn(usize) -> f64,
    b: &[f64],
    (n, j): (usize, usize),
    depth: usize,
) {
    let l = V::LANES;
    let mut acc = [V::zero(); W];
    if accumulate {
        for (w, acc) in acc.iter_mut().enumerate() {
            *acc = V::load(&or[l * w..]);
        }
    }
    let d4 = depth & !3;
    let mut d = 0;
    while d < d4 {
        let c = [coef(d), coef(d + 1), coef(d + 2), coef(d + 3)];
        if c[0] != 0.0 || c[1] != 0.0 || c[2] != 0.0 || c[3] != 0.0 {
            let mut cv = [V::zero(); 4];
            let mut rows: [&[f64]; 4] = [&[]; 4];
            for q in 0..4 {
                cv[q] = V::splat(c[q]);
                rows[q] = &b[(d + q) * n + j..][..l * W];
            }
            for (w, acc) in acc.iter_mut().enumerate() {
                for q in (0..4).rev() {
                    *acc = V::madd(cv[q], V::load(&rows[q][l * w..]), *acc);
                }
            }
        }
        d += 4;
    }
    while d < depth {
        let c = coef(d);
        if c != 0.0 {
            let cv = V::splat(c);
            let row = &b[d * n + j..][..l * W];
            for (w, acc) in acc.iter_mut().enumerate() {
                *acc = V::madd(cv, V::load(&row[l * w..]), *acc);
            }
        }
        d += 1;
    }
    for (w, acc) in acc.iter().enumerate() {
        acc.store(&mut or[l * w..]);
    }
}

/// [`fold_chunk`] for one output value.
#[inline(always)]
fn fold_one<V: Lanes>(
    o: &mut f64,
    accumulate: bool,
    coef: impl Fn(usize) -> f64,
    b: &[f64],
    (n, j): (usize, usize),
    depth: usize,
) {
    let d4 = depth & !3;
    let mut v = if accumulate { *o } else { 0.0 };
    let mut d = 0;
    while d < d4 {
        let c = [coef(d), coef(d + 1), coef(d + 2), coef(d + 3)];
        if c[0] != 0.0 || c[1] != 0.0 || c[2] != 0.0 || c[3] != 0.0 {
            for q in (0..4).rev() {
                v = V::madd1(c[q], b[(d + q) * n + j], v);
            }
        }
        d += 4;
    }
    while d < depth {
        let c = coef(d);
        if c != 0.0 {
            v = V::madd1(c, b[d * n + j], v);
        }
        d += 1;
    }
    *o = v;
}

/// The gradient fold over columns `cols` of one output row: chunks of
/// eight, four and one registers, then one four-lane register, then
/// single columns.
#[inline(always)]
fn fold_row<V: Lanes>(
    or: &mut [f64],
    cols: Range<usize>,
    accumulate: bool,
    coef: impl Fn(usize) -> f64 + Copy,
    b: &[f64],
    n: usize,
    depth: usize,
) {
    let l = V::LANES;
    let mut j = cols.start;
    while j + 8 * l <= cols.end {
        fold_chunk::<V, 8>(&mut or[j..], accumulate, coef, b, (n, j), depth);
        j += 8 * l;
    }
    while j + 4 * l <= cols.end {
        fold_chunk::<V, 4>(&mut or[j..], accumulate, coef, b, (n, j), depth);
        j += 4 * l;
    }
    while j + l <= cols.end {
        fold_chunk::<V, 1>(&mut or[j..], accumulate, coef, b, (n, j), depth);
        j += l;
    }
    while j + 4 <= cols.end {
        fold_chunk::<V::Quad, 1>(&mut or[j..], accumulate, coef, b, (n, j), depth);
        j += 4;
    }
    while j < cols.end {
        fold_one::<V>(&mut or[j], accumulate, coef, b, (n, j), depth);
        j += 1;
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_nn_impl<V: Lanes>(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    cols: Range<usize>,
) {
    for i in 0..m {
        let ar = &a[i * k..(i + 1) * k];
        fold_row::<V>(
            &mut out[i * n..(i + 1) * n],
            cols.clone(),
            false,
            |d| ar[d],
            b,
            n,
            k,
        );
    }
}

/// `out[m×n] = a[m×k] · b[k×n]` — the input-gradient shape
/// (`Gx = Δ · W`). All-zero delta quads (ReLU-killed units) skip theirs.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m·k`/`k·n`/`m·n` shape.
pub fn gemm_nn(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    gemm_nn_cols(out, a, b, m, k, n, 0..n);
}

/// [`gemm_nn`] restricted to the output columns `cols`: those are written
/// with exactly the bits [`gemm_nn`] gives them, every other column of
/// `out` is left untouched. An empty range does no work.
///
/// # Panics
///
/// Panics if `cols` reaches past `n` or any slice is shorter than its
/// shape.
pub fn gemm_nn_cols(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    cols: Range<usize>,
) {
    gemm_nn_cols_on(Build::widest(), out, a, b, m, k, n, cols);
}

/// [`gemm_nn_cols`] in `build`.
///
/// # Panics
///
/// As [`gemm_nn_cols`], and if this host cannot run `build`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_nn_cols_on(
    build: Build,
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    cols: Range<usize>,
) {
    assert!(
        cols.start <= cols.end && cols.end <= n,
        "column range outside the output"
    );
    assert!(
        a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
        "operand shorter than its shape"
    );
    if cols.is_empty() {
        return;
    }
    dispatch!(build, V, (
        out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize, cols: Range<usize>,
    ) => gemm_nn_impl::<V>(out, a, b, m, k, n, cols))
}

/// Output rows `i..i + LANES`, columns `j..j + C` of a narrow
/// [`gemm_tn_acc`]. Vectors run across the rows — `LANES` adjacent
/// coefficients of one sample — so each lane is one output element's
/// fold. A lane whose quad of coefficients is all zero keeps its value
/// through a select, exactly as the row form skips the quad.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_rows<V: Lanes, const C: usize>(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    let at = |c: usize, r: usize| (i + r) * n + j + c;
    let mut acc = [V::zero(); C];
    for (c, acc) in acc.iter_mut().enumerate() {
        let mut col = [0.0; 8];
        for (r, x) in col.iter_mut().enumerate().take(V::LANES) {
            *x = out[at(c, r)];
        }
        *acc = V::load(&col);
    }
    let m4 = m & !3;
    let mut s = 0;
    while s < m4 {
        let mut cq = [V::zero(); 4];
        for (q, cq) in cq.iter_mut().enumerate() {
            *cq = V::load(&a[(s + q) * k + i..]);
        }
        let live = V::nonzero(&cq);
        for (c, acc) in acc.iter_mut().enumerate() {
            let mut v = *acc;
            for q in (0..4).rev() {
                v = V::madd(cq[q], V::splat(b[(s + q) * n + j + c]), v);
            }
            *acc = V::select(live, v, *acc);
        }
        s += 4;
    }
    while s < m {
        let cv = V::load(&a[s * k + i..]);
        let live = V::nonzero(&[cv]);
        for (c, acc) in acc.iter_mut().enumerate() {
            *acc = V::select(live, V::madd(cv, V::splat(b[s * n + j + c]), *acc), *acc);
        }
        s += 1;
    }
    for (c, acc) in acc.iter().enumerate() {
        for (r, v) in acc.lanes().into_iter().enumerate().take(V::LANES) {
            out[at(c, r)] = v;
        }
    }
}

/// The narrow [`gemm_tn_acc`] path over output rows `i0..`, `LANES` rows
/// at a time. Returns the first row it left.
#[inline(always)]
fn tn_narrow<V: Lanes>(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    (m, k, n): (usize, usize, usize),
    i0: usize,
) -> usize {
    let mut i = i0;
    while i + V::LANES <= k {
        let mut j = 0;
        while j + 4 <= n {
            tn_rows::<V, 4>(out, a, b, m, k, n, i, j);
            j += 4;
        }
        while j + 2 <= n {
            tn_rows::<V, 2>(out, a, b, m, k, n, i, j);
            j += 2;
        }
        if j < n {
            tn_rows::<V, 1>(out, a, b, m, k, n, i, j);
        }
        i += V::LANES;
    }
    i
}

#[inline(always)]
fn gemm_tn_impl<V: Lanes>(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    let mut i0 = 0;
    if n < CHUNK {
        // Narrow rows hold too few columns to keep a register chunk busy:
        // run one output row per lane instead.
        i0 = tn_narrow::<V>(out, a, b, (m, k, n), i0);
        i0 = tn_narrow::<V::Quad>(out, a, b, (m, k, n), i0);
    }
    for i in i0..k {
        fold_row::<V>(
            &mut out[i * n..(i + 1) * n],
            0..n,
            true,
            |s| a[s * k + i],
            b,
            n,
            m,
        );
    }
}

/// `out[k×n] += a[m×k]ᵀ · b[m×n]` — the weight-gradient shape
/// (`Gw += Δᵀ · A_in`), accumulating like the scalar backward does.
/// All-zero delta quads (ReLU-killed units) skip theirs.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m·k`/`m·n`/`k·n` shape.
pub fn gemm_tn_acc(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    gemm_tn_acc_on(Build::widest(), out, a, b, m, k, n);
}

/// [`gemm_tn_acc`] in `build`.
///
/// # Panics
///
/// As [`gemm_tn_acc`], and if this host cannot run `build`.
pub(crate) fn gemm_tn_acc_on(
    build: Build,
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(
        a.len() >= m * k && b.len() >= m * n && out.len() >= k * n,
        "operand shorter than its shape"
    );
    dispatch!(build, V, (out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize)
        => gemm_tn_impl::<V>(out, a, b, m, k, n))
}

/// Hoisted per-step scalars of one fused Adam walk ([`adam_walk`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamScalars {
    /// β₁ and 1 − β₁.
    pub(crate) beta1: f64,
    pub(crate) nbeta1: f64,
    /// β₂ and 1 − β₂.
    pub(crate) beta2: f64,
    pub(crate) nbeta2: f64,
    /// Bias corrections 1 − β₁ᵗ and 1 − β₂ᵗ.
    pub(crate) bias1: f64,
    pub(crate) bias2: f64,
    pub(crate) lr: f64,
    pub(crate) eps: f64,
}

#[inline(always)]
fn adam_walk_impl(s: AdamScalars, params: &mut [f64], grads: &[f64], m: &mut [f64], v: &mut [f64]) {
    for (((p, &g), mi), vi) in params
        .iter_mut()
        .zip(grads)
        .zip(m.iter_mut())
        .zip(v.iter_mut())
    {
        *mi = s.beta1 * *mi + s.nbeta1 * g;
        *vi = s.beta2 * *vi + s.nbeta2 * g * g;
        let m_hat = *mi / s.bias1;
        let v_hat = *vi / s.bias2;
        *p -= s.lr * m_hat / (v_hat.sqrt() + s.eps);
    }
}

/// One fused Adam update walk over a flat parameter slab. Elementwise
/// (no reductions, no contraction), so every build is bitwise identical —
/// the SIMD builds exist purely so LLVM emits the 4- or 8-wide
/// multiply/divide/`vsqrtpd` chain instead of the 2-wide SSE2 default.
///
/// # Panics
///
/// Panics (debug) if slab lengths disagree.
pub(crate) fn adam_walk(
    s: AdamScalars,
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    adam_walk_on(Build::widest(), s, params, grads, m, v);
}

/// [`adam_walk`] in `build`.
pub(crate) fn adam_walk_on(
    build: Build,
    s: AdamScalars,
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    debug_assert!(
        grads.len() == params.len() && m.len() == params.len() && v.len() == params.len()
    );
    dispatch!(build, V, (
        s: AdamScalars, params: &mut [f64], grads: &[f64], m: &mut [f64], v: &mut [f64],
    ) => adam_walk_impl(s, params, grads, m, v))
}

#[inline(always)]
fn blend_impl(dst: &mut [f64], src: &[f64], tau: f64) {
    let ntau = 1.0 - tau;
    for (t, s) in dst.iter_mut().zip(src) {
        *t = tau * s + ntau * *t;
    }
}

/// Polyak blend `dst = τ·src + (1 − τ)·dst`, elementwise — the target-
/// network soft update. Like [`adam_walk`], the SIMD builds change width,
/// not numerics.
///
/// # Panics
///
/// Panics (debug) if lengths disagree.
pub(crate) fn blend(dst: &mut [f64], src: &[f64], tau: f64) {
    blend_on(Build::widest(), dst, src, tau);
}

/// [`blend`] in `build`.
pub(crate) fn blend_on(build: Build, dst: &mut [f64], src: &[f64], tau: f64) {
    debug_assert_eq!(dst.len(), src.len());
    dispatch!(build, V, (dst: &mut [f64], src: &[f64], tau: f64) => blend_impl(dst, src, tau))
}

/// Per-network batched activation storage for [`Mlp::forward_batch_into`] /
/// [`Mlp::backward_batch_into`]: one `[max_batch × width]` row-major slab
/// per layer (input included) plus two delta scratch slabs for the
/// backward sweep. Everything is allocated at construction; reusing the
/// cache across training steps is what makes the hot path allocation-free.
#[derive(Debug, Clone)]
pub struct BatchCache {
    dims: Vec<usize>,
    max_batch: usize,
    /// `dims.len()` slabs: `acts[l]` holds `[max_batch × dims[l]]`.
    acts: Vec<Vec<f64>>,
    /// Backward ping/pong delta slabs, `[max_batch × max_width]` each.
    delta_a: Vec<f64>,
    delta_b: Vec<f64>,
}

impl BatchCache {
    /// Creates a cache shaped for `mlp` holding up to `max_batch` rows.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn for_mlp(mlp: &Mlp, max_batch: usize) -> Self {
        Self::for_dims(mlp.dims(), max_batch)
    }

    /// Creates a cache for the given layer widths.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or fewer than two dims are given.
    pub fn for_dims(dims: &[usize], max_batch: usize) -> Self {
        assert!(max_batch > 0, "batch capacity must be positive");
        assert!(dims.len() >= 2, "need at least input and output dims");
        let widest = dims.iter().copied().max().unwrap_or(1);
        Self {
            dims: dims.to_vec(),
            max_batch,
            acts: dims.iter().map(|&d| vec![0.0; max_batch * d]).collect(),
            delta_a: vec![0.0; max_batch * widest],
            delta_b: vec![0.0; max_batch * widest],
        }
    }

    /// Maximum number of rows per pass.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Layer widths this cache is shaped for.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The output rows of the last forward pass: `[batch × output_dim]`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` exceeds the cache capacity.
    pub fn output(&self, batch: usize) -> &[f64] {
        assert!(batch <= self.max_batch, "batch exceeds cache capacity");
        let d = *self.dims.last().expect("dims nonempty");
        &self.acts[self.dims.len() - 1][..batch * d]
    }

    /// Splits the internals for the forward/backward passes.
    pub(crate) fn parts_mut(&mut self) -> (&mut [Vec<f64>], &mut [f64], &mut [f64]) {
        (&mut self.acts, &mut self.delta_a, &mut self.delta_b)
    }
}

/// Ping-pong row storage for the zero-allocation single-sample inference
/// path ([`Mlp::forward_into`]): two rows as wide as the widest layer.
#[derive(Debug, Clone)]
pub struct ActScratch {
    pub(crate) a: Vec<f64>,
    pub(crate) b: Vec<f64>,
}

impl ActScratch {
    /// Scratch sized for `mlp` (or any network no wider than it).
    pub fn for_mlp(mlp: &Mlp) -> Self {
        Self::with_width(mlp.dims().iter().copied().max().unwrap_or(1))
    }

    /// Scratch whose rows hold `width` values.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_width(width: usize) -> Self {
        assert!(width > 0, "scratch width must be positive");
        Self {
            a: vec![0.0; width],
            b: vec![0.0; width],
        }
    }

    /// Row capacity.
    pub fn width(&self) -> usize {
        self.a.len()
    }
}

/// The previous kernels — one output row per pass, four or eight columns
/// at a time for [`gemm_nt`], rank-4 folds streamed through memory for the
/// gradient shapes — kept as the bitwise oracle of the order contract,
/// fused (the oracle of both SIMD builds) or unfused (of the portable
/// build) as the caller asks. Test-only: nothing on the hot path calls
/// them.
#[cfg(test)]
mod reference {
    use super::{Build, KC};

    /// `acc + x·y`, fused when the surrounding kernel was built for FMA.
    #[inline(always)]
    fn madd<const FMA: bool>(x: f64, y: f64, acc: f64) -> f64 {
        if FMA {
            x.mul_add(y, acc)
        } else {
            acc + x * y
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod avx {
        #![allow(unsafe_code)]
        use std::arch::x86_64::{
            __m256d, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_setzero_pd,
            _mm256_storeu_pd,
        };

        #[inline(always)]
        pub(super) fn zero() -> __m256d {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX.
            unsafe { _mm256_setzero_pd() }
        }

        #[inline(always)]
        pub(super) fn splat(c: f64) -> __m256d {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees AVX.
            unsafe { _mm256_set1_pd(c) }
        }

        #[inline(always)]
        pub(super) fn fmadd(x: __m256d, y: __m256d, acc: __m256d) -> __m256d {
            // SAFETY: value-only intrinsic; the dispatch layer guarantees FMA.
            unsafe { _mm256_fmadd_pd(x, y, acc) }
        }

        #[inline(always)]
        pub(super) fn load4(q: &[f64; 4]) -> __m256d {
            // SAFETY: a `[f64; 4]` spans exactly the 32 bytes read.
            unsafe { _mm256_loadu_pd(q.as_ptr()) }
        }

        #[inline(always)]
        pub(super) fn store4(q: &mut [f64; 4], v: __m256d) {
            // SAFETY: a `[f64; 4]` spans exactly the 32 bytes written.
            unsafe { _mm256_storeu_pd(q.as_mut_ptr(), v) }
        }
    }

    /// Extracts `s[at..at + 4]` as a fixed-size quad.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn quad(s: &[f64], at: usize) -> &[f64; 4] {
        s[at..at + 4].try_into().expect("quad")
    }

    /// Four-lane dot product of two equal-length slices. Lanes are summed
    /// `(s0 + s1) + (s2 + s3)` plus a scalar tail — the exact per-element
    /// order of one [`gemm_nt`] output column, which is what keeps the
    /// single-row forward path bit-identical to a batched row.
    #[inline(always)]
    fn dot_impl<const FMA: bool>(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut lanes = [0.0f64; 4];
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        for (ca, cb) in (&mut ac).zip(&mut bc) {
            for (lane, (x, y)) in lanes.iter_mut().zip(ca.iter().zip(cb)) {
                *lane = madd::<FMA>(*x, *y, *lane);
            }
        }
        let mut tail = 0.0;
        for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
            tail = madd::<FMA>(*x, *y, tail);
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
    }

    /// One output row of [`gemm_nt`]: `or[j] += ar · b[j]ᵀ` for every weight
    /// row `j`, four columns advancing together so each `ar` load feeds four
    /// independent four-lane chains. Column summation order is exactly
    /// [`dot_impl`]'s.
    #[inline(always)]
    fn nt_row<const FMA: bool>(or: &mut [f64], ar: &[f64], b: &[f64], k: usize, l0: usize) {
        let len = ar.len();
        let n = or.len();
        let n4 = n - n % 4;
        let mut j = 0;
        // Eight-column panels first (FMA build only): one `ar` chunk load
        // feeds eight accumulators, so the load ports stop being the
        // bottleneck. Per column the accumulation order is identical to the
        // four-column and single-column forms below.
        #[cfg(target_arch = "x86_64")]
        if FMA {
            let len4 = len & !3;
            while j + 8 <= n {
                let rows: [&[f64]; 8] = core::array::from_fn(|c| &b[(j + c) * k + l0..][..len]);
                let mut acc = [avx::zero(); 8];
                let mut t = 0;
                while t < len4 {
                    let av = avx::load4(quad(ar, t));
                    for (a, row) in acc.iter_mut().zip(rows) {
                        *a = avx::fmadd(av, avx::load4(quad(row, t)), *a);
                    }
                    t += 4;
                }
                let mut tails = [0.0f64; 8];
                while t < len {
                    let x = ar[t];
                    for (tl, row) in tails.iter_mut().zip(rows) {
                        *tl = madd::<FMA>(x, row[t], *tl);
                    }
                    t += 1;
                }
                for c in 0..8 {
                    let mut lane = [0.0f64; 4];
                    avx::store4(&mut lane, acc[c]);
                    or[j + c] += (lane[0] + lane[1]) + (lane[2] + lane[3]) + tails[c];
                }
                j += 8;
            }
        }
        while j < n4 {
            let b0 = &b[j * k + l0..j * k + l0 + len];
            let b1 = &b[(j + 1) * k + l0..(j + 1) * k + l0 + len];
            let b2 = &b[(j + 2) * k + l0..(j + 2) * k + l0 + len];
            let b3 = &b[(j + 3) * k + l0..(j + 3) * k + l0 + len];
            let mut lanes = [[0.0f64; 4]; 4];
            let len4 = len & !3;
            let mut t = 0;
            #[cfg(target_arch = "x86_64")]
            if FMA {
                let mut acc = [avx::zero(); 4];
                while t < len4 {
                    let av = avx::load4(quad(ar, t));
                    acc[0] = avx::fmadd(av, avx::load4(quad(b0, t)), acc[0]);
                    acc[1] = avx::fmadd(av, avx::load4(quad(b1, t)), acc[1]);
                    acc[2] = avx::fmadd(av, avx::load4(quad(b2, t)), acc[2]);
                    acc[3] = avx::fmadd(av, avx::load4(quad(b3, t)), acc[3]);
                    t += 4;
                }
                for (lane, a) in lanes.iter_mut().zip(acc) {
                    avx::store4(lane, a);
                }
            }
            if !FMA || cfg!(not(target_arch = "x86_64")) {
                while t < len4 {
                    let ca: &[f64; 4] = ar[t..t + 4].try_into().expect("quad");
                    let cb0: &[f64; 4] = b0[t..t + 4].try_into().expect("quad");
                    let cb1: &[f64; 4] = b1[t..t + 4].try_into().expect("quad");
                    let cb2: &[f64; 4] = b2[t..t + 4].try_into().expect("quad");
                    let cb3: &[f64; 4] = b3[t..t + 4].try_into().expect("quad");
                    for i in 0..4 {
                        lanes[0][i] = madd::<FMA>(ca[i], cb0[i], lanes[0][i]);
                        lanes[1][i] = madd::<FMA>(ca[i], cb1[i], lanes[1][i]);
                        lanes[2][i] = madd::<FMA>(ca[i], cb2[i], lanes[2][i]);
                        lanes[3][i] = madd::<FMA>(ca[i], cb3[i], lanes[3][i]);
                    }
                    t += 4;
                }
            }
            let mut tails = [0.0f64; 4];
            while t < len {
                let x = ar[t];
                tails[0] = madd::<FMA>(x, b0[t], tails[0]);
                tails[1] = madd::<FMA>(x, b1[t], tails[1]);
                tails[2] = madd::<FMA>(x, b2[t], tails[2]);
                tails[3] = madd::<FMA>(x, b3[t], tails[3]);
                t += 1;
            }
            for c in 0..4 {
                or[j + c] += (lanes[c][0] + lanes[c][1]) + (lanes[c][2] + lanes[c][3]) + tails[c];
            }
            j += 4;
        }
        for (jj, o) in or.iter_mut().enumerate().skip(n4) {
            *o += dot_impl::<FMA>(ar, &b[jj * k + l0..jj * k + l0 + len]);
        }
    }

    #[inline(always)]
    pub(super) fn gemm_nt_impl<const FMA: bool>(
        out: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        out[..m * n].fill(0.0);
        for l0 in (0..k).step_by(KC) {
            let len = (l0 + KC).min(k) - l0;
            for i in 0..m {
                let ar = &a[i * k + l0..i * k + l0 + len];
                nt_row::<FMA>(&mut out[i * n..(i + 1) * n], ar, b, k, l0);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn gemm_nt_avx(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        gemm_nt_impl::<true>(out, a, b, m, k, n);
    }

    /// `out[m×n] = a[m×k] · b[n×k]ᵀ` — the forward-pass shape, with the right
    /// operand stored row-major as `n` rows of length `k` (an MLP weight
    /// matrix, one row per output unit).
    ///
    /// # Panics
    ///
    /// Panics (debug) if any slice is shorter than its `m·k`/`n·k`/`m·n` shape.
    pub(super) fn gemm_nt(
        fused: bool,
        out: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(a.len() >= m * k && b.len() >= n * k && out.len() >= m * n);
        #[cfg(target_arch = "x86_64")]
        if fused {
            assert!(Build::widest() >= Build::Avx2Fma, "no FMA on this host");
            // SAFETY: avx2+fma presence asserted just above.
            #[allow(unsafe_code)]
            return unsafe { gemm_nt_avx(out, a, b, m, k, n) };
        }
        gemm_nt_impl::<false>(out, a, b, m, k, n);
    }
    /// The shared rank-4 row update of the gradient kernels:
    /// `or[j] = c0·b0[j] + (c1·b1[j] + (c2·b2[j] + (c3·b3[j] + or[j])))` for
    /// every `j`. The FMA build runs it 4-wide; per element both builds nest
    /// the fused adds identically, so vector and scalar tails agree bitwise.
    #[inline(always)]
    fn fold4<const FMA: bool>(
        or: &mut [f64],
        c: [f64; 4],
        b0: &[f64],
        b1: &[f64],
        b2: &[f64],
        b3: &[f64],
    ) {
        let n = or.len();
        debug_assert!(b0.len() == n && b1.len() == n && b2.len() == n && b3.len() == n);
        let mut j = 0;
        #[cfg(target_arch = "x86_64")]
        if FMA {
            let cv = [
                avx::splat(c[0]),
                avx::splat(c[1]),
                avx::splat(c[2]),
                avx::splat(c[3]),
            ];
            let n4 = n & !3;
            // Two independent quad chains per iteration so the four-deep FMA
            // dependency chain on `v` overlaps with its neighbor. Per-element
            // arithmetic order is unchanged.
            while j + 8 <= n4 {
                let mut v = avx::load4(quad(or, j));
                let mut w = avx::load4(quad(or, j + 4));
                v = avx::fmadd(cv[3], avx::load4(quad(b3, j)), v);
                w = avx::fmadd(cv[3], avx::load4(quad(b3, j + 4)), w);
                v = avx::fmadd(cv[2], avx::load4(quad(b2, j)), v);
                w = avx::fmadd(cv[2], avx::load4(quad(b2, j + 4)), w);
                v = avx::fmadd(cv[1], avx::load4(quad(b1, j)), v);
                w = avx::fmadd(cv[1], avx::load4(quad(b1, j + 4)), w);
                v = avx::fmadd(cv[0], avx::load4(quad(b0, j)), v);
                w = avx::fmadd(cv[0], avx::load4(quad(b0, j + 4)), w);
                avx::store4((&mut or[j..j + 4]).try_into().expect("quad"), v);
                avx::store4((&mut or[j + 4..j + 8]).try_into().expect("quad"), w);
                j += 8;
            }
            while j < n4 {
                let mut v = avx::load4(quad(or, j));
                v = avx::fmadd(cv[3], avx::load4(quad(b3, j)), v);
                v = avx::fmadd(cv[2], avx::load4(quad(b2, j)), v);
                v = avx::fmadd(cv[1], avx::load4(quad(b1, j)), v);
                v = avx::fmadd(cv[0], avx::load4(quad(b0, j)), v);
                avx::store4((&mut or[j..j + 4]).try_into().expect("quad"), v);
                j += 4;
            }
        }
        while j < n {
            or[j] = madd::<FMA>(
                c[0],
                b0[j],
                madd::<FMA>(
                    c[1],
                    b1[j],
                    madd::<FMA>(c[2], b2[j], madd::<FMA>(c[3], b3[j], or[j])),
                ),
            );
            j += 1;
        }
    }

    /// Rank-1 row update `or[j] += c·br[j]`, 4-wide in the FMA build.
    #[inline(always)]
    fn fold1<const FMA: bool>(or: &mut [f64], c: f64, br: &[f64]) {
        let n = or.len();
        debug_assert_eq!(br.len(), n);
        let mut j = 0;
        #[cfg(target_arch = "x86_64")]
        if FMA {
            let cv = avx::splat(c);
            let n4 = n & !3;
            while j < n4 {
                let v = avx::fmadd(cv, avx::load4(quad(br, j)), avx::load4(quad(or, j)));
                avx::store4((&mut or[j..j + 4]).try_into().expect("quad"), v);
                j += 4;
            }
        }
        while j < n {
            or[j] = madd::<FMA>(c, br[j], or[j]);
            j += 1;
        }
    }

    #[inline(always)]
    pub(super) fn gemm_nn_impl<const FMA: bool>(
        out: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        out[..m * n].fill(0.0);
        for l0 in (0..k).step_by(KC) {
            let l1 = (l0 + KC).min(k);
            let len4 = (l1 - l0) - (l1 - l0) % 4;
            for i in 0..m {
                let or = &mut out[i * n..(i + 1) * n];
                let mut l = l0;
                while l < l0 + len4 {
                    let c0 = a[i * k + l];
                    let c1 = a[i * k + l + 1];
                    let c2 = a[i * k + l + 2];
                    let c3 = a[i * k + l + 3];
                    if c0 != 0.0 || c1 != 0.0 || c2 != 0.0 || c3 != 0.0 {
                        fold4::<FMA>(
                            or,
                            [c0, c1, c2, c3],
                            &b[l * n..l * n + n],
                            &b[(l + 1) * n..(l + 1) * n + n],
                            &b[(l + 2) * n..(l + 2) * n + n],
                            &b[(l + 3) * n..(l + 3) * n + n],
                        );
                    }
                    l += 4;
                }
                while l < l1 {
                    let c = a[i * k + l];
                    if c != 0.0 {
                        fold1::<FMA>(or, c, &b[l * n..l * n + n]);
                    }
                    l += 1;
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn gemm_nn_avx(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        gemm_nn_impl::<true>(out, a, b, m, k, n);
    }

    /// `out[m×n] = a[m×k] · b[k×n]` — the input-gradient shape
    /// (`Gx = Δ · W`). Four rank-1 updates fold into each pass over an output
    /// row; all-zero delta quads (ReLU-killed units) skip theirs.
    pub(super) fn gemm_nn(
        fused: bool,
        out: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
        #[cfg(target_arch = "x86_64")]
        if fused {
            assert!(Build::widest() >= Build::Avx2Fma, "no FMA on this host");
            // SAFETY: avx2+fma presence asserted just above.
            #[allow(unsafe_code)]
            return unsafe { gemm_nn_avx(out, a, b, m, k, n) };
        }
        gemm_nn_impl::<false>(out, a, b, m, k, n);
    }

    #[inline(always)]
    pub(super) fn gemm_tn_impl<const FMA: bool>(
        out: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let m4 = m - m % 4;
        let mut s = 0;
        while s < m4 {
            let b0 = &b[s * n..s * n + n];
            let b1 = &b[(s + 1) * n..(s + 1) * n + n];
            let b2 = &b[(s + 2) * n..(s + 2) * n + n];
            let b3 = &b[(s + 3) * n..(s + 3) * n + n];
            for i in 0..k {
                let c0 = a[s * k + i];
                let c1 = a[(s + 1) * k + i];
                let c2 = a[(s + 2) * k + i];
                let c3 = a[(s + 3) * k + i];
                if c0 != 0.0 || c1 != 0.0 || c2 != 0.0 || c3 != 0.0 {
                    fold4::<FMA>(
                        &mut out[i * n..(i + 1) * n],
                        [c0, c1, c2, c3],
                        b0,
                        b1,
                        b2,
                        b3,
                    );
                }
            }
            s += 4;
        }
        while s < m {
            let br = &b[s * n..s * n + n];
            let ar = &a[s * k..(s + 1) * k];
            for (i, &c) in ar.iter().enumerate() {
                if c != 0.0 {
                    fold1::<FMA>(&mut out[i * n..(i + 1) * n], c, br);
                }
            }
            s += 1;
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn gemm_tn_avx(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        gemm_tn_impl::<true>(out, a, b, m, k, n);
    }

    /// `out[k×n] += a[m×k]ᵀ · b[m×n]` — the weight-gradient shape
    /// (`Gw += Δᵀ · A_in`), accumulating like the scalar backward does. Four
    /// samples fold into each pass over an output row; all-zero delta quads
    /// (ReLU-killed units) skip theirs.
    pub(super) fn gemm_tn_acc(
        fused: bool,
        out: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(a.len() >= m * k && b.len() >= m * n && out.len() >= k * n);
        #[cfg(target_arch = "x86_64")]
        if fused {
            assert!(Build::widest() >= Build::Avx2Fma, "no FMA on this host");
            // SAFETY: avx2+fma presence asserted just above.
            #[allow(unsafe_code)]
            return unsafe { gemm_tn_avx(out, a, b, m, k, n) };
        }
        gemm_tn_impl::<false>(out, a, b, m, k, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_nt(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    out[i * n + j] += a[i * k + l] * b[j * k + l];
                }
            }
        }
        out
    }

    fn close(x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs())),
                "entry {i}: {a} vs {b}"
            );
        }
    }

    fn ramp(len: usize, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) * scale)
            .collect()
    }

    #[test]
    fn gemm_nt_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (33, 70, 65), (7, 300, 9)] {
            let a = ramp(m * k, 0.01);
            let b = ramp(n * k, 0.02);
            let mut out = vec![f64::NAN; m * n];
            gemm_nt(&mut out, &a, &b, m, k, n);
            close(&out, &naive_nt(&a, &b, m, k, n));
        }
    }

    #[test]
    fn gemm_nn_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (4, 6, 3), (40, 64, 33), (5, 270, 8)] {
            let a = ramp(m * k, 0.01);
            let b = ramp(k * n, 0.02);
            let mut naive = vec![0.0; m * n];
            for i in 0..m {
                for l in 0..k {
                    for j in 0..n {
                        naive[i * n + j] += a[i * k + l] * b[l * n + j];
                    }
                }
            }
            let mut out = vec![f64::NAN; m * n];
            gemm_nn(&mut out, &a, &b, m, k, n);
            close(&out, &naive);
        }
    }

    #[test]
    fn gemm_tn_acc_accumulates() {
        let (m, k, n) = (9, 7, 11);
        let a = ramp(m * k, 0.05);
        let b = ramp(m * n, 0.03);
        let mut naive = vec![1.5; k * n];
        for s in 0..m {
            for i in 0..k {
                for j in 0..n {
                    naive[i * n + j] += a[s * k + i] * b[s * n + j];
                }
            }
        }
        let mut out = vec![1.5; k * n];
        gemm_tn_acc(&mut out, &a, &b, m, k, n);
        close(&out, &naive);
    }

    /// Depths and widths the oracle covers: every small-k shape, both
    /// sides of the four-lane and 16-column boundaries, and a depth that
    /// spans two [`KC`] panels.
    const KS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 257];
    const NS: [usize; 20] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 65, 128,
    ];

    /// Operands mixing ordinary values with whole zero quads, `-0.0`, ±∞
    /// and NaN. `density` picks how often the non-finite values appear (never,
    /// rarely, often), so some cases keep most outputs finite.
    fn operand(len: usize, density: usize, rng: &mut StdRng) -> Vec<f64> {
        let odds = [0, 512, 24][density];
        let mut v: Vec<f64> = (0..len)
            .map(|_| {
                if odds > 0 && rng.gen_range(0..odds) == 0 {
                    [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)]
                } else {
                    match rng.gen_range(0..12) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-2.0..2.0),
                    }
                }
            })
            .collect();
        for q in v.chunks_mut(4) {
            match rng.gen_range(0..6) {
                0 => q.fill(0.0),
                1 => q.fill(-0.0),
                _ => {}
            }
        }
        v
    }

    /// Bitwise equality, any NaN matching any NaN (payloads are outside
    /// the order contract).
    fn same_bits(got: &[f64], want: &[f64]) -> Result<(), String> {
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            if !(x.is_nan() && y.is_nan()) && x.to_bits() != y.to_bits() {
                return Err(format!(
                    "entry {i}: {x:e} ({:#x}) vs {y:e} ({:#x})",
                    x.to_bits(),
                    y.to_bits()
                ));
            }
        }
        Ok(())
    }

    type Kernel = fn(Build, &mut [f64], &[f64], &[f64], usize, usize, usize);

    /// Every build this host runs, narrowest first.
    fn available() -> Vec<Build> {
        [Build::Portable, Build::Avx2Fma, Build::Avx512]
            .into_iter()
            .filter(|&b| b <= Build::widest())
            .collect()
    }

    /// Kernel `which` (0 = nt, 1 = nn, 2 = tn) next to its reference,
    /// both run in a given build: the reference is fused exactly when the
    /// build is.
    fn builds(which: usize) -> (Kernel, Kernel) {
        match which {
            0 => (gemm_nt_on, |build, o, a, b, m, k, n| {
                reference::gemm_nt(build != Build::Portable, o, a, b, m, k, n)
            }),
            1 => (
                |build, o, a, b, m, k, n| gemm_nn_cols_on(build, o, a, b, m, k, n, 0..n),
                |build, o, a, b, m, k, n| {
                    reference::gemm_nn(build != Build::Portable, o, a, b, m, k, n)
                },
            ),
            _ => (gemm_tn_acc_on, |build, o, a, b, m, k, n| {
                reference::gemm_tn_acc(build != Build::Portable, o, a, b, m, k, n)
            }),
        }
    }

    /// Operands of kernel `which` on one shape, plus the output's initial
    /// contents.
    fn operands(
        which: usize,
        (m, k, n): (usize, usize, usize),
        density: usize,
        rng: &mut StdRng,
    ) -> [Vec<f64>; 3] {
        let (a_len, b_len, out_len) = match which {
            0 => (m * k, n * k, m * n),
            1 => (m * k, k * n, m * n),
            _ => (m * k, m * n, k * n),
        };
        let a = operand(a_len, density, rng);
        let b = operand(b_len, density, rng);
        // gemm_tn_acc accumulates, so it starts from arbitrary contents;
        // the overwriting kernels must ignore whatever is there.
        let init = operand(out_len, density, rng);
        [a, b, init]
    }

    /// Runs kernel `which` (0 = nt, 1 = nn, 2 = tn) on one shape in every
    /// build this host runs and compares every output bit with the
    /// reference.
    fn check_oracle(
        which: usize,
        m: usize,
        k: usize,
        n: usize,
        density: usize,
        seed: u64,
    ) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let [a, b, init] = operands(which, (m, k, n), density, &mut rng);
        let (new, old) = builds(which);
        for build in available() {
            let (mut got, mut want) = (init.clone(), init.clone());
            new(build, &mut got, &a, &b, m, k, n);
            old(build, &mut want, &a, &b, m, k, n);
            same_bits(&got, &want).map_err(|e| {
                format!(
                    "kernel {which} build {} m={m} k={k} n={n}: {e}",
                    build.name()
                )
            })?;
        }
        Ok(())
    }

    proptest! {
        /// Random shapes from the oracle grid, every kernel, every build.
        #[test]
        fn kernels_match_reference_bitwise(
            which in 0usize..3,
            m in 1usize..40,
            ki in 0usize..KS.len(),
            ni in 0usize..NS.len(),
            density in 0usize..3,
            seed in any::<u64>(),
        ) {
            let r = check_oracle(which, m, KS[ki], NS[ni], density, seed);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }

        /// Column-restricted input gradients carry exactly the full
        /// kernel's bits on the columns they compute and leave the rest alone.
        #[test]
        fn gemm_nn_cols_matches_full_kernel(
            m in 1usize..40,
            ki in 0usize..KS.len(),
            ni in 0usize..NS.len(),
            lo in 0usize..128,
            width in 0usize..128,
            seed in any::<u64>(),
        ) {
            let (k, n) = (KS[ki], NS[ni]);
            let start = lo % (n + 1);
            let cols = start..start + width % (n - start + 1);
            let mut rng = StdRng::seed_from_u64(seed);
            let a = operand(m * k, 1, &mut rng);
            let b = operand(k * n, 1, &mut rng);
            for build in available() {
                let mut full = vec![0.0; m * n];
                gemm_nn_cols_on(build, &mut full, &a, &b, m, k, n, 0..n);
                let mut part = vec![7.5; m * n];
                gemm_nn_cols_on(build, &mut part, &a, &b, m, k, n, cols.clone());
                for (i, (p, f)) in part.iter().zip(&full).enumerate() {
                    let want = if cols.contains(&(i % n)) { *f } else { 7.5 };
                    prop_assert!(
                        (p.is_nan() && want.is_nan()) || p.to_bits() == want.to_bits(),
                        "{} m={m} k={k} n={n} cols={cols:?} entry {i}: {p} vs {want}",
                        build.name()
                    );
                }
            }
        }
    }

    /// Degenerate shapes: empty depth, rows or columns.
    #[test]
    fn kernels_match_reference_on_empty_dimensions() {
        for which in 0..3 {
            for (m, k, n) in [(0, 3, 4), (5, 0, 4), (5, 3, 0), (4, 0, 16), (0, 0, 0)] {
                if let Err(e) = check_oracle(which, m, k, n, 1, 7) {
                    panic!("{e}");
                }
            }
        }
    }

    /// Every `k × n` of the oracle grid at row counts on both sides of the
    /// row-block, small-k and single-row thresholds.
    #[test]
    fn kernels_match_reference_on_the_whole_grid() {
        let mut seed = 0;
        for which in 0..3 {
            for m in [1, 2, 3, 4, 5, 32, 39] {
                for k in KS {
                    for n in NS {
                        seed += 1;
                        if let Err(e) = check_oracle(which, m, k, n, (seed % 3) as usize, seed) {
                            panic!("{e}");
                        }
                    }
                }
            }
        }
    }

    /// The AVX-512 build against the AVX2+FMA build, bit for bit: every
    /// kernel on the whole oracle grid (random `gemm_nn_cols` ranges
    /// included), then `adam_walk` and `blend` on every length up to 70.
    #[test]
    fn avx512_build_matches_avx2_build_bitwise() {
        if Build::widest() < Build::Avx512 {
            eprintln!("avx512_build_matches_avx2_build_bitwise: skipped, this host has no avx512f");
            return;
        }
        let (wide, narrow) = (Build::Avx512, Build::Avx2Fma);
        let mut rng = StdRng::seed_from_u64(35);
        let mut seed = 0;
        for which in 0..3 {
            for m in [1, 2, 3, 4, 5, 8, 9, 32, 39] {
                for k in KS {
                    for n in NS {
                        seed += 1;
                        let density = (seed % 3) as usize;
                        let mut orng = StdRng::seed_from_u64(seed);
                        let [a, b, init] = operands(which, (m, k, n), density, &mut orng);
                        let start = rng.gen_range(0..=n);
                        let cols = start..rng.gen_range(start..=n);
                        let (mut got, mut want) = (init.clone(), init.clone());
                        match which {
                            0 => {
                                gemm_nt_on(wide, &mut got, &a, &b, m, k, n);
                                gemm_nt_on(narrow, &mut want, &a, &b, m, k, n);
                            }
                            1 => {
                                gemm_nn_cols_on(wide, &mut got, &a, &b, m, k, n, cols.clone());
                                gemm_nn_cols_on(narrow, &mut want, &a, &b, m, k, n, cols.clone());
                            }
                            _ => {
                                gemm_tn_acc_on(wide, &mut got, &a, &b, m, k, n);
                                gemm_tn_acc_on(narrow, &mut want, &a, &b, m, k, n);
                            }
                        }
                        if let Err(e) = same_bits(&got, &want) {
                            panic!("kernel {which} m={m} k={k} n={n} cols={cols:?}: {e}");
                        }
                    }
                }
            }
        }
        let s = AdamScalars {
            beta1: 0.9,
            nbeta1: 0.1,
            beta2: 0.999,
            nbeta2: 1.0 - 0.999,
            bias1: 0.19,
            bias2: 0.002,
            lr: 1e-3,
            eps: 1e-8,
        };
        for len in 0..=70 {
            let slabs: [Vec<f64>; 4] = std::array::from_fn(|_| operand(len, 1, &mut rng));
            // Random signs in `v` make `sqrt` produce NaN here and there.
            let [p, g, m, v] = slabs;
            let (mut p1, mut m1, mut v1) = (p.clone(), m.clone(), v.clone());
            let (mut p2, mut m2, mut v2) = (p, m, v);
            adam_walk_on(wide, s, &mut p1, &g, &mut m1, &mut v1);
            adam_walk_on(narrow, s, &mut p2, &g, &mut m2, &mut v2);
            for (got, want) in [(&p1, &p2), (&m1, &m2), (&v1, &v2)] {
                if let Err(e) = same_bits(got, want) {
                    panic!("adam_walk len={len}: {e}");
                }
            }
            let (dst, src) = (operand(len, 1, &mut rng), operand(len, 1, &mut rng));
            let (mut got, mut want) = (dst.clone(), dst);
            blend_on(wide, &mut got, &src, 0.005);
            blend_on(narrow, &mut want, &src, 0.005);
            if let Err(e) = same_bits(&got, &want) {
                panic!("blend len={len}: {e}");
            }
        }
    }

    #[test]
    fn cache_shapes_follow_dims() {
        let c = BatchCache::for_dims(&[5, 64, 64, 1], 32);
        assert_eq!(c.max_batch(), 32);
        assert_eq!(c.output(32).len(), 32);
        assert_eq!(c.output(7).len(), 7);
    }

    #[test]
    #[should_panic(expected = "batch capacity must be positive")]
    fn cache_rejects_zero_batch() {
        let _ = BatchCache::for_dims(&[2, 2], 0);
    }
}
