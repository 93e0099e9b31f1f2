//! Constellation mapping and soft demapping.
//!
//! Gray-coded BPSK/QPSK/16-QAM/64-QAM with the 802.11 normalisation factors
//! (1, 1/√2, 1/√10, 1/√42) so every constellation has unit average power.
//! Demapping produces exact max-log per-bit LLRs. The free [`demap_llrs`] /
//! [`demap_hard`] scans compare `|y − h·x|` over the whole labelled
//! constellation and are the reference; the receive chain runs
//! [`DemapTable`], which reaches the same bits from row and column minima
//! of the squared distances with one square root per bit minimum.

pub use crate::params::Modulation;
use ssync_dsp::simd::{F64x4, LANES, SIMD_ENABLED};
use ssync_dsp::Complex64;

/// Per-axis Gray-coded PAM levels for `bits_per_axis` bits, in 802.11 order.
///
/// 1 bit: `0 → −1, 1 → +1`; 2 bits: `00 → −3, 01 → −1, 11 → +1, 10 → +3`;
/// 3 bits: standard 8-level Gray ordering.
fn pam_level(bits: &[u8]) -> f64 {
    match bits {
        [b0] => (2 * b0) as f64 - 1.0,
        [b0, b1] => {
            let idx = (b0 << 1 | b1) as usize; // 00,01,11,10 -> -3,-1,1,3
            const MAP: [f64; 4] = [-3.0, -1.0, 3.0, 1.0];
            MAP[idx]
        }
        [b0, b1, b2] => {
            let idx = (b0 << 2 | b1 << 1 | b2) as usize;
            const MAP: [f64; 8] = [-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0];
            MAP[idx]
        }
        _ => unreachable!("1..=3 bits per axis"),
    }
}

/// Normalisation factor K_MOD so E[|x|²] = 1.
pub fn normalization(m: Modulation) -> f64 {
    match m {
        Modulation::Bpsk => 1.0,
        Modulation::Qpsk => 1.0 / 2f64.sqrt(),
        Modulation::Qam16 => 1.0 / 10f64.sqrt(),
        Modulation::Qam64 => 1.0 / 42f64.sqrt(),
    }
}

/// Maps `bits_per_symbol` bits to one constellation point.
///
/// # Panics
/// Panics if `bits.len() != m.bits_per_symbol()`.
pub fn map_symbol(m: Modulation, bits: &[u8]) -> Complex64 {
    assert_eq!(bits.len(), m.bits_per_symbol(), "bit group size mismatch");
    let k = normalization(m);
    match m {
        Modulation::Bpsk => Complex64::new(pam_level(&bits[..1]) * k, 0.0),
        Modulation::Qpsk => Complex64::new(pam_level(&bits[..1]) * k, pam_level(&bits[1..2]) * k),
        Modulation::Qam16 => Complex64::new(pam_level(&bits[..2]) * k, pam_level(&bits[2..4]) * k),
        Modulation::Qam64 => Complex64::new(pam_level(&bits[..3]) * k, pam_level(&bits[3..6]) * k),
    }
}

/// Maps a bit stream to constellation points; the stream length must be a
/// multiple of `bits_per_symbol`.
pub fn map_bits(m: Modulation, bits: &[u8]) -> Vec<Complex64> {
    let bps = m.bits_per_symbol();
    assert_eq!(
        bits.len() % bps,
        0,
        "bit stream not a multiple of bits/symbol"
    );
    bits.chunks(bps).map(|g| map_symbol(m, g)).collect()
}

/// The full constellation: all `2^bps` points with their bit labels.
pub fn constellation(m: Modulation) -> Vec<(Vec<u8>, Complex64)> {
    let bps = m.bits_per_symbol();
    (0..(1usize << bps))
        .map(|v| {
            let bits: Vec<u8> = (0..bps).map(|i| ((v >> (bps - 1 - i)) & 1) as u8).collect();
            let pt = map_symbol(m, &bits);
            (bits, pt)
        })
        .collect()
}

/// Exact max-log LLRs for one received symbol `y` with channel gain `h` and
/// noise variance `n0` (per complex dimension total). Convention: positive
/// LLR means bit 0 is more likely (matches [`crate::viterbi`]).
///
/// The scan equalises by comparing `y` against `h·x` for every constellation
/// point `x`, which is exact for a single-tap (per-subcarrier) channel.
pub fn demap_llrs(m: Modulation, y: Complex64, h: Complex64, n0: f64) -> Vec<f64> {
    let bps = m.bits_per_symbol();
    let points = constellation(m);
    let mut min0 = vec![f64::INFINITY; bps];
    let mut min1 = vec![f64::INFINITY; bps];
    for (bits, x) in &points {
        let d = y.dist(h * *x);
        let metric = d * d;
        for (i, &b) in bits.iter().enumerate() {
            if b == 0 {
                if metric < min0[i] {
                    min0[i] = metric;
                }
            } else if metric < min1[i] {
                min1[i] = metric;
            }
        }
    }
    let scale = 1.0 / n0.max(1e-12);
    (0..bps).map(|i| (min1[i] - min0[i]) * scale).collect()
}

/// Hard-decision demap: the bit label of the nearest constellation point
/// after equalising with `h`.
pub fn demap_hard(m: Modulation, y: Complex64, h: Complex64) -> Vec<u8> {
    constellation(m)
        .into_iter()
        .min_by(|(_, a), (_, b)| {
            y.dist(h * *a)
                .partial_cmp(&y.dist(h * *b))
                .expect("finite distances")
        })
        .map(|(bits, _)| bits)
        .expect("constellation not empty")
}

/// Largest label width: 64-QAM's six bits.
const MAX_BPS: usize = 6;

/// `(√m)²`: the metric [`demap_llrs`] compares (`d·d` with `d = √m`),
/// rebuilt from a squared distance `m`. Correctly-rounded `sqrt` and `·`
/// are monotone non-decreasing, so for any set of squared distances
/// `min f(s) = f(min s)` — the sqrt-free demap applies `f` to the
/// minima alone and gets [`demap_llrs`]'s minima bit for bit.
#[inline(always)]
fn resquare(m: f64) -> f64 {
    let d = m.sqrt();
    d * d
}

/// `v < acc ? v : acc`: one step of a strict running minimum from `+∞`,
/// which never takes a NaN.
#[inline(always)]
fn strict_min(acc: f64, v: f64) -> f64 {
    if v < acc {
        v
    } else {
        acc
    }
}

/// One bit's partition of the constellation grid: its 0-set and 1-set are
/// unions of whole rows (an I bit) or whole columns (a Q bit).
#[derive(Debug, Clone, Copy, Default)]
struct BitSplit {
    /// `true` when the bit is constant along each row.
    rows: bool,
    /// The lines (rows or columns) whose points carry bit 0.
    zero: [u8; 4],
    /// The lines whose points carry bit 1.
    one: [u8; 4],
}

/// Half-width of the band around a decision midpoint where
/// [`DemapTable::nearest`]'s per-axis slicer defers to the full scan.
const SLICE_GUARD: f64 = 1e-6;

/// Largest `|y.re|`, `|y.im|` the per-axis slicer decides; anything larger
/// (or non-finite) takes the full scan.
const SLICE_LIMIT: f64 = 1e3;

/// One axis of the constellation grid as a hard slicer sees it: the
/// decision midpoints between its sorted levels, and the grid line (row or
/// column) of each sorted level.
#[derive(Debug, Clone, Copy)]
struct AxisSlicer {
    /// Midpoints between consecutive sorted levels, ascending; one less
    /// than the level count are in use.
    mids: [f64; 7],
    /// The line of the `i`-th smallest level.
    line: [u8; 8],
}

impl AxisSlicer {
    /// The slicer for `levels[line]`, one level per grid line.
    fn new(levels: &[f64]) -> Self {
        let mut order: Vec<usize> = (0..levels.len()).collect();
        order.sort_by(|&a, &b| levels[a].total_cmp(&levels[b]));
        let mut slicer = AxisSlicer {
            mids: [0.0; 7],
            line: [0; 8],
        };
        for (i, &l) in order.iter().enumerate() {
            slicer.line[i] = l as u8;
        }
        for (mid, w) in slicer.mids.iter_mut().zip(order.windows(2)) {
            *mid = 0.5 * (levels[w[0]] + levels[w[1]]);
        }
        slicer
    }

    /// The line whose level is nearest `v`, by counting the `N` midpoints
    /// below it; `None` when `v` lies within [`SLICE_GUARD`] of a
    /// midpoint, or outside `±`[`SLICE_LIMIT`] (NaN included).
    #[inline(always)]
    fn slice<const N: usize>(&self, v: f64) -> Option<usize> {
        if v.is_nan() || v.abs() > SLICE_LIMIT {
            return None;
        }
        let mut idx = 0;
        let mut near = false;
        for &m in &self.mids[..N] {
            idx += (v > m) as usize;
            near |= (v - m).abs() < SLICE_GUARD;
        }
        (!near).then_some(self.line[idx] as usize)
    }
}

/// A precomputed constellation plus demap scratch: the allocation-free,
/// sqrt-free counterpart of [`demap_llrs`] / [`demap_hard`].
///
/// The points are stored I-major on a `rows × cols` grid (the 802.11
/// label is the I bits followed by the Q bits), so each bit's 0-set and
/// 1-set is a union of whole rows or whole columns. [`DemapTable::new`]
/// derives those partitions from the labels and asserts them. One call
/// then runs three phases, all producing [`demap_llrs`]'s exact bits:
///
/// 1. **Squared distances.** `s = |y − h·x|²` per point into a flat
///    scratch array, four points per step through [`ssync_dsp::simd`]
///    lanes — the operations of `y.dist(h·x)` in the same order, minus its
///    `sqrt`.
/// 2. **Row and column minima.** Each row's and each column's minimum `s`,
///    then each bit's two minima from its lines. Every minimum is a strict
///    `<` scan from `+∞`, so NaN is skipped as in [`demap_llrs`], and
///    `s` is never `−0`, so the minimum's bits do not depend on the scan
///    order.
/// 3. **One square root per minimum.** [`demap_llrs`] compares `d·d`
///    with `d = √s`; the demap applies that map, `(√m)²`, to the `2·bps`
///    minima only, which is exact because it is monotone.
///
/// [`DemapTable::nearest`] keeps [`demap_hard`]'s *unsquared* first-index
/// argmin: squaring can merge distinct distances at the ulp level, so it
/// takes the first point whose `√s` equals `√(min s)`, and only points
/// with `s ≤ 2·min s` can qualify, so only those pay for a `sqrt`. With
/// `h = 1` (every equalised caller) it first tries a per-axis slicer,
/// which picks the same point without touching the grid; see
/// [`DemapTable::nearest`].
#[derive(Debug, Clone)]
pub struct DemapTable {
    m: Modulation,
    /// The constellation points, I-major (point `r·cols + c`).
    xs: Vec<Complex64>,
    /// The points again in split re/im form, so the lane path loads four
    /// consecutive reals instead of deinterleaving on every call.
    xs_re: Vec<f64>,
    xs_im: Vec<f64>,
    /// Per bit position, its row or column partition.
    splits: [BitSplit; MAX_BPS],
    /// Hard slicers for the I axis (rows) and the Q axis (columns).
    slicers: [AxisSlicer; 2],
    /// Squared-distance scratch, one slot per constellation point.
    sq: Vec<f64>,
}

impl DemapTable {
    /// Builds the table for one modulation.
    ///
    /// # Panics
    /// Panics if a bit's label sets are not unions of whole rows or whole
    /// columns of the I-major grid (they are for every 802.11 mapping).
    pub fn new(m: Modulation) -> Self {
        let points = constellation(m);
        let bps = m.bits_per_symbol();
        let cols = 1usize << (bps / 2);
        let rows = points.len() / cols;
        let label = |r: usize, c: usize, i: usize| points[r * cols + c].0[i];
        let mut splits = [BitSplit::default(); MAX_BPS];
        for (i, split) in splits.iter_mut().enumerate().take(bps) {
            let along_rows = (0..rows).all(|r| (0..cols).all(|c| label(r, c, i) == label(r, 0, i)));
            let along_cols = (0..cols).all(|c| (0..rows).all(|r| label(r, c, i) == label(0, c, i)));
            assert!(
                along_rows || along_cols,
                "{m:?} bit {i}: label sets are not whole rows or columns"
            );
            split.rows = along_rows;
            let line_bits: Vec<u8> = if along_rows {
                (0..rows).map(|r| label(r, 0, i)).collect()
            } else {
                (0..cols).map(|c| label(0, c, i)).collect()
            };
            let (mut n0, mut n1) = (0, 0);
            for (line, &b) in line_bits.iter().enumerate() {
                if b == 0 {
                    split.zero[n0] = line as u8;
                    n0 += 1;
                } else {
                    split.one[n1] = line as u8;
                    n1 += 1;
                }
            }
            assert!(
                n0 == line_bits.len() / 2 && n1 == n0,
                "{m:?} bit {i}: unbalanced label sets"
            );
        }
        let xs: Vec<Complex64> = points.iter().map(|(_, x)| *x).collect();
        let row_levels: Vec<f64> = (0..rows).map(|r| xs[r * cols].re).collect();
        let col_levels: Vec<f64> = xs[..cols].iter().map(|x| x.im).collect();
        DemapTable {
            m,
            slicers: [AxisSlicer::new(&row_levels), AxisSlicer::new(&col_levels)],
            xs_re: xs.iter().map(|x| x.re).collect(),
            xs_im: xs.iter().map(|x| x.im).collect(),
            sq: vec![0.0; xs.len()],
            xs,
            splits,
        }
    }

    /// The modulation this table was built for.
    #[inline]
    pub fn modulation(&self) -> Modulation {
        self.m
    }

    /// Fills `self.sq` with `|y − h·x|²` per point. With `MIN`, also
    /// returns their minimum (a strict `<` from `+∞`, so NaN is skipped);
    /// without, returns `+∞` and spends nothing on it. All three tiers are
    /// bitwise identical.
    #[inline]
    fn fill_sq<const MIN: bool>(&mut self, y: Complex64, h: Complex64) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if SIMD_ENABLED && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { self.fill_sq_avx2::<MIN>(y, h) };
        }
        if SIMD_ENABLED {
            self.fill_sq_lanes::<MIN>(y, h)
        } else {
            self.fill_sq_scalar::<MIN>(y, h)
        }
    }

    /// [`DemapTable::fill_sq_lanes`] as explicit 256-bit intrinsics — the
    /// same IEEE operations in the same order (no multiply-add fusion
    /// anywhere), so the squared distances are bit-identical to both
    /// portable kernels. `vminpd(s, m)` is `s < m ? s : m`, the strict
    /// running minimum.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fill_sq_avx2<const MIN: bool>(&mut self, y: Complex64, h: Complex64) -> f64 {
        use std::arch::x86_64::*;
        let n = self.xs.len();
        let mut p = 0usize;
        let mut lanes = [f64::INFINITY; LANES];
        // SAFETY (for all intrinsics below): p ≤ n−4 inside the loop, and
        // xs_re/xs_im/sq all hold exactly n elements.
        unsafe {
            let mut vmin = _mm256_set1_pd(f64::INFINITY);
            let vyre = _mm256_set1_pd(y.re);
            let vyim = _mm256_set1_pd(y.im);
            let vhre = _mm256_set1_pd(h.re);
            let vhim = _mm256_set1_pd(h.im);
            while p + LANES <= n {
                let xre = _mm256_loadu_pd(self.xs_re.as_ptr().add(p));
                let xim = _mm256_loadu_pd(self.xs_im.as_ptr().add(p));
                let dre = _mm256_sub_pd(
                    vyre,
                    _mm256_sub_pd(_mm256_mul_pd(vhre, xre), _mm256_mul_pd(vhim, xim)),
                );
                let dim = _mm256_sub_pd(
                    vyim,
                    _mm256_add_pd(_mm256_mul_pd(vhre, xim), _mm256_mul_pd(vhim, xre)),
                );
                let s = _mm256_add_pd(_mm256_mul_pd(dre, dre), _mm256_mul_pd(dim, dim));
                _mm256_storeu_pd(self.sq.as_mut_ptr().add(p), s);
                if MIN {
                    vmin = _mm256_min_pd(s, vmin);
                }
                p += LANES;
            }
            _mm256_storeu_pd(lanes.as_mut_ptr(), vmin);
        }
        self.fill_sq_tail::<MIN>(y, h, p, lanes)
    }

    /// The points from `p` on, one at a time, folded into the per-lane
    /// running minima `lanes`: the shared tail of every tier.
    #[inline(always)]
    fn fill_sq_tail<const MIN: bool>(
        &mut self,
        y: Complex64,
        h: Complex64,
        p: usize,
        lanes: [f64; LANES],
    ) -> f64 {
        let mut min = f64::INFINITY;
        for (s, x) in self.sq[p..].iter_mut().zip(&self.xs[p..]) {
            *s = (y - h * *x).norm_sqr();
            if MIN {
                min = strict_min(min, *s);
            }
        }
        if MIN {
            for v in lanes {
                min = strict_min(min, v);
            }
        }
        min
    }

    /// Lane kernel of [`DemapTable::fill_sq`]: four points per step from
    /// the split-form constellation.
    #[inline]
    fn fill_sq_lanes<const MIN: bool>(&mut self, y: Complex64, h: Complex64) -> f64 {
        let n = self.xs.len();
        let mut p = 0usize;
        let mut vmin = F64x4::splat(f64::INFINITY);
        let vyre = F64x4::splat(y.re);
        let vyim = F64x4::splat(y.im);
        let vhre = F64x4::splat(h.re);
        let vhim = F64x4::splat(h.im);
        while p + LANES <= n {
            let xre = F64x4::load(&self.xs_re, p);
            let xim = F64x4::load(&self.xs_im, p);
            // h·x term-for-term as `Complex64::mul`, then |y − h·x|².
            let dre = vyre.sub(vhre.mul(xre).sub(vhim.mul(xim)));
            let dim = vyim.sub(vhre.mul(xim).add(vhim.mul(xre)));
            let s = dre.mul(dre).add(dim.mul(dim));
            s.store(&mut self.sq, p);
            if MIN {
                vmin = F64x4::select(vmin.gt(s), s, vmin);
            }
            p += LANES;
        }
        self.fill_sq_tail::<MIN>(y, h, p, vmin.0)
    }

    /// Scalar kernel of [`DemapTable::fill_sq`].
    #[inline]
    fn fill_sq_scalar<const MIN: bool>(&mut self, y: Complex64, h: Complex64) -> f64 {
        self.fill_sq_tail::<MIN>(y, h, 0, [f64::INFINITY; LANES])
    }

    /// [`demap_llrs`], *appending* `bits_per_symbol` LLRs to `out` (the
    /// receive chain accumulates per-carrier LLRs into one per-symbol
    /// vector, so append — not clear-and-fill — is the composable shape).
    pub fn demap_llrs_into(&mut self, y: Complex64, h: Complex64, n0: f64, out: &mut Vec<f64>) {
        self.fill_sq::<false>(y, h);
        let scale = 1.0 / n0.max(1e-12);
        // One monomorphised reduction per grid shape, so the line loops
        // unroll and the small constellations pay no generic overhead.
        match self.m {
            Modulation::Bpsk => self.llrs_from_sq::<2, 1, 1>(scale, out),
            Modulation::Qpsk => self.llrs_from_sq::<2, 2, 2>(scale, out),
            Modulation::Qam16 => self.llrs_from_sq::<4, 4, 4>(scale, out),
            Modulation::Qam64 => self.llrs_from_sq::<8, 8, 6>(scale, out),
        }
    }

    /// Phases 2 and 3 of the demap on the `R × C` grid in `self.sq`, for
    /// `B` bits per symbol.
    #[inline(always)]
    fn llrs_from_sq<const R: usize, const C: usize, const B: usize>(
        &self,
        scale: f64,
        out: &mut Vec<f64>,
    ) {
        let mut row_min = [f64::INFINITY; R];
        let mut col_min = [f64::INFINITY; C];
        for (row, rm) in self.sq.chunks_exact(C).zip(row_min.iter_mut()) {
            for (cm, &v) in col_min.iter_mut().zip(row) {
                *cm = strict_min(*cm, v);
            }
            *rm = row.iter().fold(f64::INFINITY, |m, &v| strict_min(m, v));
        }
        // Per bit, the (√m)² of its 0-set and 1-set minima.
        let mut mins = [[0.0f64; 2]; B];
        for (bit, split) in mins.iter_mut().zip(&self.splits) {
            let (lines, half): (&[f64], usize) = if split.rows {
                (&row_min, R / 2)
            } else {
                (&col_min, C / 2)
            };
            for (m, set) in bit.iter_mut().zip([&split.zero, &split.one]) {
                let min = set[..half]
                    .iter()
                    .fold(f64::INFINITY, |acc, &l| strict_min(acc, lines[l as usize]));
                *m = resquare(min);
            }
        }
        out.extend(mins.iter().map(|[m0, m1]| (m1 - m0) * scale));
    }

    /// The nearest constellation point to `y` after equalising with `h`:
    /// the point whose label [`demap_hard`] returns, without the bit
    /// round-trip. Ties break toward the point scanned first, matching
    /// [`demap_hard`]'s `Iterator::min_by` convention. The decision-
    /// directed EVM loops want the point, not its label.
    ///
    /// With `h = 1` the squared distance separates per axis, so each
    /// axis's nearest level, found by counting decision midpoints, names
    /// the scan's unique winner whenever `y` is clear of every midpoint
    /// (DESIGN.md, "Exact per-axis slicing"). Inputs near a midpoint,
    /// large or non-finite ones, and every other `h` take the full scan.
    pub fn nearest(&mut self, y: Complex64, h: Complex64) -> Complex64 {
        if h == Complex64::ONE {
            // One monomorphised slicer per grid shape: `R` row and `C`
            // column midpoints.
            let sliced = match self.m {
                Modulation::Bpsk => self.slice::<1, 0>(y),
                Modulation::Qpsk => self.slice::<1, 1>(y),
                Modulation::Qam16 => self.slice::<3, 3>(y),
                Modulation::Qam64 => self.slice::<7, 7>(y),
            };
            if let Some(x) = sliced {
                return x;
            }
        }
        self.nearest_scan(y, h)
    }

    /// The point on row `y.re`'s and column `y.im`'s nearest level, on a
    /// grid with `R` row and `C` column midpoints; `None` when either axis
    /// declines.
    #[inline(always)]
    fn slice<const R: usize, const C: usize>(&self, y: Complex64) -> Option<Complex64> {
        let r = self.slicers[0].slice::<R>(y.re)?;
        let c = self.slicers[1].slice::<C>(y.im)?;
        Some(self.xs[r * (C + 1) + c])
    }

    /// [`DemapTable::nearest`] by the full scan: every point's squared
    /// distance, then the first point at the minimum distance.
    fn nearest_scan(&mut self, y: Complex64, h: Complex64) -> Complex64 {
        let min = self.fill_sq::<true>(y, h);
        // No finite distance: a strict `<` scan from `+∞` never moves off
        // the first point.
        if min == f64::INFINITY {
            return self.xs[0];
        }
        #[cfg(target_arch = "x86_64")]
        if SIMD_ENABLED && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return self.xs[unsafe { self.first_at_min_avx2(min) }];
        }
        self.xs[self.first_at_min(min, 0)]
    }

    /// The first point from `from` on whose distance `√s` equals `√min`:
    /// `s == min` settles it without a sqrt, and a larger `s` can only
    /// round to the same distance when `s ≤ 2·min`.
    #[inline]
    fn first_at_min(&self, min: f64, from: usize) -> usize {
        let limit = 2.0 * min;
        let at_min = |v: f64| v == min || (v <= limit && v.sqrt() == min.sqrt());
        match self.sq[from..].iter().position(|&v| at_min(v)) {
            Some(k) => from + k,
            None => unreachable!("the minimum's own point qualifies"),
        }
    }

    /// [`DemapTable::first_at_min`] four points per compare: a
    /// `vcmppd`/`vmovmskpd` pass keeps only the points with `s ≤ 2·min`,
    /// which are then tested in index order exactly as the scalar scan
    /// tests them.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn first_at_min_avx2(&self, min: f64) -> usize {
        use std::arch::x86_64::*;
        let n = self.sq.len();
        let limit = 2.0 * min;
        let mut p = 0usize;
        let vlimit = _mm256_set1_pd(limit);
        while p + LANES <= n {
            // SAFETY: p ≤ n−4 inside the loop and `sq` holds n elements.
            let mut mask = unsafe {
                let s = _mm256_loadu_pd(self.sq.as_ptr().add(p));
                _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(s, vlimit))
            };
            while mask != 0 {
                let q = p + mask.trailing_zeros() as usize;
                let v = self.sq[q];
                if v == min || v.sqrt() == min.sqrt() {
                    return q;
                }
                mask &= mask - 1;
            }
            p += LANES;
        }
        self.first_at_min(min, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ssync_dsp::rng::ComplexGaussian;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    #[test]
    fn unit_average_power() {
        for m in ALL {
            let pts = constellation(m);
            let p: f64 = pts.iter().map(|(_, x)| x.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((p - 1.0).abs() < 1e-12, "{m:?}: power {p}");
        }
    }

    #[test]
    fn constellation_points_distinct() {
        for m in ALL {
            let pts = constellation(m);
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    assert!(pts[i].1.dist(pts[j].1) > 1e-9, "{m:?}: duplicate points");
                }
            }
        }
    }

    #[test]
    fn gray_property_neighbours_differ_by_one_bit() {
        // Along each axis, adjacent PAM levels must differ in exactly one bit.
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let pts = constellation(m);
            for (bits_a, a) in &pts {
                for (bits_b, b) in &pts {
                    let dx = (a.re - b.re).abs();
                    let dy = (a.im - b.im).abs();
                    let k = normalization(m) * 2.0;
                    // Horizontally adjacent, same row:
                    if dy < 1e-12 && (dx - k).abs() < 1e-9 {
                        let diff: usize = bits_a.iter().zip(bits_b).filter(|(x, y)| x != y).count();
                        assert_eq!(diff, 1, "{m:?}: neighbours differ by {diff} bits");
                    }
                }
            }
        }
    }

    #[test]
    fn hard_demap_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        for m in ALL {
            for _ in 0..50 {
                let bits: Vec<u8> = (0..m.bits_per_symbol())
                    .map(|_| rng.gen_range(0..2u8))
                    .collect();
                let x = map_symbol(m, &bits);
                // Random complex channel, no noise.
                let h = Complex64::from_polar(
                    rng.gen_range(0.2..2.0),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                );
                assert_eq!(demap_hard(m, h * x, h), bits, "{m:?}");
            }
        }
    }

    #[test]
    fn llr_signs_match_hard_decisions_at_high_snr() {
        let mut rng = StdRng::seed_from_u64(6);
        for m in ALL {
            for _ in 0..50 {
                let bits: Vec<u8> = (0..m.bits_per_symbol())
                    .map(|_| rng.gen_range(0..2u8))
                    .collect();
                let x = map_symbol(m, &bits);
                let h = Complex64::from_polar(1.0, rng.gen_range(0.0..std::f64::consts::TAU));
                let llrs = demap_llrs(m, h * x, h, 1e-3);
                for (i, &b) in bits.iter().enumerate() {
                    if b == 0 {
                        assert!(llrs[i] > 0.0, "{m:?} bit {i}");
                    } else {
                        assert!(llrs[i] < 0.0, "{m:?} bit {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn llr_magnitude_scales_with_noise() {
        let m = Modulation::Qpsk;
        let bits = [0u8, 1u8];
        let x = map_symbol(m, &bits);
        let h = Complex64::ONE;
        let l_low_noise = demap_llrs(m, x, h, 0.01);
        let l_high_noise = demap_llrs(m, x, h, 1.0);
        assert!(l_low_noise[0].abs() > l_high_noise[0].abs() * 10.0);
    }

    #[test]
    fn qpsk_decodes_under_noise_mostly() {
        let mut rng = StdRng::seed_from_u64(7);
        let noise = ComplexGaussian::with_power(0.02);
        let mut errors = 0;
        let trials = 2000;
        for _ in 0..trials {
            let bits: Vec<u8> = (0..2).map(|_| rng.gen_range(0..2u8)).collect();
            let x = map_symbol(Modulation::Qpsk, &bits);
            let y = x + noise.sample(&mut rng);
            if demap_hard(Modulation::Qpsk, y, Complex64::ONE) != bits {
                errors += 1;
            }
        }
        // At 17 dB SNR, QPSK symbol errors should be extremely rare.
        assert!(errors < 5, "errors {errors}/{trials}");
    }

    #[test]
    fn map_bits_chunks() {
        let bits = [0u8, 1, 1, 0, 0, 0, 1, 1];
        let syms = map_bits(Modulation::Qpsk, &bits);
        assert_eq!(syms.len(), 4);
        assert_eq!(syms[0], map_symbol(Modulation::Qpsk, &[0, 1]));
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn map_bits_rejects_ragged() {
        let _ = map_bits(Modulation::Qam16, &[0u8; 7]);
    }

    /// The reference argmin: the first point with the smallest
    /// `dist(y, h·x)` under a strict `<` scan from `+∞` (NaN skipped, the
    /// first point when nothing is finite). Unlike [`demap_hard`], it
    /// accepts non-finite inputs.
    fn reference_nearest(m: Modulation, y: Complex64, h: Complex64) -> Complex64 {
        let points = constellation(m);
        let mut best = (0, f64::INFINITY);
        for (idx, (_, x)) in points.iter().enumerate() {
            let d = y.dist(h * *x);
            if d < best.1 {
                best = (idx, d);
            }
        }
        points[best.0].1
    }

    fn same_bits(a: Complex64, b: Complex64) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    #[test]
    fn demap_table_bitwise_matches_allocating_demappers() {
        let mut rng = StdRng::seed_from_u64(8);
        let noise = ComplexGaussian::with_power(0.1);
        for m in ALL {
            let mut table = DemapTable::new(m);
            let mut llrs = Vec::new();
            for _ in 0..40 {
                let bits: Vec<u8> = (0..m.bits_per_symbol())
                    .map(|_| rng.gen_range(0..2u8))
                    .collect();
                let h = Complex64::from_polar(
                    rng.gen_range(0.2..2.0),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                );
                let y = h * map_symbol(m, &bits) + noise.sample(&mut rng);
                llrs.clear();
                table.demap_llrs_into(y, h, 0.1, &mut llrs);
                assert_eq!(llrs, demap_llrs(m, y, h, 0.1), "{m:?}");
                // The nearest point is exactly the point of demap_hard's label.
                let near = table.nearest(y, h);
                assert!(
                    same_bits(near, map_symbol(m, &demap_hard(m, y, h))),
                    "{m:?}"
                );
            }
            // Tie case (y at the origin): both paths must break identically.
            let near = table.nearest(Complex64::ZERO, Complex64::ONE);
            let hard = demap_hard(m, Complex64::ZERO, Complex64::ONE);
            assert!(same_bits(near, map_symbol(m, &hard)), "{m:?}");
        }
    }

    /// Inputs that stress the sqrt-free reductions: signed zeros,
    /// subnormals, infinities and NaN in `y` or `h`, a zero channel, and
    /// received symbols exactly midway between two points (and at a
    /// corner between four).
    fn adversarial_inputs(m: Modulation) -> Vec<(Complex64, Complex64)> {
        let k = normalization(m);
        let sub = f64::MIN_POSITIVE / 8.0;
        let c = Complex64::new;
        let mut ys = vec![
            c(0.0, 0.0),
            c(-0.0, -0.0),
            c(0.0, -0.0),
            c(sub, -sub),
            c(-sub, 0.0),
            c(2.0 * k, 0.0),
            c(0.0, 2.0 * k),
            c(2.0 * k, 2.0 * k),
            c(-4.0 * k, 2.0 * k),
            c(6.0 * k, -4.0 * k),
            c(1e300, -1e300),
            c(f64::INFINITY, 0.0),
            c(f64::NEG_INFINITY, f64::INFINITY),
            c(f64::NAN, 0.0),
            c(0.3, f64::NAN),
            c(f64::MAX, f64::MAX),
        ];
        // Exactly midway between two adjacent points of the constellation.
        let points = constellation(m);
        for w in points.windows(2) {
            ys.push((w[0].1 + w[1].1).scale(0.5));
        }
        let hs = [
            Complex64::ONE,
            c(-0.0, 0.0),
            Complex64::ZERO,
            c(sub, 0.0),
            c(0.0, -1.0),
            c(0.7, 0.7),
            c(f64::INFINITY, 0.0),
            c(f64::NAN, 1.0),
            c(1e-160, 1e-160),
        ];
        let mut out = Vec::new();
        for &y in &ys {
            for &h in &hs {
                out.push((y, h));
            }
        }
        out
    }

    #[test]
    fn demap_table_matches_scans_on_adversarial_inputs() {
        for m in ALL {
            let mut table = DemapTable::new(m);
            let mut llrs = Vec::new();
            for (y, h) in adversarial_inputs(m) {
                for n0 in [0.1, 0.0, 1e-300] {
                    llrs.clear();
                    table.demap_llrs_into(y, h, n0, &mut llrs);
                    let oracle = demap_llrs(m, y, h, n0);
                    let got: Vec<u64> = llrs.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{m:?} y={y:?} h={h:?} n0={n0}");
                }
                let near = table.nearest(y, h);
                assert!(
                    same_bits(near, reference_nearest(m, y, h)),
                    "{m:?} y={y:?} h={h:?}: nearest {near:?}"
                );
                let dists_finite = constellation(m)
                    .iter()
                    .all(|(_, x)| y.dist(h * *x).is_finite());
                if dists_finite {
                    let hard = demap_hard(m, y, h);
                    assert!(same_bits(near, map_symbol(m, &hard)), "{m:?} y={y:?}");
                }
            }
        }
    }

    /// Inputs for the `h = 1` slicer: random points around the
    /// constellation, each decision midpoint exactly and a few ulps and
    /// guard-widths either side of it (on each axis, the other axis
    /// random), the edges of the decided range, and IEEE edge values.
    fn slicer_inputs(m: Modulation, rng: &mut StdRng) -> Vec<Complex64> {
        let table = DemapTable::new(m);
        let noise = ComplexGaussian::with_power(0.2);
        let points = constellation(m);
        let mut vs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 3.0,
            999.9,
            -SLICE_LIMIT,
            SLICE_LIMIT,
            1000.0001,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for slicer in &table.slicers {
            for &mid in &slicer.mids {
                for d in [0.0, 0.5, 0.9, 1.0, 1.1, 2.0] {
                    for sign in [-1.0, 1.0] {
                        vs.push(mid + sign * d * SLICE_GUARD);
                    }
                }
                vs.push(f64::from_bits(mid.to_bits() + 1));
                vs.push(f64::from_bits(mid.to_bits().wrapping_sub(1)));
            }
        }
        let mut ys: Vec<Complex64> = (0..400)
            .map(|_| points[rng.gen_range(0..points.len())].1 + noise.sample(rng))
            .collect();
        for &v in &vs {
            let other = rng.gen_range(-1.5..1.5);
            ys.push(Complex64::new(v, other));
            ys.push(Complex64::new(other, v));
            ys.push(Complex64::new(v, v));
        }
        ys
    }

    #[test]
    fn slicer_bitwise_matches_scan_and_hard_demap() {
        let mut rng = StdRng::seed_from_u64(31);
        for m in ALL {
            let mut table = DemapTable::new(m);
            let mut sliced = 0;
            let inputs = slicer_inputs(m, &mut rng);
            for &y in &inputs {
                let h = Complex64::ONE;
                let near = table.nearest(y, h);
                let scan = table.nearest_scan(y, h);
                assert!(same_bits(near, scan), "{m:?} y={y:?}: {near:?} vs {scan:?}");
                assert!(same_bits(near, reference_nearest(m, y, h)), "{m:?} y={y:?}");
                if y.re.is_finite() && y.im.is_finite() {
                    let hard = map_symbol(m, &demap_hard(m, y, h));
                    assert!(same_bits(near, hard), "{m:?} y={y:?}");
                }
                let fast = match m {
                    Modulation::Bpsk => table.slice::<1, 0>(y),
                    Modulation::Qpsk => table.slice::<1, 1>(y),
                    Modulation::Qam16 => table.slice::<3, 3>(y),
                    Modulation::Qam64 => table.slice::<7, 7>(y),
                };
                if let Some(x) = fast {
                    assert!(same_bits(x, scan), "{m:?} y={y:?}");
                    sliced += 1;
                }
            }
            // The fast path decides the typical received symbol.
            assert!(sliced >= 380, "{m:?}: only {sliced} sliced");
        }
    }

    #[test]
    fn metric_kernels_bitwise_match() {
        // All three squared-distance tiers (and both nearest-point
        // searches) are always compiled, avx2 when the host has it;
        // whichever one the build dispatches, the others must produce the
        // same bits, minima and indices. A NaN only has to stay a NaN: Rust
        // leaves NaN payloads unspecified, and every reduction skips NaN
        // whatever its bits.
        let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = StdRng::seed_from_u64(21);
        let noise = ComplexGaussian::with_power(0.1);
        for m in ALL {
            let mut lanes = DemapTable::new(m);
            let mut scalar = DemapTable::new(m);
            let mut inputs = adversarial_inputs(m);
            for _ in 0..50 {
                let h = Complex64::from_polar(
                    rng.gen_range(0.2..2.0),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                );
                inputs.push((h * noise.sample(&mut rng), h));
            }
            for (y, h) in inputs {
                let min_lanes = lanes.fill_sq_lanes::<true>(y, h);
                let min = scalar.fill_sq_scalar::<true>(y, h);
                assert_eq!(min_lanes.to_bits(), min.to_bits(), "{m:?} y={y:?} h={h:?}");
                for (a, b) in lanes.sq.iter().zip(&scalar.sq) {
                    assert!(same(a, b), "{m:?} y={y:?} h={h:?}: {a} vs {b}");
                }
                let first = (min != f64::INFINITY).then(|| scalar.first_at_min(min, 0));
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 detected above.
                    let min_avx2 = unsafe { lanes.fill_sq_avx2::<true>(y, h) };
                    assert_eq!(
                        min_avx2.to_bits(),
                        min.to_bits(),
                        "avx2 {m:?} y={y:?} h={h:?}"
                    );
                    for (a, b) in lanes.sq.iter().zip(&scalar.sq) {
                        assert!(same(a, b), "avx2 {m:?} y={y:?} h={h:?}: {a} vs {b}");
                    }
                    if let Some(first) = first {
                        // SAFETY: AVX2 detected above.
                        let first_avx2 = unsafe { lanes.first_at_min_avx2(min) };
                        assert_eq!(first_avx2, first, "avx2 {m:?} y={y:?} h={h:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[ignore] // timing probe: cargo test -p ssync_phy --release profile_demap -- --ignored --nocapture
    fn profile_demap() {
        // One OFDM symbol's worth of noisy carriers over random channels,
        // so the timings include the data-dependent branches.
        let mut rng = StdRng::seed_from_u64(30);
        let noise = ComplexGaussian::with_power(0.05);
        let iters = 2_000;
        for m in ALL {
            let mut table = DemapTable::new(m);
            let points = constellation(m);
            let inputs: Vec<(Complex64, Complex64)> = (0..48)
                .map(|_| {
                    let h =
                        Complex64::from_polar(rng.gen_range(0.3..2.0), rng.gen_range(-3.1..3.1));
                    let x = points[rng.gen_range(0..points.len())].1;
                    (h * x + noise.sample(&mut rng), h)
                })
                .collect();
            let mut llrs = Vec::with_capacity(6 * inputs.len());
            let mut demap = std::time::Duration::MAX;
            let mut nearest = std::time::Duration::MAX;
            for _ in 0..7 {
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    llrs.clear();
                    for &(y, h) in std::hint::black_box(&inputs) {
                        table.demap_llrs_into(y, h, 0.1, &mut llrs);
                    }
                    std::hint::black_box(&llrs);
                }
                demap = demap.min(t0.elapsed() / (iters * 48));
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    for &(y, h) in std::hint::black_box(&inputs) {
                        std::hint::black_box(table.nearest(y / h, Complex64::ONE));
                    }
                }
                nearest = nearest.min(t0.elapsed() / (iters * 48));
            }
            println!("{m:?}: demap_llrs_into {demap:?} nearest {nearest:?}");
        }
    }
}
