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
use ssync_dsp::simd::{tier, C64x4, F64x4, Real, Tier, LANES};
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
fn resquare<T: Real>(m: T) -> T {
    let d = m.sqrt();
    d.mul(d)
}

/// `v < acc ? v : acc`: one step of a strict running minimum from `+∞`,
/// which never takes a NaN.
#[inline(always)]
fn strict_min<T: Real>(acc: T, v: T) -> T {
    acc.select_gt(v, v, acc)
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
/// derives those partitions from the labels and asserts them.
///
/// [`DemapTable::demap_symbol`] demaps every data carrier of one OFDM
/// symbol, four carriers per [`ssync_dsp::simd`] lane group (DESIGN.md,
/// "Carrier-lane demap and the placement table"). Each lane runs three
/// phases, all producing [`demap_llrs`]'s exact bits:
///
/// 1. **Squared distances.** `s = |y − h·x|²` per point — the operations
///    of `y.dist(h·x)` in the same order, minus its `sqrt`. The products
///    `h.re·a`, `h.im·a` of a row level `a` and `h.im·b`, `h.re·b` of a
///    column level `b` are formed once per grid line, not once per point.
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
/// [`DemapTable::nearest`]. [`DemapTable::evm_into`] runs it per carrier
/// for the decision-directed EVM.
#[derive(Debug, Clone)]
pub struct DemapTable {
    m: Modulation,
    /// The constellation points, I-major (point `r·cols + c`).
    xs: Vec<Complex64>,
    /// The points again in split re/im form, so the lane path loads four
    /// consecutive reals instead of deinterleaving on every call.
    xs_re: Vec<f64>,
    xs_im: Vec<f64>,
    /// The real part of each row's points and the imaginary part of each
    /// column's points (every point of a grid line shares it).
    row_levels: [f64; 8],
    col_levels: [f64; 8],
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
        for (p, x) in xs.iter().enumerate() {
            let (r, c) = (p / cols, p % cols);
            assert!(
                x.re.to_bits() == row_levels[r].to_bits()
                    && x.im.to_bits() == col_levels[c].to_bits(),
                "{m:?} point {p}: not on its grid lines"
            );
        }
        let mut levels = [[0.0; 8]; 2];
        levels[0][..rows].copy_from_slice(&row_levels);
        levels[1][..cols].copy_from_slice(&col_levels);
        DemapTable {
            m,
            slicers: [AxisSlicer::new(&row_levels), AxisSlicer::new(&col_levels)],
            row_levels: levels[0],
            col_levels: levels[1],
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

    /// Demaps one OFDM symbol: carrier `j` received `y[j]` through channel
    /// `h[j]` with noise variance `n0[j]`, and its `bits_per_symbol` LLRs
    /// — [`demap_llrs`]'s bits — go to `out[place[j·bps + b]]` for bit `b`.
    /// `place` maps the demapper's order onto the caller's layout: the
    /// frame decoder passes a placement table that lands each LLR at its
    /// mother-code position (see `crate::frame::DecodeScratch`), and the
    /// identity keeps demapper order. Slots of `out` that `place` does not
    /// name are left as they are.
    ///
    /// # Panics
    /// Panics if `h` or `n0` is not as long as `y`, if `place` does not
    /// hold `bits_per_symbol` entries per carrier, or if a `place` entry
    /// is outside `out`.
    pub fn demap_symbol(
        &self,
        y: &[Complex64],
        h: &[Complex64],
        n0: &[f64],
        place: &[u32],
        out: &mut [f64],
    ) {
        assert!(
            h.len() == y.len() && n0.len() == y.len(),
            "demap_symbol: {} received values, {} channels, {} noise values",
            y.len(),
            h.len(),
            n0.len()
        );
        assert_eq!(
            place.len(),
            y.len() * self.m.bits_per_symbol(),
            "demap_symbol: placement table size"
        );
        // The tier is picked once per symbol, not once per carrier.
        match tier() {
            // SAFETY: `tier()` reported AVX2 support at runtime, and the
            // twin only compiles the lanes tier for it.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 | Tier::Avx512 => unsafe { self.demap_symbol_avx2(y, h, n0, place, out) },
            Tier::Scalar => self.demap_by_grid::<false>(y, h, n0, place, out),
            _ => self.demap_by_grid::<true>(y, h, n0, place, out),
        }
    }

    /// [`DemapTable::demap_by_grid`]'s lanes tier compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn demap_symbol_avx2(
        &self,
        y: &[Complex64],
        h: &[Complex64],
        n0: &[f64],
        place: &[u32],
        out: &mut [f64],
    ) {
        self.demap_by_grid::<true>(y, h, n0, place, out);
    }

    /// [`DemapTable::demap_symbol`] in the lanes tier (`V`) or the scalar
    /// one, monomorphised per grid shape so the line loops unroll and the
    /// small constellations pay no generic overhead.
    #[inline(always)]
    fn demap_by_grid<const V: bool>(
        &self,
        y: &[Complex64],
        h: &[Complex64],
        n0: &[f64],
        place: &[u32],
        out: &mut [f64],
    ) {
        match self.m {
            Modulation::Bpsk => self.demap_grid::<V, 2, 1, 1>(y, h, n0, place, out),
            Modulation::Qpsk => self.demap_grid::<V, 2, 2, 2>(y, h, n0, place, out),
            Modulation::Qam16 => self.demap_grid::<V, 4, 4, 4>(y, h, n0, place, out),
            Modulation::Qam64 => self.demap_grid::<V, 8, 8, 6>(y, h, n0, place, out),
        }
    }

    /// The carriers of one symbol on the `R × C` grid (`B` bits each):
    /// four per lane group in the lanes tier (`V`), the rest one at a time.
    #[inline(always)]
    fn demap_grid<const V: bool, const R: usize, const C: usize, const B: usize>(
        &self,
        y: &[Complex64],
        h: &[Complex64],
        n0: &[f64],
        place: &[u32],
        out: &mut [f64],
    ) {
        let whole = if V { y.len() - y.len() % LANES } else { 0 };
        for j in (0..whole).step_by(LANES) {
            let (yv, hv) = (C64x4::load(y, j), C64x4::load(h, j));
            let llrs = self.llrs::<F64x4, R, C, B>(yv.re, yv.im, hv.re, hv.im, F64x4::load(n0, j));
            for (lane, at) in place[j * B..(j + LANES) * B].chunks_exact(B).enumerate() {
                for (&p, llr) in at.iter().zip(&llrs) {
                    out[p as usize] = llr.0[lane];
                }
            }
        }
        let carriers = y[whole..].iter().zip(&h[whole..]).zip(&n0[whole..]);
        for (((y, h), &n0), at) in carriers.zip(place[whole * B..].chunks_exact(B)) {
            let llrs = self.llrs::<f64, R, C, B>(y.re, y.im, h.re, h.im, n0);
            for (&p, llr) in at.iter().zip(llrs) {
                out[p as usize] = llr;
            }
        }
    }

    /// Phases 1–3 of the demap for one carrier per lane of `T` on the
    /// `R × C` grid: the `B` LLRs `(m1 − m0)·(1 / max(n0, 10⁻¹²))`, every
    /// operation [`demap_llrs`]'s own.
    #[inline(always)]
    fn llrs<T: Real, const R: usize, const C: usize, const B: usize>(
        &self,
        y_re: T,
        y_im: T,
        h_re: T,
        h_im: T,
        n0: T,
    ) -> [T; B] {
        let inf = T::splat(f64::INFINITY);
        // h·x = (h.re·a − h.im·b, h.re·b + h.im·a) for the point on row
        // level `a` and column level `b`: each product is a line's.
        let mut row_re = [inf; R];
        let mut row_im = [inf; R];
        for ((re, im), &a) in row_re.iter_mut().zip(&mut row_im).zip(&self.row_levels) {
            *re = h_re.mul(T::splat(a));
            *im = h_im.mul(T::splat(a));
        }
        let mut col_re = [inf; C];
        let mut col_im = [inf; C];
        for ((re, im), &b) in col_re.iter_mut().zip(&mut col_im).zip(&self.col_levels) {
            *re = h_im.mul(T::splat(b));
            *im = h_re.mul(T::splat(b));
        }
        let mut row_min = [inf; R];
        let mut col_min = [inf; C];
        for ((&a_re, &a_im), rm) in row_re.iter().zip(&row_im).zip(&mut row_min) {
            for ((&b_re, &b_im), cm) in col_re.iter().zip(&col_im).zip(&mut col_min) {
                let d_re = y_re.sub(a_re.sub(b_re));
                let d_im = y_im.sub(b_im.add(a_im));
                let s = d_re.mul(d_re).add(d_im.mul(d_im));
                *rm = strict_min(*rm, s);
                *cm = strict_min(*cm, s);
            }
        }
        let floor = T::splat(1e-12);
        let scale = T::splat(1.0).div(n0.select_gt(floor, n0, floor));
        let mut out = [inf; B];
        for (llr, split) in out.iter_mut().zip(&self.splits) {
            let (lines, half): (&[T], usize) = if split.rows {
                (&row_min, R / 2)
            } else {
                (&col_min, C / 2)
            };
            let min = |set: &[u8; 4]| {
                set[..half]
                    .iter()
                    .fold(inf, |acc, &l| strict_min(acc, lines[l as usize]))
            };
            let (m0, m1) = (resquare(min(&split.zero)), resquare(min(&split.one)));
            *llr = m1.sub(m0).mul(scale);
        }
        out
    }

    /// The decision-directed EVM of equalised carriers: for each `eq[j]`
    /// in order, with `x` its [`DemapTable::nearest`] point under `h = 1`,
    /// adds `dist(eq, x)²` to `err` and `|x|²` to `sig`. The squared
    /// distances and powers are formed four carriers per lane group, the
    /// sums stay scalar and in carrier order, so every tier adds the same
    /// terms in the same order as the per-carrier loop.
    pub fn evm_into(&mut self, eq: &[Complex64], err: &mut f64, sig: &mut f64) {
        match tier() {
            // SAFETY: `tier()` reported AVX2 support at runtime, and the
            // twin only compiles the lanes tier for it.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 | Tier::Avx512 => unsafe { self.evm_avx2(eq, err, sig) },
            Tier::Scalar => self.evm_tier::<false>(eq, err, sig),
            _ => self.evm_tier::<true>(eq, err, sig),
        }
    }

    /// [`DemapTable::evm_tier`]'s lanes tier compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn evm_avx2(&mut self, eq: &[Complex64], err: &mut f64, sig: &mut f64) {
        self.evm_tier::<true>(eq, err, sig);
    }

    /// [`DemapTable::evm_into`] in the lanes tier (`V`) or the scalar one.
    #[inline(always)]
    fn evm_tier<const V: bool>(&mut self, eq: &[Complex64], err: &mut f64, sig: &mut f64) {
        let whole = if V { eq.len() - eq.len() % LANES } else { 0 };
        let mut near = [Complex64::ZERO; LANES];
        for group in eq[..whole].chunks_exact(LANES) {
            for (x, &e) in near.iter_mut().zip(group) {
                *x = self.nearest(e, Complex64::ONE);
            }
            let x = C64x4::load(&near, 0);
            let d = C64x4::load(group, 0).sub(x).norm_sqr().sqrt();
            let (d2, p) = (d.mul(d), x.norm_sqr());
            for (d2, p) in d2.0.into_iter().zip(p.0) {
                *err += d2;
                *sig += p;
            }
        }
        for &e in &eq[whole..] {
            let x = self.nearest(e, Complex64::ONE);
            *err += e.dist(x).powi(2);
            *sig += x.norm_sqr();
        }
    }

    /// The nearest constellation point to `y` after equalising with `h`:
    /// the point whose label [`demap_hard`] returns, without the bit
    /// round-trip. Ties break toward the point scanned first, matching
    /// [`demap_hard`]'s `Iterator::min_by` convention. The decision-
    /// directed EVM wants the point, not its label.
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
        let min = self.fill_sq(y, h);
        // No finite distance: a strict `<` scan from `+∞` never moves off
        // the first point.
        if min == f64::INFINITY {
            return self.xs[0];
        }
        #[cfg(target_arch = "x86_64")]
        if tier() >= Tier::Avx2 {
            // SAFETY: `tier()` reported AVX2 support at runtime.
            return self.xs[unsafe { self.first_at_min_avx2(min) }];
        }
        self.xs[self.first_at_min(min, 0)]
    }

    /// Fills `self.sq` with `|y − h·x|²` per point and returns their
    /// minimum (a strict `<` from `+∞`, so NaN is skipped). All three
    /// tiers are bitwise identical.
    #[inline]
    fn fill_sq(&mut self, y: Complex64, h: Complex64) -> f64 {
        let tier = tier();
        #[cfg(target_arch = "x86_64")]
        if tier >= Tier::Avx2 {
            // SAFETY: `tier()` reported AVX2 support at runtime.
            return unsafe { self.fill_sq_avx2(y, h) };
        }
        if tier == Tier::Scalar {
            self.fill_sq_scalar(y, h)
        } else {
            self.fill_sq_lanes(y, h)
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
    unsafe fn fill_sq_avx2(&mut self, y: Complex64, h: Complex64) -> f64 {
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
                vmin = _mm256_min_pd(s, vmin);
                p += LANES;
            }
            _mm256_storeu_pd(lanes.as_mut_ptr(), vmin);
        }
        self.fill_sq_tail(y, h, p, lanes)
    }

    /// The points from `p` on, one at a time, folded into the per-lane
    /// running minima `lanes`: the shared tail of every tier.
    #[inline(always)]
    fn fill_sq_tail(&mut self, y: Complex64, h: Complex64, p: usize, lanes: [f64; LANES]) -> f64 {
        let mut min = f64::INFINITY;
        for (s, x) in self.sq[p..].iter_mut().zip(&self.xs[p..]) {
            *s = (y - h * *x).norm_sqr();
            min = strict_min(min, *s);
        }
        for v in lanes {
            min = strict_min(min, v);
        }
        min
    }

    /// Lane kernel of [`DemapTable::fill_sq`]: four points per step from
    /// the split-form constellation.
    #[inline]
    fn fill_sq_lanes(&mut self, y: Complex64, h: Complex64) -> f64 {
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
            vmin = strict_min(vmin, s);
            p += LANES;
        }
        self.fill_sq_tail(y, h, p, vmin.0)
    }

    /// Scalar kernel of [`DemapTable::fill_sq`].
    #[inline]
    fn fill_sq_scalar(&mut self, y: Complex64, h: Complex64) -> f64 {
        self.fill_sq_tail(y, h, 0, [f64::INFINITY; LANES])
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

    /// One carrier through [`DemapTable::demap_symbol`], in demapper order.
    fn demap_one(table: &DemapTable, y: Complex64, h: Complex64, n0: f64) -> Vec<f64> {
        let bps = table.modulation().bits_per_symbol();
        let place: Vec<u32> = (0..bps as u32).collect();
        let mut out = vec![0.0; bps];
        table.demap_symbol(&[y], &[h], &[n0], &place, &mut out);
        out
    }

    /// `v`'s bits, every NaN mapped to one pattern: Rust leaves the sign
    /// and payload of a NaN that arithmetic produces unspecified, and every
    /// reduction skips NaN whatever its bits.
    fn canonical(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    #[test]
    fn demap_table_bitwise_matches_allocating_demappers() {
        let mut rng = StdRng::seed_from_u64(8);
        let noise = ComplexGaussian::with_power(0.1);
        for m in ALL {
            let mut table = DemapTable::new(m);
            for _ in 0..40 {
                let bits: Vec<u8> = (0..m.bits_per_symbol())
                    .map(|_| rng.gen_range(0..2u8))
                    .collect();
                let h = Complex64::from_polar(
                    rng.gen_range(0.2..2.0),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                );
                let y = h * map_symbol(m, &bits) + noise.sample(&mut rng);
                assert_eq!(
                    demap_one(&table, y, h, 0.1),
                    demap_llrs(m, y, h, 0.1),
                    "{m:?}"
                );
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
            for (y, h) in adversarial_inputs(m) {
                for n0 in [0.1, 0.0, 1e-300] {
                    let llrs = demap_one(&table, y, h, n0);
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
                let min_lanes = lanes.fill_sq_lanes(y, h);
                let min = scalar.fill_sq_scalar(y, h);
                assert_eq!(min_lanes.to_bits(), min.to_bits(), "{m:?} y={y:?} h={h:?}");
                for (a, b) in lanes.sq.iter().zip(&scalar.sq) {
                    assert!(same(a, b), "{m:?} y={y:?} h={h:?}: {a} vs {b}");
                }
                let first = (min != f64::INFINITY).then(|| scalar.first_at_min(min, 0));
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 detected above.
                    let min_avx2 = unsafe { lanes.fill_sq_avx2(y, h) };
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

    /// Values that stress the per-symbol kernels: signed zeros, a
    /// subnormal, huge and tiny magnitudes, both infinities and NaN.
    const SPECIAL: [f64; 10] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 8.0,
        1e300,
        -1e300,
        1e-300,
        -1e-300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// `v`, replaced by an entry of [`SPECIAL`] about one time in six.
    fn maybe_special(rng: &mut StdRng, v: f64) -> f64 {
        if rng.gen_range(0..6) == 0 {
            SPECIAL[rng.gen_range(0..SPECIAL.len())]
        } else {
            v
        }
    }

    /// `n` carriers of one symbol: noisy points over random channels with
    /// per-carrier noise, every part sometimes an IEEE edge value, and
    /// about one carrier in four through `h = 1`.
    fn symbol_inputs(
        m: Modulation,
        n: usize,
        rng: &mut StdRng,
    ) -> (Vec<Complex64>, Vec<Complex64>, Vec<f64>) {
        let noise = ComplexGaussian::with_power(0.1);
        let points = constellation(m);
        let (mut ys, mut hs, mut n0s) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..n {
            let h = if rng.gen_range(0..4) == 0 {
                Complex64::ONE
            } else {
                Complex64::from_polar(rng.gen_range(0.05..3.0), rng.gen_range(-3.2..3.2))
            };
            let y = h * points[rng.gen_range(0..points.len())].1 + noise.sample(rng);
            ys.push(Complex64::new(
                maybe_special(rng, y.re),
                maybe_special(rng, y.im),
            ));
            hs.push(Complex64::new(
                maybe_special(rng, h.re),
                maybe_special(rng, h.im),
            ));
            let n0 = [1e-3, 0.05, 0.7, 0.0][rng.gen_range(0..4usize)];
            n0s.push(maybe_special(rng, n0));
        }
        (ys, hs, n0s)
    }

    #[test]
    fn symbol_demap_tiers_match_per_carrier_oracle() {
        // Every tier of the per-symbol demap, at every carrier count from
        // one to 52 (whole lane groups and every tail length), scatters
        // the free demapper's LLR bits through a shuffled placement and
        // leaves the slots it does not name untouched.
        let mut rng = StdRng::seed_from_u64(40);
        let avx2 = cfg!(target_arch = "x86_64") && std::arch::is_x86_feature_detected!("avx2");
        for m in ALL {
            let table = DemapTable::new(m);
            let bps = m.bits_per_symbol();
            for n in 1..=52 {
                let (ys, hs, n0s) = symbol_inputs(m, n, &mut rng);
                // A shuffled placement into a block with two spare slots.
                let mut place: Vec<u32> = (0..(n * bps) as u32).collect();
                for i in (1..place.len()).rev() {
                    place.swap(i, rng.gen_range(0..i + 1));
                }
                let mut want = vec![-7.5; n * bps + 2];
                for (j, ((&y, &h), &n0)) in ys.iter().zip(&hs).zip(&n0s).enumerate() {
                    for (b, l) in demap_llrs(m, y, h, n0).into_iter().enumerate() {
                        want[place[j * bps + b] as usize] = l;
                    }
                }
                let want: Vec<u64> = want.iter().map(|&v| canonical(v)).collect();
                let mut tiers: Vec<(&str, Vec<f64>)> = Vec::new();
                let mut out = vec![-7.5; n * bps + 2];
                table.demap_by_grid::<false>(&ys, &hs, &n0s, &place, &mut out);
                tiers.push(("scalar", out.clone()));
                table.demap_by_grid::<true>(&ys, &hs, &n0s, &place, &mut out);
                tiers.push(("lanes", out.clone()));
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    // SAFETY: AVX2 detected above.
                    unsafe { table.demap_symbol_avx2(&ys, &hs, &n0s, &place, &mut out) };
                    tiers.push(("avx2", out.clone()));
                }
                table.demap_symbol(&ys, &hs, &n0s, &place, &mut out);
                tiers.push(("dispatched", out.clone()));
                for (tier, got) in tiers {
                    let got: Vec<u64> = got.iter().map(|&v| canonical(v)).collect();
                    assert_eq!(got, want, "{tier} {m:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn symbol_evm_tiers_match_per_carrier_loop() {
        // The per-symbol EVM adds the per-carrier loop's terms in the same
        // order in every tier: same sums, bit for bit, at every carrier
        // count, on top of running sums, for noisy, midpoint and IEEE edge
        // carriers (NaN sums only have to stay NaN).
        let mut rng = StdRng::seed_from_u64(41);
        let avx2 = cfg!(target_arch = "x86_64") && std::arch::is_x86_feature_detected!("avx2");
        for m in ALL {
            let mut table = DemapTable::new(m);
            let mut pool = slicer_inputs(m, &mut rng);
            pool.extend(adversarial_inputs(m).into_iter().map(|(y, _)| y));
            for n in 1..=52 {
                let eq: Vec<Complex64> =
                    (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
                let (mut err, mut sig) = (0.25, 1.5);
                for &e in &eq {
                    let x = table.nearest(e, Complex64::ONE);
                    err += e.dist(x).powi(2);
                    sig += x.norm_sqr();
                }
                let want = (canonical(err), canonical(sig));
                let mut tiers: Vec<(&str, (f64, f64))> = Vec::new();
                let (mut err, mut sig) = (0.25, 1.5);
                table.evm_tier::<false>(&eq, &mut err, &mut sig);
                tiers.push(("scalar", (err, sig)));
                let (mut err, mut sig) = (0.25, 1.5);
                table.evm_tier::<true>(&eq, &mut err, &mut sig);
                tiers.push(("lanes", (err, sig)));
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    let (mut err, mut sig) = (0.25, 1.5);
                    // SAFETY: AVX2 detected above.
                    unsafe { table.evm_avx2(&eq, &mut err, &mut sig) };
                    tiers.push(("avx2", (err, sig)));
                }
                let (mut err, mut sig) = (0.25, 1.5);
                table.evm_into(&eq, &mut err, &mut sig);
                tiers.push(("dispatched", (err, sig)));
                for (tier, (err, sig)) in tiers {
                    assert_eq!((canonical(err), canonical(sig)), want, "{tier} {m:?} n={n}");
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
            let (ys, hs): (Vec<Complex64>, Vec<Complex64>) = (0..48)
                .map(|_| {
                    let h =
                        Complex64::from_polar(rng.gen_range(0.3..2.0), rng.gen_range(-3.1..3.1));
                    let x = points[rng.gen_range(0..points.len())].1;
                    (h * x + noise.sample(&mut rng), h)
                })
                .unzip();
            let n0 = vec![0.1; ys.len()];
            let eq: Vec<Complex64> = ys.iter().zip(&hs).map(|(y, h)| *y / *h).collect();
            let place: Vec<u32> = (0..(ys.len() * m.bits_per_symbol()) as u32).collect();
            let mut llrs = vec![0.0; place.len()];
            let mut demap = std::time::Duration::MAX;
            let mut evm = std::time::Duration::MAX;
            for _ in 0..7 {
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    let (ys, hs) = std::hint::black_box((&ys, &hs));
                    table.demap_symbol(ys, hs, &n0, &place, &mut llrs);
                    std::hint::black_box(&llrs);
                }
                demap = demap.min(t0.elapsed() / (iters * 48));
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    let (mut err, mut sig) = (0.0, 0.0);
                    table.evm_into(std::hint::black_box(&eq), &mut err, &mut sig);
                    std::hint::black_box((err, sig));
                }
                evm = evm.min(t0.elapsed() / (iters * 48));
            }
            println!("{m:?} per carrier: demap_symbol {demap:?} evm_into {evm:?}");
        }
    }
}
