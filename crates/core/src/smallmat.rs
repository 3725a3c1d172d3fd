//! Shared small-matrix kernels over an [`Arith`] substrate.
//!
//! The generic small-matrix loops the IEKF ([`crate::lanes::LaneIekf`])
//! needs — vector arithmetic, the closed-form 2x2 SPD inverse, Cholesky
//! health checks — live here once, generic over the number system. The
//! kernels written for the measurement Jacobian's shape (`J P` and `S`,
//! the Joseph update) live in [`crate::filter`].
//!
//! The dense kernels those replace (`inverse`, `joseph_update`,
//! `joseph_update_sym`, `innovation_cov` and the helpers only they
//! use), and the `inverse2_sym` wrapper the filter runs only in its
//! pivoted per-lane form, compile only under `cfg(test)` or the
//! `test-support` feature: they are the references the structured
//! kernels are pinned against, not part of the filter.
//!
//! The accumulation order of every kernel deliberately mirrors the
//! `mathx` dense operators (accumulator starts at zero, innermost index
//! ascending, scalar factors applied in the same operand order), so
//! that instantiating these kernels with [`crate::arith::F64Arith`]
//! reproduces the pre-generic native-`f64` filter **bit for bit** —
//! the property the parity tests in `tests/arith_full_filter.rs` pin.

// Index-based loops are deliberate throughout: they mirror the matrix
// equations (and the `mathx` operators they must reproduce bitwise).
#![allow(clippy::needless_range_loop)]

use crate::arith::Arith;

/// An `R x C` zero matrix in the substrate.
pub fn zeros<A: Arith, const R: usize, const C: usize>(a: &mut A) -> [[A::T; C]; R] {
    [[a.num(0.0); C]; R]
}

/// The `N x N` identity in the substrate.
#[cfg(any(test, feature = "test-support"))]
pub fn identity<A: Arith, const N: usize>(a: &mut A) -> [[A::T; N]; N] {
    let zero = a.num(0.0);
    let one = a.num(1.0);
    let mut out = [[zero; N]; N];
    for (i, row) in out.iter_mut().enumerate() {
        row[i] = one;
    }
    out
}

/// Transpose (pure data movement, no arithmetic charged).
#[cfg(any(test, feature = "test-support"))]
pub fn transpose<A: Arith, const R: usize, const C: usize>(
    a: &mut A,
    m: &[[A::T; C]; R],
) -> [[A::T; R]; C] {
    let mut out = [[a.num(0.0); R]; C];
    for r in 0..R {
        for c in 0..C {
            out[c][r] = m[r][c];
        }
    }
    out
}

/// Matrix product `X * Y`.
#[cfg(any(test, feature = "test-support"))]
pub fn mul<A: Arith, const R: usize, const C: usize, const K: usize>(
    a: &mut A,
    x: &[[A::T; C]; R],
    y: &[[A::T; K]; C],
) -> [[A::T; K]; R] {
    let zero = a.num(0.0);
    let mut out = [[zero; K]; R];
    for r in 0..R {
        for k in 0..K {
            let mut acc = zero;
            for c in 0..C {
                acc = a.fma(x[r][c], y[c][k], acc);
            }
            out[r][k] = acc;
        }
    }
    out
}

/// Matrix product against a transpose, `X * Y^T`, without moving data.
#[cfg(any(test, feature = "test-support"))]
pub fn mul_nt<A: Arith, const R: usize, const C: usize, const K: usize>(
    a: &mut A,
    x: &[[A::T; C]; R],
    y: &[[A::T; C]; K],
) -> [[A::T; K]; R] {
    let zero = a.num(0.0);
    let mut out = [[zero; K]; R];
    for r in 0..R {
        for k in 0..K {
            let mut acc = zero;
            for c in 0..C {
                acc = a.fma(x[r][c], y[k][c], acc);
            }
            out[r][k] = acc;
        }
    }
    out
}

/// Matrix-vector product `M * v`.
pub fn mat_vec<A: Arith, const R: usize, const C: usize>(
    a: &mut A,
    m: &[[A::T; C]; R],
    v: &[A::T; C],
) -> [A::T; R] {
    let zero = a.num(0.0);
    let mut out = [zero; R];
    for r in 0..R {
        let mut acc = zero;
        for c in 0..C {
            acc = a.fma(m[r][c], v[c], acc);
        }
        out[r] = acc;
    }
    out
}

/// Transposed matrix-vector product `M^T * v`.
#[cfg(any(test, feature = "test-support"))]
pub fn mat_tvec<A: Arith, const R: usize, const C: usize>(
    a: &mut A,
    m: &[[A::T; C]; R],
    v: &[A::T; R],
) -> [A::T; C] {
    let zero = a.num(0.0);
    let mut out = [zero; C];
    for c in 0..C {
        let mut acc = zero;
        for r in 0..R {
            acc = a.fma(m[r][c], v[r], acc);
        }
        out[c] = acc;
    }
    out
}

/// Element-wise sum `X + Y`.
#[cfg(any(test, feature = "test-support"))]
pub fn add<A: Arith, const R: usize, const C: usize>(
    a: &mut A,
    x: &[[A::T; C]; R],
    y: &[[A::T; C]; R],
) -> [[A::T; C]; R] {
    let mut out = *x;
    for r in 0..R {
        for c in 0..C {
            out[r][c] = a.add(x[r][c], y[r][c]);
        }
    }
    out
}

/// Element-wise difference `X - Y`.
#[cfg(any(test, feature = "test-support"))]
pub fn sub<A: Arith, const R: usize, const C: usize>(
    a: &mut A,
    x: &[[A::T; C]; R],
    y: &[[A::T; C]; R],
) -> [[A::T; C]; R] {
    let mut out = *x;
    for r in 0..R {
        for c in 0..C {
            out[r][c] = a.sub(x[r][c], y[r][c]);
        }
    }
    out
}

/// Element-wise scale `X * s` (element first, like `mathx`).
#[cfg(any(test, feature = "test-support"))]
pub fn scale<A: Arith, const R: usize, const C: usize>(
    a: &mut A,
    x: &[[A::T; C]; R],
    s: A::T,
) -> [[A::T; C]; R] {
    let mut out = *x;
    for row in &mut out {
        for v in row.iter_mut() {
            *v = a.mul(*v, s);
        }
    }
    out
}

/// `identity * s` — including the explicit zero-element multiplies the
/// dense `mathx` formulation performs, so op ledgers stay comparable.
#[cfg(any(test, feature = "test-support"))]
pub fn scaled_identity<A: Arith, const N: usize>(a: &mut A, s: A::T) -> [[A::T; N]; N] {
    let id = identity::<A, N>(a);
    scale(a, &id, s)
}

/// `0.5 * (X + X^T)` — the Kalman covariance re-symmetrization.
#[cfg(any(test, feature = "test-support"))]
pub fn symmetrized<A: Arith, const N: usize>(a: &mut A, x: &[[A::T; N]; N]) -> [[A::T; N]; N] {
    let half = a.num(0.5);
    let mut out = *x;
    for r in 0..N {
        for c in 0..N {
            let sum = a.add(x[r][c], x[c][r]);
            out[r][c] = a.mul(half, sum);
        }
    }
    out
}

/// Largest absolute asymmetry `max |X - X^T|`.
pub fn asymmetry<A: Arith, const N: usize>(a: &mut A, x: &[[A::T; N]; N]) -> A::T {
    let mut m = a.num(0.0);
    for r in 0..N {
        for c in 0..N {
            let d = a.sub(x[r][c], x[c][r]);
            let ad = a.abs(d);
            m = a.max(m, ad);
        }
    }
    m
}

/// Largest absolute component of a vector.
pub fn vec_max_abs<A: Arith, const N: usize>(a: &mut A, v: &[A::T; N]) -> A::T {
    let mut m = a.num(0.0);
    for x in v {
        let ax = a.abs(*x);
        m = a.max(m, ax);
    }
    m
}

/// Right-handed cross product of two 3-vectors (the `mathx::Vec3`
/// component order).
pub fn cross3<A: Arith>(a: &mut A, x: &[A::T; 3], y: &[A::T; 3]) -> [A::T; 3] {
    let mut out = *x;
    for (i, o) in out.iter_mut().enumerate() {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        let p = a.mul(x[j], y[k]);
        let q = a.mul(x[k], y[j]);
        *o = a.sub(p, q);
    }
    out
}

/// Element-wise vector sum.
pub fn vec_add<A: Arith, const N: usize>(a: &mut A, x: &[A::T; N], y: &[A::T; N]) -> [A::T; N] {
    let mut out = *x;
    for i in 0..N {
        out[i] = a.add(x[i], y[i]);
    }
    out
}

/// Element-wise vector difference.
pub fn vec_sub<A: Arith, const N: usize>(a: &mut A, x: &[A::T; N], y: &[A::T; N]) -> [A::T; N] {
    let mut out = *x;
    for i in 0..N {
        out[i] = a.sub(x[i], y[i]);
    }
    out
}

/// Inverse by Gauss-Jordan elimination with partial pivoting — the
/// same pivot choice, `1e-300` singularity threshold and elimination
/// order as `mathx::Matrix::inverse`, so the `f64` instantiation is
/// bit-identical to it.
#[cfg(any(test, feature = "test-support"))]
pub fn inverse<A: Arith, const N: usize>(a: &mut A, m: &[[A::T; N]; N]) -> Option<[[A::T; N]; N]> {
    let zero = a.num(0.0);
    let tiny = a.num(1e-300);
    let mut w = *m;
    let mut inv = identity::<A, N>(a);
    for col in 0..N {
        let mut pivot = col;
        for r in (col + 1)..N {
            let ar = a.abs(w[r][col]);
            let ap = a.abs(w[pivot][col]);
            if a.lt(ap, ar) {
                pivot = r;
            }
        }
        let ap = a.abs(w[pivot][col]);
        // The equality arm matters for substrates where `tiny`
        // quantizes to zero (Q16.16): an exactly-zero pivot must still
        // report singular instead of proceeding to a saturating
        // divide-by-zero. Floats short-circuit on the `lt`.
        if a.lt(ap, tiny) || a.eq(ap, zero) {
            return None;
        }
        w.swap(col, pivot);
        inv.swap(col, pivot);
        let d = w[col][col];
        for c in 0..N {
            w[col][c] = a.div(w[col][c], d);
            inv[col][c] = a.div(inv[col][c], d);
        }
        for r in 0..N {
            if r == col {
                continue;
            }
            let factor = w[r][col];
            if a.eq(factor, zero) {
                continue;
            }
            for c in 0..N {
                let t = a.mul(factor, w[col][c]);
                w[r][c] = a.sub(w[r][c], t);
                let t = a.mul(factor, inv[col][c]);
                inv[r][c] = a.sub(inv[r][c], t);
            }
        }
    }
    Some(inv)
}

/// Joseph-form Kalman covariance update,
/// `P' = (I - K H) P (I - K H)^T + K (r I) K^T`, re-symmetrized — the
/// dense reference for [`joseph_update_sym`] (a sum of (near-)PSD
/// terms, which is what keeps the covariance bounded under coarse
/// fixed-point rounding).
#[cfg(any(test, feature = "test-support"))]
pub fn joseph_update<A: Arith, const N: usize, const M: usize>(
    a: &mut A,
    p: &[[A::T; N]; N],
    k: &[[A::T; M]; N],
    h: &[[A::T; N]; M],
    r: A::T,
) -> [[A::T; N]; N] {
    let kh = mul(a, k, h);
    let id = identity::<A, N>(a);
    let ikh = sub(a, &id, &kh);
    let ip = mul(a, &ikh, p);
    let ipit = mul_nt(a, &ip, &ikh);
    let ir = scaled_identity::<A, M>(a, r);
    let kir = mul(a, k, &ir);
    let kirk = mul_nt(a, &kir, k);
    let sum = add(a, &ipit, &kirk);
    symmetrized(a, &sum)
}

/// Innovation covariance `S = (J P) J^T + r I` from the precomputed
/// product `jp = J P` for a dense `J` — the test-only reference for
/// [`crate::filter::jp_and_s`], which specializes it to the
/// measurement Jacobian's known zeros and ones. Exploits the symmetry
/// of `P`: only the upper
/// triangle of the `M x M` result is accumulated (same mathx order as
/// [`mul_nt`] entry by entry) and mirrored, and the diagonal adds `r`
/// directly instead of multiplying out a scaled identity. For an
/// exactly symmetric `P` the unique entries are bit-identical to the
/// dense `mul_nt` + `scaled_identity` + `add` sequence this replaces;
/// the mirrored strict-lower entries differ from their independently
/// accumulated dense counterparts by at most the dot-product rounding
/// spread (~1 scaled ulp).
#[cfg(any(test, feature = "test-support"))]
pub fn innovation_cov<A: Arith, const N: usize, const M: usize>(
    a: &mut A,
    jp: &[[A::T; N]; M],
    j: &[[A::T; N]; M],
    r: A::T,
) -> [[A::T; M]; M] {
    let zero = a.num(0.0);
    let mut out = [[zero; M]; M];
    for row in 0..M {
        for col in row..M {
            let mut acc = zero;
            for c in 0..N {
                acc = a.fma(jp[row][c], j[col][c], acc);
            }
            out[row][col] = acc;
            out[col][row] = acc;
        }
        out[row][row] = a.add(out[row][row], r);
    }
    out
}

/// Closed-form inverse of a symmetric positive-definite 2x2 matrix via
/// its LDL^T factorization — the structure-exploiting replacement for
/// running the dense `N x N` Gauss-Jordan kernel on the 2x2 innovation
/// covariance (3 divisions instead of 8, no pivot search).
///
/// Every division is by a factorization pivot (`d1 = s00`, the Schur
/// complement `d2 = s11 - s10^2/s00`), both of innovation magnitude —
/// the same property that made pivoting Gauss-Jordan usable in Q16.16
/// where the adj/det closed form underflows (`det ~ R^2` quantizes to
/// zero). Returns `None` when a pivot is not strictly positive
/// (indefinite or singular), mirroring the Gauss-Jordan singularity
/// guard, including the exact-zero arm for substrates where the
/// `1e-300` threshold quantizes to zero.
#[cfg(any(test, feature = "test-support"))]
pub fn inverse2_sym<A: Arith>(a: &mut A, s: &[[A::T; 2]; 2]) -> Option<[[A::T; 2]; 2]> {
    let zero = a.num(0.0);
    let tiny = a.num(1e-300);
    inverse2_sym_pivoted(a, s, |a, d| !(a.lt(d, tiny) || a.eq(d, zero)))
}

/// The closed-form SPD 2x2 inverse (`inverse2_sym`) with the pivot
/// test supplied by the caller (`pivot_ok` returns `true` to go on).
/// The lane IEKF tests every lane's pivot, masks the lanes that fail
/// and stops only once none is left ([`crate::lanes::LaneIekf`]).
pub(crate) fn inverse2_sym_pivoted<A: Arith>(
    a: &mut A,
    s: &[[A::T; 2]; 2],
    mut pivot_ok: impl FnMut(&mut A, A::T) -> bool,
) -> Option<[[A::T; 2]; 2]> {
    let one = a.num(1.0);
    let d1 = s[0][0];
    if !pivot_ok(a, d1) {
        return None;
    }
    let l = a.div(s[1][0], d1);
    let lt = a.mul(l, s[0][1]);
    let d2 = a.sub(s[1][1], lt);
    if !pivot_ok(a, d2) {
        return None;
    }
    // S^-1 = [[1/d1 + l^2/d2, -l/d2], [-l/d2, 1/d2]].
    let i11 = a.div(one, d2);
    let nl = a.neg(l);
    let i01 = a.mul(nl, i11);
    let inv_d1 = a.div(one, d1);
    let li01 = a.mul(l, i01); // -l^2/d2
    let i00 = a.sub(inv_d1, li01);
    Some([[i00, i01], [i01, i11]])
}

/// Joseph-form covariance update specialized to the rank-`M`
/// measurement with a scalar-`r I` noise: computes only the upper
/// triangle of `(I - K H) P (I - K H)^T + K (r I) K^T` and mirrors it,
/// skipping the explicit `r I` matrix, the `K (r I)` product and the
/// dense re-symmetrization pass of the reference `joseph_update`.
///
/// The result is exactly symmetric by construction (the invariant the
/// symmetric-`P` fast path of the IEKF relies on). Each unique entry
/// is accumulated in the same mathx order as the dense kernel's
/// upper-triangle entry, so the output tracks the dense
/// `joseph_update` within the re-symmetrization average (~1 ulp scaled
/// to the covariance magnitude — pinned by proptest in
/// `tests/arith_full_filter.rs`). The dense reference for
/// [`crate::filter::joseph_structured`], which specializes it to the
/// measurement Jacobian's known zeros and ones.
#[cfg(any(test, feature = "test-support"))]
pub fn joseph_update_sym<A: Arith, const N: usize, const M: usize>(
    a: &mut A,
    p: &[[A::T; N]; N],
    k: &[[A::T; M]; N],
    h: &[[A::T; N]; M],
    r: A::T,
) -> [[A::T; N]; N] {
    let zero = a.num(0.0);
    let kh = mul(a, k, h);
    let id = identity::<A, N>(a);
    let ikh = sub(a, &id, &kh);
    let ip = mul(a, &ikh, p);
    let mut out = [[zero; N]; N];
    for row in 0..N {
        for col in row..N {
            // (I-KH) P (I-KH)^T entry, same accumulation as mul_nt.
            let mut acc = zero;
            for c in 0..N {
                acc = a.fma(ip[row][c], ikh[col][c], acc);
            }
            // K (r I) K^T entry: r * <K_row, K_col>.
            let mut kk = zero;
            for m in 0..M {
                kk = a.fma(k[row][m], k[col][m], kk);
            }
            let krk = a.mul(kk, r);
            let v = a.add(acc, krk);
            out[row][col] = v;
            out[col][row] = v;
        }
    }
    out
}

/// `true` if the lower-triangle Cholesky factorization succeeds (every
/// pivot strictly positive) — the substrate-generic mirror of
/// `mathx::Cholesky::new(..).is_some()`.
pub fn cholesky_ok<A: Arith, const N: usize>(a: &mut A, m: &[[A::T; N]; N]) -> bool {
    let zero = a.num(0.0);
    let mut l = zeros::<A, N, N>(a);
    for i in 0..N {
        for j in 0..=i {
            let mut sum = m[i][j];
            for k in 0..j {
                let t = a.mul(l[i][k], l[j][k]);
                sum = a.sub(sum, t);
            }
            if i == j {
                if !a.lt(zero, sum) {
                    return false;
                }
                l[i][i] = a.sqrt(sum);
            } else {
                l[i][j] = a.div(sum, l[j][j]);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::F64Arith;
    use mathx::{Matrix, Vector};

    fn to_mathx<const R: usize, const C: usize>(m: [[f64; C]; R]) -> Matrix<R, C> {
        Matrix::new(m)
    }

    #[test]
    fn products_match_mathx_bitwise() {
        let a = [[1.1, -2.2, 0.3], [0.7, 5.5, -1.9]];
        let b = [[0.2, 1.7], [-3.3, 0.9], [4.1, -0.4]];
        let mut ar = F64Arith::default();
        let p = mul(&mut ar, &a, &b);
        let expect = to_mathx(a) * to_mathx(b);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(p[r][c].to_bits(), expect[(r, c)].to_bits());
            }
        }
        let c = [[0.5, -1.25, 2.0], [3.5, 0.75, -0.125]];
        let ct = transpose(&mut ar, &c);
        assert_eq!(ct[2][1], -0.125);
        let pnt = mul_nt(&mut ar, &a, &c);
        let direct: Matrix<2, 2> = to_mathx(a) * to_mathx(c).transpose();
        for r in 0..2 {
            for k in 0..2 {
                assert_eq!(pnt[r][k].to_bits(), direct[(r, k)].to_bits());
            }
        }
    }

    #[test]
    fn inverse_matches_mathx_bitwise() {
        let m = [[4.0, 7.1, 0.3], [2.2, 6.4, -1.0], [0.5, -0.9, 3.3]];
        let mut ar = F64Arith::default();
        let inv = inverse(&mut ar, &m).expect("nonsingular");
        let expect = to_mathx(m).inverse().expect("nonsingular");
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(inv[r][c].to_bits(), expect[(r, c)].to_bits());
            }
        }
        let singular = [[1.0, 2.0], [2.0, 4.0]];
        assert!(inverse(&mut ar, &singular).is_none());
    }

    #[test]
    fn vectors_and_symmetry_match_mathx() {
        let m = [[1.0, 2.5], [2.0, -1.0]];
        let v = [0.4, -0.7];
        let mut ar = F64Arith::default();
        let mv = mat_vec(&mut ar, &m, &v);
        let expect = to_mathx(m) * Vector::new(v);
        assert_eq!(mv[0].to_bits(), expect[0].to_bits());
        assert_eq!(mv[1].to_bits(), expect[1].to_bits());
        let sym = symmetrized(&mut ar, &m);
        let esym = to_mathx(m).symmetrized();
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(sym[r][c].to_bits(), esym[(r, c)].to_bits());
            }
        }
        let asy = asymmetry(&mut ar, &m);
        assert_eq!(asy.to_bits(), to_mathx(m).asymmetry().to_bits());
        assert_eq!(
            vec_max_abs(&mut ar, &v).to_bits(),
            Vector::new(v).max_abs().to_bits()
        );
    }

    #[test]
    fn innovation_cov_matches_dense_sequence_on_unique_entries() {
        let mut ar = F64Arith::default();
        let j = [[1.5, -2.0, 0.25, 0.0, 3.0], [0.5, 1.0, -0.75, 2.0, -1.0]];
        // Symmetric P.
        let mut p = [[0.0; 5]; 5];
        for r in 0..5 {
            for c in 0..5 {
                let v = 0.1 / (1.0 + (r as f64 - c as f64).abs()) + if r == c { 1.0 } else { 0.0 };
                p[r][c] = v;
                p[c][r] = v;
            }
        }
        let r_t = 4.9e-5;
        let jp = mul(&mut ar, &j, &p);
        let s = innovation_cov(&mut ar, &jp, &j, r_t);
        // Dense reference: J P J^T + r I.
        let jpj = mul_nt(&mut ar, &jp, &j);
        let ir = scaled_identity::<F64Arith, 2>(&mut ar, r_t);
        let dense = add(&mut ar, &jpj, &ir);
        assert_eq!(s[0][0].to_bits(), dense[0][0].to_bits());
        assert_eq!(s[0][1].to_bits(), dense[0][1].to_bits());
        assert_eq!(s[1][1].to_bits(), dense[1][1].to_bits());
        // The mirrored entry equals the upper one exactly.
        assert_eq!(s[1][0].to_bits(), s[0][1].to_bits());
    }

    #[test]
    fn inverse2_sym_inverts_spd_and_rejects_indefinite() {
        let mut ar = F64Arith::default();
        let s = [[2.0e-4, 0.5e-4], [0.5e-4, 1.0e-4]];
        let inv = inverse2_sym(&mut ar, &s).expect("SPD");
        // S * S^-1 ~ I.
        let prod = mul(&mut ar, &s, &inv);
        assert!((prod[0][0] - 1.0).abs() < 1e-12);
        assert!((prod[1][1] - 1.0).abs() < 1e-12);
        assert!(prod[0][1].abs() < 1e-12);
        assert!(prod[1][0].abs() < 1e-12);
        assert_eq!(inv[0][1].to_bits(), inv[1][0].to_bits());
        // Non-positive leading pivot: rejected.
        assert!(inverse2_sym(&mut ar, &[[-1.0, 0.0], [0.0, 1.0]]).is_none());
        assert!(inverse2_sym(&mut ar, &[[0.0, 0.0], [0.0, 1.0]]).is_none());
        // Indefinite via the Schur complement: rejected.
        assert!(inverse2_sym(&mut ar, &[[1.0, 2.0], [2.0, 1.0]]).is_none());
        // The Q16.16-critical case: innovation-scale pivots whose adj/det
        // determinant would underflow the fixed-point quantum still invert.
        use crate::arith::QArith;
        let mut q = QArith::<16>::default();
        let sq = [[q.num(6.0e-4), q.num(0.0)], [q.num(0.0), q.num(6.0e-4)]];
        let invq = inverse2_sym(&mut q, &sq).expect("pivot-structured solve survives Q16.16");
        assert!(q.to_f64(invq[0][0]) > 1000.0, "{}", q.to_f64(invq[0][0]));
    }

    #[test]
    fn joseph_update_sym_is_exactly_symmetric_and_tracks_dense() {
        let mut ar = F64Arith::default();
        let mut p = [[0.0; 5]; 5];
        for r in 0..5 {
            for c in 0..5 {
                let v = 0.01 / (1.0 + (r as f64 + c as f64));
                p[r][c] = v;
                p[c][r] = v;
            }
        }
        for i in 0..5 {
            p[i][i] += 0.05;
        }
        let h = [[1.0, -2.0, 0.5, 1.0, 0.0], [0.0, 1.5, -1.0, 0.0, 1.0]];
        let k = transpose(&mut ar, &h);
        let k = scale(&mut ar, &k, 0.01);
        let r_t = 4.9e-5;
        let packed = joseph_update_sym(&mut ar, &p, &k, &h, r_t);
        let dense = joseph_update(&mut ar, &p, &k, &h, r_t);
        let scale_m = dense
            .iter()
            .flatten()
            .fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs()));
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(
                    packed[r][c].to_bits(),
                    packed[c][r].to_bits(),
                    "exact symmetry ({r},{c})"
                );
                assert!(
                    (packed[r][c] - dense[r][c]).abs() <= 4.0 * scale_m * f64::EPSILON,
                    "({r},{c}): packed {} dense {}",
                    packed[r][c],
                    dense[r][c]
                );
            }
        }
    }

    #[test]
    fn cholesky_agrees_with_mathx_on_spd_and_indefinite() {
        let spd = [[4.0, 2.0, 0.4], [2.0, 3.0, 0.1], [0.4, 0.1, 1.5]];
        let mut ar = F64Arith::default();
        assert!(cholesky_ok(&mut ar, &spd));
        assert!(mathx::Cholesky::new(&to_mathx(spd)).is_some());
        let indef = [[1.0, 0.0], [0.0, -1.0]];
        assert!(!cholesky_ok(&mut ar, &indef));
        assert!(mathx::Cholesky::new(&to_mathx(indef)).is_none());
    }
}
