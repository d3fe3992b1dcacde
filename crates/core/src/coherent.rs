//! A coherent nanophotonic matrix engine — the related-work comparator.
//!
//! The paper's §VI-B contrasts PIXEL with programmable-photonics designs
//! built from MZI meshes (Shen et al.'s coherent circuits, Miller's
//! couplers). This module implements that alternative so the comparison
//! is concrete: an arbitrary real weight matrix `W` is factored as
//! `W = U·Σ·Vᵀ` (one-sided Jacobi SVD), `U` and `Vᵀ` are synthesized as
//! Reck meshes, and `Σ` becomes a row of attenuators normalized to the
//! largest singular value (a passive mesh can only attenuate). The engine
//! then applies `W` to analog-encoded vectors at the speed of light —
//! trading PIXEL's bit-exact integer arithmetic for analog precision.

use pixel_photonics::complex::Complex;
use pixel_photonics::mesh::{MziMesh, Unitary};

/// Convergence threshold of the Jacobi sweeps.
const JACOBI_TOL: f64 = 1e-12;

/// Maximum Jacobi sweeps before giving up (well-conditioned matrices
/// converge in a handful).
const MAX_SWEEPS: usize = 64;

/// Result of a real SVD `W = U·diag(σ)·Vᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Svd {
    /// Left singular vectors (orthogonal, column-major as row-major
    /// `Unitary`).
    pub u: Unitary,
    /// Singular values, descending order not guaranteed.
    pub sigma: Vec<f64>,
    /// Right singular vectors `V` (the engine applies `Vᵀ`).
    pub v: Unitary,
}

/// One-sided Jacobi SVD of a square real matrix (rows of `w`).
///
/// # Panics
///
/// Panics if `w` is empty or not square.
#[must_use]
pub fn jacobi_svd(w: &[Vec<f64>]) -> Svd {
    let n = w.len();
    assert!(n > 0, "matrix must be non-empty");
    assert!(w.iter().all(|r| r.len() == n), "matrix must be square");

    // Work on columns: a[j][i] = w[i][j].
    let mut a: Vec<Vec<f64>> = (0..n).map(|j| (0..n).map(|i| w[i][j]).collect()).collect();
    let mut v: Vec<Vec<f64>> = (0..n)
        .map(|j| (0..n).map(|i| f64::from(u8::from(i == j))).collect())
        .collect();

    for _ in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let alpha: f64 = a[p].iter().map(|x| x * x).sum();
                let beta: f64 = a[q].iter().map(|x| x * x).sum();
                let gamma: f64 = a[p].iter().zip(&a[q]).map(|(x, y)| x * y).sum();
                if gamma.abs() <= JACOBI_TOL * (alpha * beta).sqrt().max(JACOBI_TOL) {
                    continue;
                }
                off = off.max(gamma.abs());
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..n {
                    let (ap, aq) = (a[p][i], a[q][i]);
                    a[p][i] = c * ap - s * aq;
                    a[q][i] = s * ap + c * aq;
                    let (vp, vq) = (v[p][i], v[q][i]);
                    v[p][i] = c * vp - s * vq;
                    v[q][i] = s * vp + c * vq;
                }
            }
        }
        if off < JACOBI_TOL {
            break;
        }
    }

    // Column norms are the singular values; normalized columns form U.
    let sigma: Vec<f64> = a
        .iter()
        .map(|col| col.iter().map(|x| x * x).sum::<f64>().sqrt())
        .collect();
    // Normalize the full-rank columns first; null-σ columns are then
    // completed to an orthonormal basis against *all* kept columns.
    let rank_tol = 1e-10 * sigma.iter().copied().fold(1.0f64, f64::max);
    let mut u_cols: Vec<Option<Vec<f64>>> = a
        .iter()
        .enumerate()
        .map(|(j, col)| (sigma[j] > rank_tol).then(|| col.iter().map(|x| x / sigma[j]).collect()))
        .collect();
    for j in 0..n {
        if u_cols[j].is_some() {
            continue;
        }
        // Gram-Schmidt over the standard basis, picking the
        // best-conditioned candidate orthogonal to every kept column.
        let mut best: Option<Vec<f64>> = None;
        let mut best_norm = 0.0f64;
        for k in 0..n {
            let mut e = vec![0.0; n];
            e[k] = 1.0;
            for existing in u_cols.iter().flatten() {
                let proj: f64 = existing.iter().zip(&e).map(|(a, b)| a * b).sum();
                for (ev, &xv) in e.iter_mut().zip(existing) {
                    *ev -= proj * xv;
                }
            }
            let norm = e.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > best_norm {
                best_norm = norm;
                best = Some(e.iter().map(|x| x / norm).collect());
            }
        }
        // lint:allow(P002) Gram-Schmidt over the standard basis always yields a completion
        u_cols[j] = Some(best.expect("an orthogonal completion always exists"));
    }
    // lint:allow(P002) every column was filled by the completion loop above
    let u_cols: Vec<Vec<f64>> = u_cols.into_iter().map(|c| c.expect("filled")).collect();

    let to_unitary = |cols: &Vec<Vec<f64>>| {
        let mut m = Unitary::identity(n);
        for (j, col) in cols.iter().enumerate() {
            for (i, &x) in col.iter().enumerate() {
                m.set(i, j, Complex::new(x, 0.0));
            }
        }
        m
    };
    Svd {
        u: to_unitary(&u_cols),
        sigma,
        v: to_unitary(&v),
    }
}

/// A coherent matrix-vector engine: mesh(`Vᵀ`) → attenuators → mesh(`U`).
#[derive(Debug, Clone, PartialEq)]
pub struct CoherentEngine {
    v_t_mesh: MziMesh,
    u_mesh: MziMesh,
    attenuations: Vec<f64>,
    scale: f64,
    dim: usize,
}

impl CoherentEngine {
    /// Synthesizes an engine implementing the real matrix `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is empty or not square.
    #[must_use]
    pub fn synthesize(w: &[Vec<f64>]) -> Self {
        let n = w.len();
        let svd = jacobi_svd(w);
        let sigma_max = svd.sigma.iter().copied().fold(0.0f64, f64::max).max(1e-30);
        let attenuations: Vec<f64> = svd.sigma.iter().map(|s| s / sigma_max).collect();
        Self {
            v_t_mesh: MziMesh::synthesize(&svd.v.adjoint()),
            u_mesh: MziMesh::synthesize(&svd.u),
            attenuations,
            scale: sigma_max,
            dim: n,
        }
    }

    /// Mode count.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Physical MZI count: both meshes (the attenuator row reuses one MZI
    /// port each, counted with the `U` mesh in hardware).
    #[must_use]
    pub fn mzi_count(&self) -> usize {
        self.v_t_mesh.mzi_count() + self.u_mesh.mzi_count()
    }

    /// Per-mode attenuator settings (all in `[0, 1]`: passive optics).
    #[must_use]
    pub fn attenuations(&self) -> &[f64] {
        &self.attenuations
    }

    /// Applies the matrix to a real vector through the optical path.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let modes: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let after_vt = self.v_t_mesh.propagate(&modes);
        let attenuated: Vec<Complex> = after_vt
            .iter()
            .zip(&self.attenuations)
            .map(|(m, &a)| m.scale(a))
            .collect();
        let out = self.u_mesh.propagate(&attenuated);
        out.iter().map(|c| c.re * self.scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_units::rng::SplitMix64;

    fn random_matrix(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..n).map(|_| rng.range_f64(-2.0, 2.0)).collect())
            .collect()
    }

    fn matvec(w: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        w.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn svd_reconstructs_the_matrix() {
        for seed in 0..4 {
            let w = random_matrix(5, seed);
            let svd = jacobi_svd(&w);
            assert!(svd.u.is_unitary(1e-8), "U orthogonal");
            assert!(svd.v.is_unitary(1e-8), "V orthogonal");
            // Reconstruct: W = U·Σ·Vᵀ, checked entrywise.
            let n = w.len();
            for (i, row) in w.iter().enumerate() {
                for (j, &expected) in row.iter().enumerate() {
                    let mut acc = 0.0;
                    for k in 0..n {
                        acc += svd.u.get(i, k).re * svd.sigma[k] * svd.v.get(j, k).re;
                    }
                    assert!((acc - expected).abs() < 1e-8, "seed {seed} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn singular_values_are_nonnegative() {
        let svd = jacobi_svd(&random_matrix(6, 9));
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn engine_applies_the_matrix() {
        for seed in 0..4 {
            let w = random_matrix(4, seed);
            let engine = CoherentEngine::synthesize(&w);
            let mut rng = SplitMix64::seed_from_u64(seed + 100);
            let x: Vec<f64> = (0..4).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let optical = engine.apply(&x);
            let reference = matvec(&w, &x);
            for (a, b) in optical.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-7, "seed {seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn attenuators_are_passive() {
        let engine = CoherentEngine::synthesize(&random_matrix(5, 3));
        assert!(engine
            .attenuations()
            .iter()
            .all(|&a| (0.0..=1.0 + 1e-12).contains(&a)));
        assert!(engine.scale > 0.0);
    }

    #[test]
    fn identity_matrix_needs_no_attenuation() {
        let n = 4;
        let eye: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| f64::from(u8::from(i == j))).collect())
            .collect();
        let engine = CoherentEngine::synthesize(&eye);
        assert!(engine
            .attenuations()
            .iter()
            .all(|&a| (a - 1.0).abs() < 1e-9));
        let x = vec![0.3, -0.7, 0.1, 0.9];
        let y = engine.apply(&x);
        for (a, b) in y.iter().zip(&x) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn mesh_budget_is_two_reck_triangles() {
        let engine = CoherentEngine::synthesize(&random_matrix(6, 1));
        assert_eq!(engine.mzi_count(), 2 * (6 * 5 / 2));
    }

    #[test]
    fn rank_deficient_matrix_is_handled() {
        // Rank-1 outer product.
        let u = [1.0, 2.0, -1.0];
        let v = [0.5, -1.0, 2.0];
        let w: Vec<Vec<f64>> = u
            .iter()
            .map(|&a| v.iter().map(|&b| a * b).collect())
            .collect();
        let engine = CoherentEngine::synthesize(&w);
        let x = vec![1.0, 1.0, 1.0];
        let optical = engine.apply(&x);
        let reference = matvec(&w, &x);
        for (a, b) in optical.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }
}
