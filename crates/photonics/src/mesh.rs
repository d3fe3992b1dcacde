//! Programmable MZI meshes: universal linear optics.
//!
//! The paper's additive operation rests on D.A.B. Miller's result (its
//! refs. \[46\]–\[48\]) that cascaded, self-configured MZIs can implement any
//! linear transformation. This module supplies that substrate:
//!
//! * [`Unitary`] — a dense complex matrix with unitarity checks,
//! * [`MziMesh`] — a triangular (Reck-style) mesh of nearest-neighbour
//!   2×2 rotations (an MZI plus external phase shifters each) synthesized
//!   from an arbitrary target unitary by Givens elimination,
//! * [`BeamCoupler`] — Miller's self-aligning universal beam coupler: a
//!   chain of MZIs configured to funnel an arbitrary input mode vector
//!   into a single output port, the principle behind the OO design's
//!   optical accumulation.

use crate::complex::Complex;

/// A dense `n × n` complex matrix (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Unitary {
    n: usize,
    data: Vec<Complex>,
}

impl Unitary {
    /// The identity.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self {
            n,
            data: vec![Complex::ZERO; n * n],
        };
        for i in 0..n {
            m.set(i, i, Complex::ONE);
        }
        m
    }

    /// The discrete-Fourier-transform unitary `F[j][k] = e^{2πijk/n}/√n` —
    /// a canonical dense unitary for tests and demos.
    #[must_use]
    pub fn dft(n: usize) -> Self {
        #[allow(clippy::cast_precision_loss)]
        let scale = 1.0 / (n as f64).sqrt();
        let mut m = Self::identity(n);
        for j in 0..n {
            for k in 0..n {
                #[allow(clippy::cast_precision_loss)]
                let angle = 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                m.set(j, k, Complex::from_polar(scale, angle));
            }
        }
        m
    }

    /// Dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry `(row, col)`.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Complex {
        // lint:allow(P104) dense n x n storage; row/col < n is the documented contract
        self.data[row * self.n + col]
    }

    /// Sets entry `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, v: Complex) {
        // lint:allow(P104) dense n x n storage; row/col < n is the documented contract
        self.data[row * self.n + col] = v;
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    #[must_use]
    pub fn apply(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        (0..self.n)
            .map(|r| (0..self.n).fold(Complex::ZERO, |acc, c| acc + self.get(r, c) * x[c]))
            .collect()
    }

    /// Conjugate transpose.
    #[must_use]
    pub fn adjoint(&self) -> Self {
        let mut m = Self::identity(self.n);
        for r in 0..self.n {
            for c in 0..self.n {
                m.set(c, r, self.get(r, c).conj());
            }
        }
        m
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn multiply(&self, rhs: &Self) -> Self {
        assert_eq!(self.n, rhs.n, "dimension mismatch");
        let mut m = Self::identity(self.n);
        for r in 0..self.n {
            for c in 0..self.n {
                let v =
                    (0..self.n).fold(Complex::ZERO, |acc, k| acc + self.get(r, k) * rhs.get(k, c));
                m.set(r, c, v);
            }
        }
        m
    }

    /// Checks `‖U·U† − I‖∞ < tol`.
    #[must_use]
    pub fn is_unitary(&self, tol: f64) -> bool {
        let p = self.multiply(&self.adjoint());
        (0..self.n).all(|r| {
            (0..self.n).all(|c| {
                let want = if r == c { Complex::ONE } else { Complex::ZERO };
                (p.get(r, c) - want).norm() < tol
            })
        })
    }

    /// Maximum entry-wise distance to another matrix.
    #[must_use]
    pub fn distance(&self, other: &Self) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0, f64::max)
    }
}

/// One nearest-neighbour 2×2 rotation of the mesh: an MZI with external
/// phase shifters acting on modes `(mode, mode + 1)` with the unitary
/// `[[α, β], [−β*, α*]]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshRotation {
    /// Upper mode index.
    pub mode: usize,
    /// `α` coefficient.
    pub alpha: Complex,
    /// `β` coefficient.
    pub beta: Complex,
}

impl MeshRotation {
    /// The internal MZI splitting angle `θ = atan2(|β|, |α|)`.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.beta.norm().atan2(self.alpha.norm())
    }

    /// Applies the rotation to a mode vector in place.
    pub fn apply(&self, x: &mut [Complex]) {
        let (a, b) = (x[self.mode], x[self.mode + 1]);
        x[self.mode] = self.alpha * a + self.beta * b;
        x[self.mode + 1] = -self.beta.conj() * a + self.alpha.conj() * b;
    }

    /// The inverse (adjoint) rotation.
    #[must_use]
    pub fn adjoint(&self) -> Self {
        Self {
            mode: self.mode,
            alpha: self.alpha.conj(),
            beta: -self.beta,
        }
    }
}

/// A synthesized triangular MZI mesh implementing a target unitary as
/// `U = R₁†·R₂†⋯R_K†·D`: input phases `D` first, then the adjoint
/// rotations in reverse elimination order.
#[derive(Debug, Clone, PartialEq)]
pub struct MziMesh {
    n: usize,
    input_phases: Vec<Complex>,
    rotations: Vec<MeshRotation>,
}

impl MziMesh {
    /// Synthesizes a mesh for `target` by Givens elimination with
    /// nearest-neighbour rotations (Reck-style triangle).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not unitary to 1e-9.
    #[must_use]
    pub fn synthesize(target: &Unitary) -> Self {
        assert!(target.is_unitary(1e-9), "mesh target must be unitary");
        let n = target.dim();
        let mut u = target.clone();
        let mut eliminations: Vec<MeshRotation> = Vec::new();

        // Zero the strict lower triangle column by column, bottom-up,
        // using rotations of adjacent rows (r−1, r).
        for c in 0..n {
            for r in (c + 1..n).rev() {
                let ua = u.get(r - 1, c);
                let ub = u.get(r, c);
                let t = (ua.norm_sqr() + ub.norm_sqr()).sqrt();
                if ub.norm() < 1e-14 {
                    continue;
                }
                let rot = MeshRotation {
                    mode: r - 1,
                    alpha: ua.conj().scale(1.0 / t),
                    beta: ub.conj().scale(1.0 / t),
                };
                // Left-multiply u by the rotation.
                for col in 0..n {
                    let a = u.get(r - 1, col);
                    let b = u.get(r, col);
                    u.set(r - 1, col, rot.alpha * a + rot.beta * b);
                    u.set(r, col, -rot.beta.conj() * a + rot.alpha.conj() * b);
                }
                eliminations.push(rot);
            }
        }

        // What remains is diagonal with unit-modulus entries.
        let input_phases = (0..n).map(|i| u.get(i, i)).collect();
        // U = (adjoint rotations in reverse order) · D.
        let rotations = eliminations
            .into_iter()
            .rev()
            .map(|r| r.adjoint())
            .collect();
        Self {
            n,
            input_phases,
            rotations,
        }
    }

    /// Mesh dimension (mode count).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of physical MZIs in the mesh.
    #[must_use]
    pub fn mzi_count(&self) -> usize {
        self.rotations.len()
    }

    /// Propagates a mode vector through the mesh.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the mesh dimension.
    #[must_use]
    pub fn propagate(&self, input: &[Complex]) -> Vec<Complex> {
        assert_eq!(input.len(), self.n, "dimension mismatch");
        let mut x: Vec<Complex> = input
            .iter()
            .zip(&self.input_phases)
            .map(|(v, p)| *v * *p)
            .collect();
        for rot in &self.rotations {
            rot.apply(&mut x);
        }
        x
    }

    /// Reconstructs the implemented unitary by propagating basis vectors.
    #[must_use]
    pub fn to_unitary(&self) -> Unitary {
        let mut m = Unitary::identity(self.n);
        for c in 0..self.n {
            let mut basis = vec![Complex::ZERO; self.n];
            basis[c] = Complex::ONE;
            for (r, v) in self.propagate(&basis).into_iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }
}

/// Miller's self-aligning universal beam coupler: `n − 1` MZIs in a line,
/// configured so an arbitrary target mode vector exits entirely from the
/// final port — the additive primitive of the OO accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamCoupler {
    rotations: Vec<MeshRotation>,
    n: usize,
}

impl BeamCoupler {
    /// Self-configures the coupler for `target` (Miller's sequential
    /// protocol: each MZI is set to forward all accumulated power).
    ///
    /// # Panics
    ///
    /// Panics if `target` has fewer than 2 modes or zero norm.
    #[must_use]
    pub fn configure_for(target: &[Complex]) -> Self {
        assert!(target.len() >= 2, "need at least two modes to couple");
        let norm: f64 = target.iter().map(|c| c.norm_sqr()).sum();
        assert!(norm > 0.0, "cannot align to a dark input");
        let mut rotations = Vec::with_capacity(target.len() - 1);
        // Accumulated amplitude flows down the chain; MZI k merges it
        // with mode k+1.
        let mut acc = target[0];
        for (k, &next) in target.iter().enumerate().skip(1) {
            let t = (acc.norm_sqr() + next.norm_sqr()).sqrt();
            let rot = if t < 1e-14 {
                MeshRotation {
                    mode: k - 1,
                    alpha: Complex::ONE,
                    beta: Complex::ZERO,
                }
            } else {
                MeshRotation {
                    mode: k - 1,
                    alpha: acc.conj().scale(1.0 / t),
                    beta: next.conj().scale(1.0 / t),
                }
            };
            rotations.push(rot);
            acc = Complex::new(t, 0.0);
        }
        Self {
            rotations,
            n: target.len(),
        }
    }

    /// Number of MZIs in the chain.
    #[must_use]
    pub fn mzi_count(&self) -> usize {
        self.rotations.len()
    }

    /// Couples an input vector through the configured chain. Returns the
    /// full output mode vector; the combined beam exits on the **first**
    /// mode of the last rotation's pair after cascading, which for this
    /// topology is mode `n − 2`'s partner — we report it as
    /// `(combined, residuals)`.
    ///
    /// # Panics
    ///
    /// Panics if the input length mismatches.
    #[must_use]
    pub fn couple(&self, input: &[Complex]) -> (Complex, Vec<Complex>) {
        assert_eq!(input.len(), self.n, "dimension mismatch");
        let mut x = input.to_vec();
        for rot in &self.rotations {
            // The accumulated beam rides on rot.mode; the merged output
            // continues on rot.mode + 1's slot… keep the chain convention:
            // output lands on x[rot.mode], then we swap it forward.
            rot.apply(&mut x);
            x.swap(rot.mode, rot.mode + 1);
        }
        let combined = x[self.n - 1];
        let residuals = x[..self.n - 1].to_vec();
        (combined, residuals)
    }

    /// Coupling efficiency for `input`: fraction of input power exiting
    /// the combined port.
    #[must_use]
    pub fn efficiency(&self, input: &[Complex]) -> f64 {
        let power_in: f64 = input.iter().map(|c| c.norm_sqr()).sum();
        // lint:allow(D003) exact dark-input sentinel, not a computed comparison
        if power_in == 0.0 {
            return 0.0;
        }
        let (combined, _) = self.couple(input);
        combined.norm_sqr() / power_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_units::rng::SplitMix64;

    fn random_vector(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
            .collect()
    }

    /// Random unitary via Gram-Schmidt on a random complex matrix.
    fn random_unitary(n: usize, seed: u64) -> Unitary {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut rows: Vec<Vec<Complex>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
                    .collect()
            })
            .collect();
        for i in 0..n {
            for j in 0..i {
                let proj = rows[i]
                    .iter()
                    .zip(&rows[j])
                    .fold(Complex::ZERO, |acc, (a, b)| acc + *a * b.conj());
                let adjustments: Vec<Complex> = rows[j].iter().map(|&v| proj * v).collect();
                for (value, adj) in rows[i].iter_mut().zip(adjustments) {
                    *value = *value - adj;
                }
            }
            let norm: f64 = rows[i].iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
            for v in &mut rows[i] {
                *v = v.scale(1.0 / norm);
            }
        }
        Unitary {
            n,
            data: rows.into_iter().flatten().collect(),
        }
    }

    #[test]
    fn dft_is_unitary() {
        for n in [2, 3, 4, 8] {
            assert!(Unitary::dft(n).is_unitary(1e-9), "DFT({n})");
        }
    }

    #[test]
    fn mesh_reconstructs_dft() {
        for n in [2, 4, 8] {
            let target = Unitary::dft(n);
            let mesh = MziMesh::synthesize(&target);
            let got = mesh.to_unitary();
            assert!(got.distance(&target) < 1e-9, "DFT({n})");
        }
    }

    #[test]
    fn mesh_reconstructs_random_unitaries() {
        for seed in 0..5 {
            let target = random_unitary(6, seed);
            assert!(target.is_unitary(1e-8));
            let mesh = MziMesh::synthesize(&target);
            assert!(mesh.to_unitary().distance(&target) < 1e-8, "seed {seed}");
        }
    }

    #[test]
    fn mesh_size_is_reck_triangle() {
        // A full Reck triangle needs n(n−1)/2 MZIs.
        let mesh = MziMesh::synthesize(&random_unitary(6, 42));
        assert_eq!(mesh.mzi_count(), 6 * 5 / 2);
    }

    #[test]
    fn mesh_propagation_matches_matrix_action() {
        let target = random_unitary(5, 7);
        let mesh = MziMesh::synthesize(&target);
        let x = random_vector(5, 8);
        let via_mesh = mesh.propagate(&x);
        let via_matrix = target.apply(&x);
        for (a, b) in via_mesh.iter().zip(&via_matrix) {
            assert!((*a - *b).norm() < 1e-8);
        }
    }

    #[test]
    fn mesh_preserves_power() {
        let mesh = MziMesh::synthesize(&random_unitary(4, 3));
        let x = random_vector(4, 4);
        let y = mesh.propagate(&x);
        let pin: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let pout: f64 = y.iter().map(|c| c.norm_sqr()).sum();
        assert!((pin - pout).abs() < 1e-9);
    }

    #[test]
    fn beam_coupler_captures_all_power_of_its_target() {
        for seed in 0..5 {
            let target = random_vector(6, seed);
            let coupler = BeamCoupler::configure_for(&target);
            assert_eq!(coupler.mzi_count(), 5);
            let eff = coupler.efficiency(&target);
            assert!((eff - 1.0).abs() < 1e-9, "seed {seed}: efficiency {eff}");
            let (_, residuals) = coupler.couple(&target);
            assert!(residuals.iter().all(|r| r.norm() < 1e-7));
        }
    }

    #[test]
    fn beam_coupler_equal_inputs_model_additive_combining() {
        // The OO accumulate case: equal-phase pulses on every port.
        let ones = vec![Complex::ONE; 4];
        let coupler = BeamCoupler::configure_for(&ones);
        let (combined, _) = coupler.couple(&ones);
        // 4 unit-power pulses combine into one 4-unit-power beam.
        assert!((combined.norm_sqr() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn beam_coupler_rejects_orthogonal_inputs() {
        let target = vec![Complex::ONE, Complex::ONE];
        let coupler = BeamCoupler::configure_for(&target);
        // (1, −1) is orthogonal to (1, 1): nothing exits the combined port.
        let orth = vec![Complex::ONE, -Complex::ONE];
        assert!(coupler.efficiency(&orth) < 1e-12);
    }

    #[test]
    fn beam_coupler_handles_sparse_targets() {
        let target = vec![Complex::ZERO, Complex::ONE, Complex::ZERO, Complex::ONE];
        let coupler = BeamCoupler::configure_for(&target);
        assert!((coupler.efficiency(&target) - 1.0).abs() < 1e-9);
    }
}
