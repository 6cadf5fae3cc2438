//! Kernel bases, fixing DOFs and analytic regularization of the subdomain stiffness
//! matrices.
//!
//! Every Total FETI subdomain floats, so `Kᵢ` is singular: its kernel is spanned by the
//! constant function (heat transfer) or the rigid body modes (elasticity).  The paper
//! regularizes `Kᵢ` analytically (ref. \[11\], "fixing nodes"): a penalty is added to a
//! carefully chosen set of DOFs — exactly `dim(ker Kᵢ)` of them, positioned so that the
//! kernel restricted to these DOFs is nonsingular.  With that choice,
//! `K⁺ᵢ v := K⁻¹ᵢ,reg v` acts as an exact generalized inverse on every consistent
//! right-hand side (`v ⊥ ker Kᵢ`), which is all the FETI algorithm ever feeds it.

use feti_mesh::{Physics, StructuredMesh};
use feti_sparse::{CsrMatrix, DenseMatrix, MemoryOrder};

/// Builds the kernel basis `Rᵢ` of a floating subdomain as a dense
/// `num_dofs x kernel_dim` matrix.
///
/// Heat transfer: the constant vector.  Elasticity: translations plus infinitesimal
/// rotations about the subdomain's first node (using a local origin keeps the entries
/// well scaled regardless of where the subdomain sits in the global domain).
#[must_use]
pub fn kernel_basis(mesh: &StructuredMesh, physics: Physics) -> DenseMatrix {
    let dim = mesh.dim.as_usize();
    let dpn = physics.dofs_per_node(mesh.dim);
    let n_nodes = mesh.num_nodes();
    let n_dofs = n_nodes * dpn;
    let kdim = physics.kernel_dim(mesh.dim);
    let mut r = DenseMatrix::zeros(n_dofs, kdim, MemoryOrder::ColMajor);
    match physics {
        Physics::HeatTransfer => {
            for i in 0..n_dofs {
                r.set(i, 0, 1.0);
            }
        }
        Physics::LinearElasticity => {
            let origin = mesh.coords[0];
            for node in 0..n_nodes {
                let c = mesh.coords[node];
                let x = c[0] - origin[0];
                let y = c[1] - origin[1];
                let z = c[2] - origin[2];
                // translations
                for comp in 0..dim {
                    r.set(node * dpn + comp, comp, 1.0);
                }
                if dim == 2 {
                    // rotation about z: u = (-y, x)
                    r.set(node * dpn, 2, -y);
                    r.set(node * dpn + 1, 2, x);
                } else {
                    // rotation about z: (-y, x, 0)
                    r.set(node * dpn, 3, -y);
                    r.set(node * dpn + 1, 3, x);
                    // rotation about x: (0, -z, y)
                    r.set(node * dpn + 1, 4, -z);
                    r.set(node * dpn + 2, 4, y);
                    // rotation about y: (z, 0, -x)
                    r.set(node * dpn, 5, z);
                    r.set(node * dpn + 2, 5, -x);
                }
            }
        }
    }
    r
}

/// Chooses the fixing DOFs used by the analytic regularization.
///
/// Exactly `kernel_dim` DOFs are returned, positioned so that the kernel basis
/// restricted to them is nonsingular: one arbitrary DOF for heat transfer; for
/// elasticity, DOFs at the subdomain corner plus corners along the x and y edges.
#[must_use]
pub fn fixing_dofs(mesh: &StructuredMesh, physics: Physics) -> Vec<usize> {
    let dim = mesh.dim.as_usize();
    let dpn = physics.dofs_per_node(mesh.dim);
    match physics {
        Physics::HeatTransfer => vec![0],
        Physics::LinearElasticity => {
            // Node A: lattice minimum (corner); node B: maximum x at A's y/z; node C:
            // maximum y at A's x/z.
            let la = mesh.lattice[0];
            let mut node_a = 0usize;
            let mut node_b = 0usize;
            let mut node_c = 0usize;
            let mut best_b = i64::MIN;
            let mut best_c = i64::MIN;
            for (i, l) in mesh.lattice.iter().enumerate() {
                if l[0] <= mesh.lattice[node_a][0]
                    && l[1] <= mesh.lattice[node_a][1]
                    && l[2] <= mesh.lattice[node_a][2]
                {
                    node_a = i;
                }
                if l[1] == la[1] && l[2] == la[2] && l[0] > best_b {
                    best_b = l[0];
                    node_b = i;
                }
                if l[0] == la[0] && l[2] == la[2] && l[1] > best_c {
                    best_c = l[1];
                    node_c = i;
                }
            }
            if dim == 2 {
                vec![node_a * dpn, node_a * dpn + 1, node_b * dpn + 1]
            } else {
                vec![
                    node_a * dpn,
                    node_a * dpn + 1,
                    node_a * dpn + 2,
                    node_b * dpn + 1,
                    node_b * dpn + 2,
                    node_c * dpn + 2,
                ]
            }
        }
    }
}

/// Analytic regularization: returns `Kᵢ,reg = Kᵢ + ρ Σ_{d ∈ fixing} e_d e_dᵀ` with
/// `ρ` equal to the mean diagonal entry of `Kᵢ`.
///
/// # Panics
/// Panics if `k` is not square or a fixing DOF has no stored diagonal entry.
#[must_use]
pub fn regularize(k: &CsrMatrix, fixing: &[usize]) -> CsrMatrix {
    assert_eq!(k.nrows(), k.ncols());
    let n = k.nrows();
    let rho = k.diagonal().iter().sum::<f64>() / n.max(1) as f64;
    let mut reg = k.clone();
    for &d in fixing {
        reg.shift_diagonal(d, rho);
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_mesh::{assemble_subdomain, generate::generate, Dim, ElementOrder, SubdomainSpec};
    use feti_sparse::{blas, ops, Transpose};

    fn mesh(dim: Dim, nel: usize) -> StructuredMesh {
        generate(&SubdomainSpec {
            dim,
            order: ElementOrder::Linear,
            elements_per_side: nel,
            origin_elements: [1, 2, 0],
            cell_size: 0.25,
        })
    }

    #[test]
    fn kernel_is_annihilated_by_stiffness() {
        for (dim, physics) in [
            (Dim::Two, Physics::HeatTransfer),
            (Dim::Three, Physics::HeatTransfer),
            (Dim::Two, Physics::LinearElasticity),
            (Dim::Three, Physics::LinearElasticity),
        ] {
            let m = mesh(dim, 2);
            let asm = assemble_subdomain(&m, physics);
            let r = kernel_basis(&m, physics);
            for c in 0..r.ncols() {
                let col = r.col(c);
                let mut out = vec![0.0; asm.num_dofs()];
                ops::spmv_csr(1.0, &asm.stiffness, Transpose::No, &col, 0.0, &mut out);
                assert!(
                    blas::norm2(&out) < 1e-9,
                    "{dim:?} {physics:?}: kernel column {c} not annihilated"
                );
            }
        }
    }

    #[test]
    fn fixing_dofs_make_kernel_restriction_nonsingular() {
        for (dim, physics) in [
            (Dim::Two, Physics::HeatTransfer),
            (Dim::Two, Physics::LinearElasticity),
            (Dim::Three, Physics::LinearElasticity),
        ] {
            let m = mesh(dim, 3);
            let r = kernel_basis(&m, physics);
            let fixing = fixing_dofs(&m, physics);
            let k = fixing.len();
            assert_eq!(k, physics.kernel_dim(dim));
            // Build the k x k matrix Q^T R and check it is far from singular via a tiny
            // Gaussian elimination.
            let mut q = vec![vec![0.0f64; k]; k];
            for (row, &d) in fixing.iter().enumerate() {
                for (c, qc) in q[row].iter_mut().enumerate() {
                    *qc = r.get(d, c);
                }
            }
            let mut det: f64 = 1.0;
            let mut mat = q.clone();
            for col in 0..k {
                // partial pivot
                let piv = (col..k)
                    .max_by(|&a, &b| mat[a][col].abs().partial_cmp(&mat[b][col].abs()).unwrap())
                    .unwrap();
                mat.swap(col, piv);
                let p = mat[col][col];
                assert!(p.abs() > 1e-8, "{dim:?} {physics:?}: Q^T R is singular");
                det *= p;
                for row in (col + 1)..k {
                    let (head, tail) = mat.split_at_mut(row);
                    let pivot_row = &head[col];
                    let target = &mut tail[0];
                    let f = target[col] / p;
                    for (dst, &src) in target.iter_mut().zip(pivot_row).skip(col) {
                        *dst -= f * src;
                    }
                }
            }
            assert!(det.abs() > 1e-8);
        }
    }

    #[test]
    fn regularized_matrix_is_positive_definite_and_is_generalized_inverse() {
        use feti_solver::{CholeskyFactor, SolverOptions};
        for (dim, physics) in
            [(Dim::Two, Physics::HeatTransfer), (Dim::Two, Physics::LinearElasticity)]
        {
            let m = mesh(dim, 3);
            let asm = assemble_subdomain(&m, physics);
            let fixing = fixing_dofs(&m, physics);
            let k_reg = regularize(&asm.stiffness, &fixing);
            assert!(
                k_reg.row_ptr() == asm.stiffness.row_ptr()
                    && k_reg.col_idx() == asm.stiffness.col_idx(),
                "{dim:?} {physics:?}: K_reg must keep K's sparsity pattern"
            );
            let factor = CholeskyFactor::new(&k_reg, &SolverOptions::default())
                .expect("regularized matrix must be SPD");

            // Check K * Kreg^{-1} * b == b for a consistent b = K w.
            let n = asm.num_dofs();
            let w: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.1 - 0.5).collect();
            let mut b = vec![0.0; n];
            ops::spmv_csr(1.0, &asm.stiffness, Transpose::No, &w, 0.0, &mut b);
            let x = factor.solve(&b);
            let mut kx = vec![0.0; n];
            ops::spmv_csr(1.0, &asm.stiffness, Transpose::No, &x, 0.0, &mut kx);
            let mut diff = 0.0f64;
            for i in 0..n {
                diff = diff.max((kx[i] - b[i]).abs());
            }
            assert!(
                diff < 1e-8,
                "{dim:?} {physics:?}: K_reg^-1 must act as a generalized inverse, diff {diff}"
            );
        }
    }

    #[test]
    fn regularization_only_touches_fixing_diagonals() {
        let m = mesh(Dim::Two, 2);
        let asm = assemble_subdomain(&m, Physics::HeatTransfer);
        let fixing = fixing_dofs(&m, Physics::HeatTransfer);
        let reg = regularize(&asm.stiffness, &fixing);
        assert_eq!(reg.nnz(), asm.stiffness.nnz());
        for (i, j, v) in asm.stiffness.iter() {
            if i == j && fixing.contains(&i) {
                assert!(reg.get(i, j) > v);
            } else {
                assert!((reg.get(i, j) - v).abs() < 1e-14);
            }
        }
    }
}
