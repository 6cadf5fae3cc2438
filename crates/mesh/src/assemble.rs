//! FEM assembly of subdomain stiffness matrices and load vectors.
//!
//! Supports scalar heat transfer (unit conductivity, unit volumetric source) and
//! isotropic linear elasticity (E = 1, ν = 0.3, unit body force along the last axis).
//! The material constants are fixed because the paper's experiments only depend on the
//! *structure* of the matrices, not on particular material values.

use crate::generate::StructuredMesh;
use crate::shape::{nodes_per_element, quadrature, shape_gradients, shape_values};
use crate::{Dim, Physics};
use feti_sparse::{CooMatrix, CsrAssembly, CsrMatrix};

/// Young's modulus used for elasticity assembly.
pub const YOUNG_MODULUS: f64 = 1.0;
/// Poisson ratio used for elasticity assembly.
pub const POISSON_RATIO: f64 = 0.3;

/// An assembled subdomain: stiffness matrix, load vector and DOF layout.
#[derive(Debug, Clone)]
pub struct AssembledSubdomain {
    /// Subdomain stiffness matrix `Kᵢ` (symmetric, typically singular before
    /// regularization because the subdomain floats).
    pub stiffness: CsrMatrix,
    /// Subdomain load vector `fᵢ`.
    pub load: Vec<f64>,
    /// Degrees of freedom per node.
    pub dofs_per_node: usize,
    /// Number of nodes (DOF count = `num_nodes * dofs_per_node`).
    pub num_nodes: usize,
}

impl AssembledSubdomain {
    /// Total number of degrees of freedom.
    #[must_use]
    pub fn num_dofs(&self) -> usize {
        self.num_nodes * self.dofs_per_node
    }
}

/// Assembles the stiffness matrix and load vector of one subdomain mesh for the given
/// physics: the one-mesh case of [`assemble_subdomains`].
#[must_use]
pub fn assemble_subdomain(mesh: &StructuredMesh, physics: Physics) -> AssembledSubdomain {
    let mut assembled = assemble_subdomains(std::slice::from_ref(mesh), physics);
    assembled.pop().expect("one mesh assembles into one subdomain")
}

/// Assembles every mesh of `meshes` for the given physics, in order.
///
/// Each subdomain's element triplets go to CSR through a [`CsrAssembly`]; a map is
/// built once per distinct sequence of surviving triplet indices and replayed on every
/// later mesh whose sequence equals it, so each result is bit for bit what
/// `CooMatrix::to_csr` of its own triplets gives.
#[must_use]
pub fn assemble_subdomains(meshes: &[StructuredMesh], physics: Physics) -> Vec<AssembledSubdomain> {
    let mut maps: Vec<CsrAssembly> = Vec::new();
    meshes
        .iter()
        .map(|mesh| {
            let (triplets, load) = element_triplets(mesh, physics);
            let known = maps.iter().position(|m| m.matches(&triplets));
            let map = known.unwrap_or_else(|| {
                maps.push(CsrAssembly::new(&triplets));
                maps.len() - 1
            });
            AssembledSubdomain {
                stiffness: maps[map].apply(&triplets),
                load,
                dofs_per_node: physics.dofs_per_node(mesh.dim),
                num_nodes: mesh.num_nodes(),
            }
        })
        .collect()
}

/// The reference shape gradients (`node * dim + axis`) and values at one quadrature
/// point.
struct Tabulated {
    weight: f64,
    grads: Vec<f64>,
    values: Vec<f64>,
}

/// Integrates every element of `mesh` and returns its stiffness triplets (the entries
/// that are not exactly `0.0`, element by element) and the assembled load vector.
fn element_triplets(mesh: &StructuredMesh, physics: Physics) -> (CooMatrix, Vec<f64>) {
    let dim = mesh.dim.as_usize();
    let dofs_per_node = physics.dofs_per_node(mesh.dim);
    let n_dofs = mesh.num_nodes() * dofs_per_node;
    let npe = nodes_per_element(mesh.dim, mesh.order);
    let edofs = npe * dofs_per_node;

    let points: Vec<Tabulated> = quadrature(mesh.dim)
        .iter()
        .map(|qp| Tabulated {
            weight: qp.weight,
            grads: shape_gradients(mesh.dim, mesh.order, qp.xi),
            values: shape_values(mesh.dim, mesh.order, qp.xi),
        })
        .collect();
    let mut coo = CooMatrix::with_capacity(n_dofs, n_dofs, mesh.num_elements() * edofs * edofs);
    let mut load = vec![0.0f64; n_dofs];

    let d_matrix = elasticity_d(mesh.dim);
    let nstrain = if dim == 2 { 3 } else { 6 };
    let mut ke = vec![0.0f64; edofs * edofs];
    let mut fe = vec![0.0f64; edofs];
    let mut grads = vec![0.0f64; npe * dim];
    // Elasticity's strain-displacement matrix B (nstrain x edofs): every point writes
    // the same entries, the others stay 0, and `b_cols[t]` lists row t's written ones.
    let mut bmat = vec![0.0f64; nstrain * edofs];
    let mut b_cols = vec![Vec::new(); nstrain];
    for &(t, comp, _) in strain_entries(mesh.dim) {
        b_cols[t].extend((0..npe).map(|k| k * dim + comp));
    }

    for conn in &mesh.elements {
        ke.iter_mut().for_each(|v| *v = 0.0);
        fe.iter_mut().for_each(|v| *v = 0.0);
        for point in &points {
            let grads_ref = &point.grads;
            let values = &point.values;
            // Jacobian J[r][c] = sum_k coords[conn[k]][r] * dN_k/dxi_c
            let mut jac = [[0.0f64; 3]; 3];
            for (k, &node) in conn.iter().enumerate() {
                let x = mesh.coords[node];
                for r in 0..dim {
                    for c in 0..dim {
                        jac[r][c] += x[r] * grads_ref[k * dim + c];
                    }
                }
            }
            let (jinv, detj) = invert_jacobian(&jac, dim);
            let w = point.weight * detj.abs();
            // Physical gradients: dN_k/dx_r = sum_c dN_k/dxi_c * Jinv[c][r]
            for k in 0..npe {
                for r in 0..dim {
                    let mut acc = 0.0;
                    for c in 0..dim {
                        acc += grads_ref[k * dim + c] * jinv[c][r];
                    }
                    grads[k * dim + r] = acc;
                }
            }
            match physics {
                Physics::HeatTransfer => {
                    for a in 0..npe {
                        for b in 0..npe {
                            let mut acc = 0.0;
                            for r in 0..dim {
                                acc += grads[a * dim + r] * grads[b * dim + r];
                            }
                            ke[a * edofs + b] += w * acc;
                        }
                        fe[a] += w * values[a]; // unit volumetric heat source
                    }
                }
                Physics::LinearElasticity => {
                    for &(t, comp, axis) in strain_entries(mesh.dim) {
                        for k in 0..npe {
                            bmat[t * edofs + k * dim + comp] = grads[k * dim + axis];
                        }
                    }
                    // Ke += w * B^T D B over B's written entries only.  A zero factor
                    // adds ±0.0, which changes no bit: `ke` starts at +0.0 and a
                    // round-to-nearest sum never turns +0.0 into −0.0, so every zero
                    // term (of B or of D) is skipped.
                    for a in 0..edofs {
                        for s in 0..nstrain {
                            if bmat[s * edofs + a] == 0.0 {
                                continue;
                            }
                            let ba = bmat[s * edofs + a];
                            for t in 0..nstrain {
                                let dst = d_matrix[s * 6 + t];
                                if dst == 0.0 {
                                    continue;
                                }
                                let coeff = w * ba * dst;
                                for &b in &b_cols[t] {
                                    ke[a * edofs + b] += coeff * bmat[t * edofs + b];
                                }
                            }
                        }
                        // Unit body force along the last axis.
                        let node = a / dim;
                        let comp = a % dim;
                        if comp == dim - 1 {
                            fe[a] -= w * values[node];
                        }
                    }
                }
            }
        }
        // Scatter the element matrix into the global triplets.
        for (a_local, &na) in conn.iter().enumerate() {
            for ca in 0..dofs_per_node {
                let ga = na * dofs_per_node + ca;
                let ea = a_local * dofs_per_node + ca;
                load[ga] += fe[ea];
                for (b_local, &nb) in conn.iter().enumerate() {
                    for cb in 0..dofs_per_node {
                        let gb = nb * dofs_per_node + cb;
                        let eb = b_local * dofs_per_node + cb;
                        let v = ke[ea * edofs + eb];
                        if v != 0.0 {
                            coo.push(ga, gb, v);
                        }
                    }
                }
            }
        }
    }

    (coo, load)
}

/// The entries of the strain-displacement matrix `B` that a node writes: strain row,
/// displacement component (the column within the node's block) and the axis of the
/// shape gradient stored there.
fn strain_entries(dim: Dim) -> &'static [(usize, usize, usize)] {
    match dim {
        // eps_xx, eps_yy, gamma_xy
        Dim::Two => &[(0, 0, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0)],
        // eps_xx, eps_yy, eps_zz, gamma_xy, gamma_yz, gamma_zx
        Dim::Three => &[
            (0, 0, 0),
            (1, 1, 1),
            (2, 2, 2),
            (3, 0, 1),
            (3, 1, 0),
            (4, 1, 2),
            (4, 2, 1),
            (5, 0, 2),
            (5, 2, 0),
        ],
    }
}

/// Isotropic elasticity constitutive matrix, stored as a padded 6x6 row-major array
/// (2D uses the top-left 3x3 plane-strain block).
fn elasticity_d(dim: Dim) -> [f64; 36] {
    let e = YOUNG_MODULUS;
    let nu = POISSON_RATIO;
    let mut d = [0.0f64; 36];
    match dim {
        Dim::Two => {
            // Plane strain.
            let c = e / ((1.0 + nu) * (1.0 - 2.0 * nu));
            d[0] = c * (1.0 - nu);
            d[1] = c * nu;
            d[6] = c * nu;
            d[7] = c * (1.0 - nu);
            d[14] = c * (1.0 - 2.0 * nu) / 2.0;
        }
        Dim::Three => {
            let c = e / ((1.0 + nu) * (1.0 - 2.0 * nu));
            let g = e / (2.0 * (1.0 + nu));
            for i in 0..3 {
                for j in 0..3 {
                    d[i * 6 + j] = if i == j { c * (1.0 - nu) } else { c * nu };
                }
                d[(i + 3) * 6 + (i + 3)] = g;
            }
        }
    }
    d
}

/// Inverts the dim x dim Jacobian and returns (inverse, determinant).
fn invert_jacobian(j: &[[f64; 3]; 3], dim: usize) -> ([[f64; 3]; 3], f64) {
    let mut inv = [[0.0f64; 3]; 3];
    if dim == 2 {
        let det = j[0][0] * j[1][1] - j[0][1] * j[1][0];
        assert!(det.abs() > 1e-300, "degenerate element (zero Jacobian)");
        inv[0][0] = j[1][1] / det;
        inv[0][1] = -j[0][1] / det;
        inv[1][0] = -j[1][0] / det;
        inv[1][1] = j[0][0] / det;
        (inv, det)
    } else {
        let det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
            - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
            + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
        assert!(det.abs() > 1e-300, "degenerate element (zero Jacobian)");
        let c = |a: usize, b: usize, cc: usize, d: usize| j[a][b] * j[cc][d] - j[a][d] * j[cc][b];
        inv[0][0] = c(1, 1, 2, 2) / det;
        inv[0][1] = -c(0, 1, 2, 2) / det;
        inv[0][2] = c(0, 1, 1, 2) / det;
        inv[1][0] = -c(1, 0, 2, 2) / det;
        inv[1][1] = c(0, 0, 2, 2) / det;
        inv[1][2] = -c(0, 0, 1, 2) / det;
        inv[2][0] = c(1, 0, 2, 1) / det;
        inv[2][1] = -c(0, 0, 2, 1) / det;
        inv[2][2] = c(0, 0, 1, 1) / det;
        (inv, det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, SubdomainSpec};
    use crate::ElementOrder;
    use feti_sparse::blas::norm2;
    use feti_sparse::ops::spmv_csr;
    use feti_sparse::Transpose;

    fn mesh(dim: Dim, order: ElementOrder, nel: usize) -> StructuredMesh {
        generate(&SubdomainSpec {
            dim,
            order,
            elements_per_side: nel,
            origin_elements: [0, 0, 0],
            cell_size: 1.0 / nel as f64,
        })
    }

    fn kernel_residual(sub: &AssembledSubdomain, mode: &[f64]) -> f64 {
        let mut r = vec![0.0; sub.num_dofs()];
        spmv_csr(1.0, &sub.stiffness, Transpose::No, mode, 0.0, &mut r);
        norm2(&r)
    }

    #[test]
    fn heat_stiffness_is_symmetric_with_constant_kernel() {
        for dim in [Dim::Two, Dim::Three] {
            for order in [ElementOrder::Linear, ElementOrder::Quadratic] {
                let m = mesh(dim, order, 2);
                let sub = assemble_subdomain(&m, Physics::HeatTransfer);
                let k = &sub.stiffness;
                // symmetry
                for (i, j, v) in k.iter() {
                    assert!((v - k.get(j, i)).abs() < 1e-10, "{dim:?} {order:?}");
                }
                // constant vector in the kernel (floating subdomain, pure Neumann)
                let ones = vec![1.0; sub.num_dofs()];
                assert!(
                    kernel_residual(&sub, &ones) < 1e-10,
                    "{dim:?} {order:?}: constants must be in the kernel"
                );
                // load = integral of source = volume of the domain (unit cube/square)
                let total: f64 = sub.load.iter().sum();
                assert!((total - 1.0).abs() < 1e-10, "{dim:?} {order:?}: load sum {total}");
            }
        }
    }

    #[test]
    fn elasticity_stiffness_has_rigid_body_modes_in_kernel() {
        for dim in [Dim::Two, Dim::Three] {
            let m = mesh(dim, ElementOrder::Linear, 2);
            let sub = assemble_subdomain(&m, Physics::LinearElasticity);
            let d = dim.as_usize();
            // translations
            for comp in 0..d {
                let mut mode = vec![0.0; sub.num_dofs()];
                for n in 0..sub.num_nodes {
                    mode[n * d + comp] = 1.0;
                }
                assert!(kernel_residual(&sub, &mode) < 1e-9, "{dim:?} translation {comp}");
            }
            // one in-plane rotation: u = (-y, x, 0)
            let mut rot = vec![0.0; sub.num_dofs()];
            for n in 0..sub.num_nodes {
                let c = m.coords[n];
                rot[n * d] = -c[1];
                rot[n * d + 1] = c[0];
            }
            assert!(kernel_residual(&sub, &rot) < 1e-9, "{dim:?} rotation");
        }
    }

    #[test]
    fn heat_stiffness_matches_known_laplacian_energy() {
        // For the unit square with u = x, the energy 0.5 u^T K u must be 0.5 * |grad|^2
        // * area = 0.5.
        let m = mesh(Dim::Two, ElementOrder::Quadratic, 3);
        let sub = assemble_subdomain(&m, Physics::HeatTransfer);
        let u: Vec<f64> = (0..sub.num_nodes).map(|n| m.coords[n][0]).collect();
        let mut ku = vec![0.0; sub.num_dofs()];
        spmv_csr(1.0, &sub.stiffness, Transpose::No, &u, 0.0, &mut ku);
        let energy = 0.5 * feti_sparse::blas::dot(&u, &ku);
        assert!((energy - 0.5).abs() < 1e-10, "energy = {energy}");
    }

    #[test]
    fn elasticity_energy_of_uniform_extension_is_positive() {
        let m = mesh(Dim::Three, ElementOrder::Linear, 2);
        let sub = assemble_subdomain(&m, Physics::LinearElasticity);
        let mut u = vec![0.0; sub.num_dofs()];
        for n in 0..sub.num_nodes {
            u[n * 3] = m.coords[n][0]; // uniform strain eps_xx = 1
        }
        let mut ku = vec![0.0; sub.num_dofs()];
        spmv_csr(1.0, &sub.stiffness, Transpose::No, &u, 0.0, &mut ku);
        let energy = 0.5 * feti_sparse::blas::dot(&u, &ku);
        assert!(energy > 0.1, "uniform extension must store energy, got {energy}");
    }

    #[test]
    fn heat_3d_quadratic_pattern_depends_on_the_values_that_round_to_zero() {
        // A characterization, not a contract: an element entry is stored only
        // `if v != 0.0`, and on quadratic tetrahedra thousands of structural zeros come
        // out as rounding residue (|v| ~ 1e-19) — or as exactly 0.0, depending on the
        // coordinates the subdomain's origin feeds the quadrature.  So two subdomains
        // of one decomposition (2×2×2 × 6 elements, the first and the last) with one
        // mesh topology get two sparsity patterns, and everything that one of them
        // stores and the other does not is such residue.  The pattern must become
        // structural (every element entry pushed) before "values change, the structure
        // stays" can be promised; that changes the heat 3D graphs and with them every
        // pinned heat 3D bit (ROADMAP item 1(b)).
        let subdomain = |origin: usize| {
            let mesh = generate(&SubdomainSpec {
                dim: Dim::Three,
                order: ElementOrder::Quadratic,
                elements_per_side: 6,
                origin_elements: [origin; 3],
                cell_size: 1.0 / 12.0,
            });
            assemble_subdomain(&mesh, Physics::HeatTransfer).stiffness
        };
        let (first, last) = (subdomain(0), subdomain(6));
        assert_eq!(first.nrows(), last.nrows());
        assert_ne!(first.col_idx(), last.col_idx(), "the patterns coincide: re-pin and share");
        let surplus = |a: &CsrMatrix, b: &CsrMatrix| {
            let only_in_a = a.iter().filter(|&(i, j, _)| !b.row_cols(i).contains(&j));
            let values: Vec<f64> = only_in_a.map(|(_, _, v)| v).collect();
            assert!(values.iter().all(|v| v.abs() < 1e-14), "a surplus entry carries weight");
            values.len()
        };
        assert!(surplus(&first, &last) + surplus(&last, &first) > 0);
    }

    /// The meshes of a `side`-per-axis decomposition of the unit square or cube into
    /// subdomains of `nel` elements per side, as `feti-decompose` generates them.
    fn grid(dim: Dim, order: ElementOrder, side: usize, nel: usize) -> Vec<StructuredMesh> {
        let axes = dim.as_usize();
        (0..side.pow(axes as u32))
            .map(|idx| {
                let mut origin = [0; 3];
                for (axis, o) in origin.iter_mut().enumerate().take(axes) {
                    *o = idx / side.pow(axis as u32) % side * nel;
                }
                generate(&SubdomainSpec {
                    dim,
                    order,
                    elements_per_side: nel,
                    origin_elements: origin,
                    cell_size: 1.0 / (side * nel) as f64,
                })
            })
            .collect()
    }

    #[test]
    fn several_meshes_assemble_as_each_does_alone() {
        let heat_3d_pair: Vec<StructuredMesh> = [0, 6]
            .into_iter()
            .map(|origin| {
                generate(&SubdomainSpec {
                    dim: Dim::Three,
                    order: ElementOrder::Quadratic,
                    elements_per_side: 6,
                    origin_elements: [origin; 3],
                    cell_size: 1.0 / 12.0,
                })
            })
            .collect();
        let cases = [
            (heat_3d_pair, Physics::HeatTransfer, false),
            (grid(Dim::Two, ElementOrder::Linear, 3, 4), Physics::LinearElasticity, true),
            (grid(Dim::Two, ElementOrder::Linear, 2, 5), Physics::HeatTransfer, true),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (meshes, physics, one_pattern) in cases {
            let together = assemble_subdomains(&meshes, physics);
            assert_eq!(together.len(), meshes.len());
            for (mesh, sub) in meshes.iter().zip(&together) {
                let alone = assemble_subdomain(mesh, physics);
                assert_eq!(sub.stiffness.row_ptr(), alone.stiffness.row_ptr());
                assert_eq!(sub.stiffness.col_idx(), alone.stiffness.col_idx());
                assert_eq!(bits(sub.stiffness.values()), bits(alone.stiffness.values()));
                assert_eq!(bits(&sub.load), bits(&alone.load));
                assert_eq!(
                    (sub.dofs_per_node, sub.num_nodes),
                    (alone.dofs_per_node, alone.num_nodes)
                );
            }
            // The lists exercise both paths: a map replayed on every mesh of one
            // pattern, and a second map built when the pattern changes.
            let shared =
                together.iter().all(|s| s.stiffness.col_idx() == together[0].stiffness.col_idx());
            assert_eq!(shared, one_pattern, "{physics:?}");
        }
    }

    #[test]
    fn stiffness_dimensions_match_physics() {
        let m = mesh(Dim::Two, ElementOrder::Linear, 3);
        let heat = assemble_subdomain(&m, Physics::HeatTransfer);
        assert_eq!(heat.stiffness.nrows(), 16);
        let elast = assemble_subdomain(&m, Physics::LinearElasticity);
        assert_eq!(elast.stiffness.nrows(), 32);
        assert_eq!(elast.num_dofs(), 32);
    }
}
