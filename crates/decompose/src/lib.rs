//! Total FETI domain decomposition.
//!
//! The spatial domain (a unit square or cube) is torn into a regular grid of
//! subdomains.  Equality of the solution across subdomain interfaces is enforced by
//! Lagrange multipliers through the signed Boolean gluing matrix `B`; Dirichlet
//! boundary conditions are *also* enforced through `B` (the Total FETI variant of the
//! paper), which leaves every subdomain stiffness matrix singular ("floating").
//!
//! For each subdomain this crate provides everything the FETI solver and the dual
//! operator implementations need: the assembled `Kᵢ` and `fᵢ`, the local gluing block
//! `B̃ᵢ` with its local-to-global multiplier map, the kernel basis `Rᵢ` (constants or
//! rigid body modes), the fixing-DOF analytic regularization `Kᵢ,reg`, and the grouping
//! of subdomains into clusters (one cluster per process/GPU in the paper).

#![warn(missing_docs)]

pub mod gluing;
pub mod kernel;

use feti_mesh::{
    assemble_subdomains, generate::generate, AssembledSubdomain, Dim, ElementOrder, Physics,
    StructuredMesh, SubdomainSpec,
};
use feti_sparse::{CsrMatrix, DenseMatrix};

/// Description of a decomposed benchmark problem.
#[derive(Debug, Clone, Copy)]
pub struct DecompositionSpec {
    /// Spatial dimension.
    pub dim: Dim,
    /// Physics (heat transfer or linear elasticity).
    pub physics: Physics,
    /// Element order.
    pub order: ElementOrder,
    /// Number of subdomains along each axis (total is this to the power `dim`).
    pub subdomains_per_side: usize,
    /// Number of grid cells along each edge of a subdomain.
    pub elements_per_subdomain_side: usize,
    /// Number of subdomains per cluster (one cluster maps to one process + one GPU).
    pub subdomains_per_cluster: usize,
}

impl DecompositionSpec {
    /// A small default problem useful in examples and tests.
    #[must_use]
    pub fn small_heat_2d() -> Self {
        Self {
            dim: Dim::Two,
            physics: Physics::HeatTransfer,
            order: ElementOrder::Linear,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 4,
            subdomains_per_cluster: 4,
        }
    }

    /// Total number of subdomains.
    #[must_use]
    pub fn num_subdomains(&self) -> usize {
        self.subdomains_per_side.pow(self.dim.as_usize() as u32)
    }

    /// Degrees of freedom per subdomain (before tearing-induced duplication is
    /// accounted globally).
    #[must_use]
    pub fn dofs_per_subdomain(&self) -> usize {
        let s = self.order.lattice_scale();
        let npl = s * self.elements_per_subdomain_side + 1;
        let nodes = match self.dim {
            Dim::Two => npl * npl,
            Dim::Three => npl * npl * npl,
        };
        nodes * self.physics.dofs_per_node(self.dim)
    }
}

/// One torn subdomain with everything the FETI machinery needs.
#[derive(Debug, Clone)]
pub struct Subdomain {
    /// Index of this subdomain within the decomposition.
    pub index: usize,
    /// The subdomain mesh.
    pub mesh: StructuredMesh,
    /// Assembled stiffness matrix and load vector.
    pub assembled: AssembledSubdomain,
    /// Regularized stiffness matrix `Kᵢ,reg` (SPD).
    pub k_reg: CsrMatrix,
    /// Kernel basis `Rᵢ` (`num_dofs x kernel_dim`): constants or rigid body modes.
    pub kernel: DenseMatrix,
    /// Degrees of freedom used by the analytic (fixing-node) regularization.
    pub fixing_dofs: Vec<usize>,
    /// Local gluing matrix `B̃ᵢ` (`local_lambdas x num_dofs`).
    pub gluing: CsrMatrix,
    /// Map from local multiplier index (row of `gluing`) to global multiplier index.
    pub lambda_map: Vec<usize>,
    /// Map from local DOF to global DOF (for reassembling / verifying solutions).
    pub global_dofs: Vec<usize>,
}

impl Subdomain {
    /// Number of degrees of freedom of this subdomain.
    #[must_use]
    pub fn num_dofs(&self) -> usize {
        self.assembled.num_dofs()
    }

    /// Number of Lagrange multipliers connected to this subdomain.
    #[must_use]
    pub fn num_local_lambdas(&self) -> usize {
        self.lambda_map.len()
    }
}

/// A decomposed problem: subdomains, clusters and the global dual-space metadata.
#[derive(Debug, Clone)]
pub struct DecomposedProblem {
    /// The specification this problem was built from.
    pub spec: DecompositionSpec,
    /// All subdomains.
    pub subdomains: Vec<Subdomain>,
    /// Subdomain indices grouped into clusters.
    pub clusters: Vec<Vec<usize>>,
    /// Total number of Lagrange multipliers (dual dimension).
    pub num_lambdas: usize,
    /// Right-hand side `c` of the constraint equation `B u = c` (zero for gluing rows,
    /// the prescribed value for Dirichlet rows).
    pub constraint_rhs: Vec<f64>,
    /// Total number of distinct global DOFs (interface DOFs counted once).
    pub num_global_dofs: usize,
}

/// Lifts a borrowed problem into a shared handle by cloning it.  This keeps
/// borrow-based call sites (tests, examples) source-compatible with APIs that take
/// `impl Into<Arc<DecomposedProblem>>`; callers that solve repeatedly should build
/// the `Arc` once and clone the handle instead.
impl From<&DecomposedProblem> for std::sync::Arc<DecomposedProblem> {
    fn from(problem: &DecomposedProblem) -> Self {
        std::sync::Arc::new(problem.clone())
    }
}

impl DecomposedProblem {
    /// Builds the decomposition described by `spec`.
    ///
    /// # Panics
    /// Panics if `spec` describes an empty decomposition.
    #[must_use]
    pub fn build(spec: &DecompositionSpec) -> Self {
        assert!(spec.subdomains_per_side > 0);
        assert!(spec.elements_per_subdomain_side > 0);
        assert!(spec.subdomains_per_cluster > 0);
        let dim = spec.dim.as_usize();
        let n_side = spec.subdomains_per_side;
        let nel = spec.elements_per_subdomain_side;
        let n_sub = spec.num_subdomains();
        let total_cells = n_side * nel;
        let cell_size = 1.0 / total_cells as f64;

        // 1. Generate and assemble every subdomain.
        let mut meshes = Vec::with_capacity(n_sub);
        for idx in 0..n_sub {
            let grid = subdomain_grid_position(idx, n_side, dim);
            let mesh = generate(&SubdomainSpec {
                dim: spec.dim,
                order: spec.order,
                elements_per_side: nel,
                origin_elements: [grid[0] * nel, grid[1] * nel, grid[2] * nel],
                cell_size,
            });
            meshes.push(mesh);
        }
        let assembled: Vec<AssembledSubdomain> = assemble_subdomains(&meshes, spec.physics);

        // 2. Build the gluing structure (interface + Dirichlet multipliers) and the
        //    global DOF numbering.
        let glue = gluing::build_gluing(spec, &meshes);

        // 3. Kernel bases, fixing DOFs and regularization per subdomain.
        let mut subdomains = Vec::with_capacity(n_sub);
        let glue_blocks = glue.global_dofs.into_iter().zip(glue.local_b).zip(glue.lambda_maps);
        let parts = meshes.into_iter().zip(assembled).zip(glue_blocks);
        for (idx, ((mesh, asm), ((global_dofs, gluing), lambda_map))) in parts.enumerate() {
            let kernel = kernel::kernel_basis(&mesh, spec.physics);
            let fixing = kernel::fixing_dofs(&mesh, spec.physics);
            let k_reg = kernel::regularize(&asm.stiffness, &fixing);
            subdomains.push(Subdomain {
                index: idx,
                global_dofs,
                gluing,
                lambda_map,
                mesh,
                assembled: asm,
                k_reg,
                kernel,
                fixing_dofs: fixing,
            });
        }

        // 4. Clusters: consecutive chunks of subdomains.
        let clusters: Vec<Vec<usize>> = (0..n_sub)
            .collect::<Vec<usize>>()
            .chunks(spec.subdomains_per_cluster)
            .map(<[usize]>::to_vec)
            .collect();

        Self {
            spec: *spec,
            subdomains,
            clusters,
            num_lambdas: glue.num_lambdas,
            constraint_rhs: glue.constraint_rhs,
            num_global_dofs: glue.num_global_dofs,
        }
    }

    /// Gathers per-subdomain solution vectors into a single global solution (interface
    /// values are averaged across the subdomains that share them).
    ///
    /// # Panics
    /// Panics if the number or sizes of the per-subdomain vectors do not match.
    #[must_use]
    pub fn gather_solution(&self, per_subdomain: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(per_subdomain.len(), self.subdomains.len());
        let mut sum = vec![0.0f64; self.num_global_dofs];
        let mut count = vec![0usize; self.num_global_dofs];
        for (sd, u) in self.subdomains.iter().zip(per_subdomain) {
            assert_eq!(u.len(), sd.num_dofs());
            for (local, &g) in sd.global_dofs.iter().enumerate() {
                sum[g] += u[local];
                count[g] += 1;
            }
        }
        for (s, c) in sum.iter_mut().zip(&count) {
            if *c > 0 {
                *s /= *c as f64;
            }
        }
        sum
    }

    /// Maximum jump of the per-subdomain solutions across all interface DOFs — a
    /// direct measure of how well the gluing constraints are satisfied.
    #[must_use]
    pub fn interface_jump(&self, per_subdomain: &[Vec<f64>]) -> f64 {
        let mut min = vec![f64::INFINITY; self.num_global_dofs];
        let mut max = vec![f64::NEG_INFINITY; self.num_global_dofs];
        for (sd, u) in self.subdomains.iter().zip(per_subdomain) {
            for (local, &g) in sd.global_dofs.iter().enumerate() {
                min[g] = min[g].min(u[local]);
                max[g] = max[g].max(u[local]);
            }
        }
        (0..self.num_global_dofs)
            .map(|g| if max[g] >= min[g] { max[g] - min[g] } else { 0.0 })
            .fold(0.0, f64::max)
    }
}

/// Converts a linear subdomain index into its (i, j, k) position in the subdomain grid.
fn subdomain_grid_position(idx: usize, n_side: usize, dim: usize) -> [usize; 3] {
    if dim == 2 {
        [idx / n_side, idx % n_side, 0]
    } else {
        [idx / (n_side * n_side), (idx / n_side) % n_side, idx % n_side]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_counts() {
        let spec = DecompositionSpec::small_heat_2d();
        assert_eq!(spec.num_subdomains(), 4);
        assert_eq!(spec.dofs_per_subdomain(), 25);
        let spec3 = DecompositionSpec {
            dim: Dim::Three,
            physics: Physics::LinearElasticity,
            order: ElementOrder::Linear,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 2,
            subdomains_per_cluster: 8,
        };
        assert_eq!(spec3.num_subdomains(), 8);
        assert_eq!(spec3.dofs_per_subdomain(), 27 * 3);
    }

    #[test]
    fn build_produces_consistent_structures() {
        let spec = DecompositionSpec::small_heat_2d();
        let p = DecomposedProblem::build(&spec);
        assert_eq!(p.subdomains.len(), 4);
        assert_eq!(p.constraint_rhs.len(), p.num_lambdas);
        assert!(p.num_lambdas > 0);
        for sd in &p.subdomains {
            assert_eq!(sd.gluing.nrows(), sd.num_local_lambdas());
            assert_eq!(sd.gluing.ncols(), sd.num_dofs());
            assert_eq!(sd.global_dofs.len(), sd.num_dofs());
            assert_eq!(sd.kernel.nrows(), sd.num_dofs());
            assert_eq!(sd.kernel.ncols(), spec.physics.kernel_dim(spec.dim));
            for &g in &sd.lambda_map {
                assert!(g < p.num_lambdas);
            }
            for &g in &sd.global_dofs {
                assert!(g < p.num_global_dofs);
            }
        }
        // every global lambda appears in at least one subdomain
        let mut seen = vec![false; p.num_lambdas];
        for sd in &p.subdomains {
            for &g in &sd.lambda_map {
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn clusters_partition_the_subdomains() {
        let mut spec = DecompositionSpec::small_heat_2d();
        spec.subdomains_per_cluster = 3;
        let p = DecomposedProblem::build(&spec);
        let mut all: Vec<usize> = p.clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..4).collect::<Vec<_>>());
        assert_eq!(p.clusters.len(), 2);
    }

    #[test]
    fn gather_and_jump_on_identical_fields() {
        let spec = DecompositionSpec::small_heat_2d();
        let p = DecomposedProblem::build(&spec);
        // A globally continuous field (function of the lattice) must have zero jump.
        let per: Vec<Vec<f64>> = p
            .subdomains
            .iter()
            .map(|sd| {
                (0..sd.num_dofs())
                    .map(|d| {
                        let node = d; // heat: one dof per node
                        let l = sd.mesh.lattice[node];
                        l[0] as f64 + 10.0 * l[1] as f64
                    })
                    .collect()
            })
            .collect();
        assert!(p.interface_jump(&per) < 1e-12);
        let gathered = p.gather_solution(&per);
        assert_eq!(gathered.len(), p.num_global_dofs);
    }
}
