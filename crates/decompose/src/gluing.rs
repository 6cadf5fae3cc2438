//! Construction of the Total FETI gluing matrix `B` and its per-subdomain blocks.
//!
//! Two kinds of rows are generated, exactly as in the paper:
//!
//! * **interface gluing** — for every global DOF shared by `k` subdomains, `k - 1`
//!   signed Boolean rows chain the copies together (`+1` in one subdomain, `-1` in the
//!   next), enforcing equality across the tear;
//! * **Dirichlet rows** — the Dirichlet boundary (the `x = 0` face of the global
//!   domain) is *not* eliminated from the subdomain matrices; instead each constrained
//!   DOF instance receives its own row with a single `+1` and the prescribed value in
//!   the constraint right-hand side `c`.  This is what makes every subdomain float.

use crate::DecompositionSpec;
use feti_mesh::StructuredMesh;
use feti_sparse::{CooMatrix, CsrMatrix};
use std::collections::HashMap;

/// Result of the gluing construction.
#[derive(Debug, Clone)]
pub struct GluingStructure {
    /// Total number of Lagrange multipliers.
    pub num_lambdas: usize,
    /// Constraint right-hand side `c` (one entry per multiplier).
    pub constraint_rhs: Vec<f64>,
    /// Per-subdomain gluing blocks `B̃ᵢ` (`local_lambdas x num_dofs`).
    pub local_b: Vec<CsrMatrix>,
    /// Per-subdomain maps from local multiplier index to global multiplier index.
    pub lambda_maps: Vec<Vec<usize>>,
    /// Per-subdomain maps from local DOF to global DOF.
    pub global_dofs: Vec<Vec<usize>>,
    /// Number of distinct global DOFs.
    pub num_global_dofs: usize,
}

/// Prescribed value on the Dirichlet boundary (homogeneous).
pub const DIRICHLET_VALUE: f64 = 0.0;

/// Builds the gluing structure for a set of subdomain meshes that share a global
/// lattice.
///
/// # Panics
/// Panics if `meshes` is empty.
#[must_use]
pub fn build_gluing(spec: &DecompositionSpec, meshes: &[StructuredMesh]) -> GluingStructure {
    assert!(!meshes.is_empty());
    let dpn = spec.physics.dofs_per_node(spec.dim);

    // 1. Global node numbering keyed by lattice coordinates, plus the owner list of
    //    every global node.
    let mut node_ids: HashMap<[i64; 3], usize> = HashMap::new();
    let mut owners: Vec<Vec<(usize, usize)>> = Vec::new(); // global node -> (subdomain, local node)
    for (sd, mesh) in meshes.iter().enumerate() {
        for (local, &lat) in mesh.lattice.iter().enumerate() {
            let id = *node_ids.entry(lat).or_insert_with(|| {
                owners.push(Vec::new());
                owners.len() - 1
            });
            owners[id].push((sd, local));
        }
    }
    let num_global_nodes = owners.len();
    let num_global_dofs = num_global_nodes * dpn;

    let global_dofs: Vec<Vec<usize>> = meshes
        .iter()
        .map(|mesh| {
            let mut map = vec![0usize; mesh.num_nodes() * dpn];
            for (local, &lat) in mesh.lattice.iter().enumerate() {
                let gid = node_ids[&lat];
                for c in 0..dpn {
                    map[local * dpn + c] = gid * dpn + c;
                }
            }
            map
        })
        .collect();

    // 2. Emit multipliers.  Entries are collected per subdomain and converted to CSR
    //    at the end.
    let mut num_lambdas = 0usize;
    let mut constraint_rhs: Vec<f64> = Vec::new();
    // per subdomain: (global lambda, local dof, value)
    let mut entries: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); meshes.len()];

    // 2a. Interface gluing: chain the copies of every shared DOF.
    for owner_list in &owners {
        if owner_list.len() < 2 {
            continue;
        }
        let mut sorted = owner_list.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            let (sd_a, node_a) = pair[0];
            let (sd_b, node_b) = pair[1];
            for c in 0..dpn {
                let lambda = num_lambdas;
                num_lambdas += 1;
                constraint_rhs.push(0.0);
                entries[sd_a].push((lambda, node_a * dpn + c, 1.0));
                entries[sd_b].push((lambda, node_b * dpn + c, -1.0));
            }
        }
    }

    // 2b. Dirichlet rows on the global x = 0 face (every instance separately).
    for owner_list in &owners {
        for &(sd, node) in owner_list {
            if meshes[sd].lattice[node][0] != 0 {
                continue;
            }
            for c in 0..dpn {
                let lambda = num_lambdas;
                num_lambdas += 1;
                constraint_rhs.push(DIRICHLET_VALUE);
                entries[sd].push((lambda, node * dpn + c, 1.0));
            }
        }
    }

    // 3. Per-subdomain blocks with local multiplier numbering sorted by global index.
    let mut local_b = Vec::with_capacity(meshes.len());
    let mut lambda_maps = Vec::with_capacity(meshes.len());
    for (sd, mesh) in meshes.iter().enumerate() {
        let mut ent = std::mem::take(&mut entries[sd]);
        ent.sort_unstable_by_key(|&(lambda, dof, _)| (lambda, dof));
        let mut map: Vec<usize> = Vec::new();
        let n_dofs = mesh.num_nodes() * dpn;
        // First pass to know the number of local rows (distinct lambdas).
        let mut last = usize::MAX;
        for &(lambda, _, _) in &ent {
            if lambda != last {
                map.push(lambda);
                last = lambda;
            }
        }
        let mut coo_rows = CooMatrix::with_capacity(map.len(), n_dofs, ent.len());
        let mut row = usize::MAX;
        let mut last = usize::MAX;
        for &(lambda, dof, v) in &ent {
            if lambda != last {
                row = if row == usize::MAX { 0 } else { row + 1 };
                last = lambda;
            }
            coo_rows.push(row, dof, v);
        }
        local_b.push(coo_rows.to_csr());
        lambda_maps.push(map);
    }

    GluingStructure {
        num_lambdas,
        constraint_rhs,
        local_b,
        lambda_maps,
        global_dofs,
        num_global_dofs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_mesh::{generate::generate, Dim, ElementOrder, Physics, SubdomainSpec};

    fn two_subdomains_1d_like() -> (DecompositionSpec, Vec<StructuredMesh>) {
        let spec = DecompositionSpec {
            dim: Dim::Two,
            physics: Physics::HeatTransfer,
            order: ElementOrder::Linear,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 2,
            subdomains_per_cluster: 2,
        };
        let meshes: Vec<StructuredMesh> = (0..2)
            .map(|i| {
                generate(&SubdomainSpec {
                    dim: spec.dim,
                    order: spec.order,
                    elements_per_side: 2,
                    origin_elements: [2 * i, 0, 0],
                    cell_size: 0.25,
                })
            })
            .collect();
        (spec, meshes)
    }

    #[test]
    fn interface_and_dirichlet_multiplier_counts() {
        let (spec, meshes) = two_subdomains_1d_like();
        let g = build_gluing(&spec, &meshes);
        // Interface x = 2 (lattice) has 3 shared nodes -> 3 gluing rows; Dirichlet face
        // x = 0 belongs to subdomain 0 only and has 3 nodes -> 3 Dirichlet rows.
        assert_eq!(g.num_lambdas, 6);
        assert_eq!(g.constraint_rhs.len(), 6);
        assert_eq!(g.local_b[0].nrows() + g.local_b[1].nrows(), 3 * 2 + 3);
        assert_eq!(g.num_global_dofs, 9 + 9 - 3);
    }

    #[test]
    fn gluing_rows_have_opposite_signs_across_subdomains() {
        let (spec, meshes) = two_subdomains_1d_like();
        let g = build_gluing(&spec, &meshes);
        // Every gluing lambda (shared by two subdomains) must sum to zero when the same
        // continuous field is evaluated in both.
        let field = |mesh: &StructuredMesh, node: usize| {
            let l = mesh.lattice[node];
            0.5 * l[0] as f64 - 1.5 * l[1] as f64
        };
        let mut per_lambda = vec![0.0f64; g.num_lambdas];
        for (sd, mesh) in meshes.iter().enumerate() {
            let b = &g.local_b[sd];
            for (local_row, &global_lambda) in g.lambda_maps[sd].iter().enumerate() {
                let mut acc = 0.0;
                for (&dof, &v) in b.row_cols(local_row).iter().zip(b.row_values(local_row)) {
                    acc += v * field(mesh, dof);
                }
                per_lambda[global_lambda] += acc;
            }
        }
        // Gluing rows evaluate to 0 for a continuous field; Dirichlet rows evaluate to
        // the field value itself (not necessarily 0), so only check rows with rhs 0
        // that touch two subdomains.
        let mut touched = vec![0usize; g.num_lambdas];
        for map in &g.lambda_maps {
            for &l in map {
                touched[l] += 1;
            }
        }
        for l in 0..g.num_lambdas {
            if touched[l] == 2 {
                assert!(per_lambda[l].abs() < 1e-12, "gluing row {l} is not a jump");
            }
        }
    }

    #[test]
    fn dirichlet_rows_only_on_left_face() {
        let (spec, meshes) = two_subdomains_1d_like();
        let g = build_gluing(&spec, &meshes);
        let mut touched = vec![0usize; g.num_lambdas];
        for map in &g.lambda_maps {
            for &l in map {
                touched[l] += 1;
            }
        }
        // Single-subdomain rows are Dirichlet rows; they must involve only DOFs whose
        // lattice x-coordinate is 0 (and those live in subdomain 0).
        for (sd, mesh) in meshes.iter().enumerate() {
            let b = &g.local_b[sd];
            for (local_row, &global_lambda) in g.lambda_maps[sd].iter().enumerate() {
                if touched[global_lambda] == 1 {
                    assert_eq!(sd, 0, "Dirichlet rows must be in the left subdomain");
                    for &dof in b.row_cols(local_row) {
                        assert_eq!(mesh.lattice[dof][0], 0);
                    }
                }
            }
        }
    }

    #[test]
    fn elasticity_gluing_constrains_every_component() {
        let spec = DecompositionSpec {
            dim: Dim::Two,
            physics: Physics::LinearElasticity,
            order: ElementOrder::Linear,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 2,
            subdomains_per_cluster: 2,
        };
        let meshes: Vec<StructuredMesh> = (0..2)
            .map(|i| {
                generate(&SubdomainSpec {
                    dim: spec.dim,
                    order: spec.order,
                    elements_per_side: 2,
                    origin_elements: [2 * i, 0, 0],
                    cell_size: 0.25,
                })
            })
            .collect();
        let g = build_gluing(&spec, &meshes);
        // Twice the scalar count: 3 interface nodes * 2 components + 3 Dirichlet nodes
        // * 2 components.
        assert_eq!(g.num_lambdas, 12);
    }
}
