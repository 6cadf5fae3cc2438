//! Structured finite element meshes and FEM assembly for the FETI reproduction.
//!
//! The paper's workloads are square (2D) and cube (3D) domains discretized into
//! triangles and tetrahedra, with linear and quadratic elements, running heat-transfer
//! (Laplace) and linear-elasticity physics.  This crate generates exactly that family
//! of meshes per subdomain and assembles the subdomain stiffness matrices `Kᵢ` and load
//! vectors `fᵢ`.
//!
//! [`assemble_subdomains`] assembles a decomposition's meshes in one call: each mesh's
//! element triplets go to CSR through a `feti_sparse::CsrAssembly`, which is built
//! once per distinct sequence of surviving triplet indices (one for all the subdomains
//! of a 2D or linear decomposition) and gives every matrix bit for bit what
//! `CooMatrix::to_csr` of its own triplets would.  The element kernel tabulates the
//! reference shape functions once per quadrature point per mesh.
//!
//! Nodes live on an integer lattice shared by all subdomains of a decomposition
//! (twice-refined for quadratic elements), which makes interface matching in
//! `feti-decompose` a matter of comparing lattice coordinates.

#![warn(missing_docs)]

pub mod assemble;
pub mod generate;
pub mod shape;

pub use assemble::{assemble_subdomain, assemble_subdomains, AssembledSubdomain};
pub use generate::{StructuredMesh, SubdomainSpec};

/// Spatial dimensionality of a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Two-dimensional (triangles).
    Two,
    /// Three-dimensional (tetrahedra).
    Three,
}

impl Dim {
    /// Number of spatial dimensions as an integer.
    #[must_use]
    pub fn as_usize(self) -> usize {
        match self {
            Dim::Two => 2,
            Dim::Three => 3,
        }
    }
}

/// Polynomial order of the finite elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementOrder {
    /// Linear (P1) triangles / tetrahedra.
    Linear,
    /// Quadratic (P2) triangles / tetrahedra.
    Quadratic,
}

impl ElementOrder {
    /// Lattice refinement factor: quadratic elements place nodes at edge midpoints, so
    /// the node lattice is twice as fine as the element grid.
    #[must_use]
    pub fn lattice_scale(self) -> usize {
        match self {
            ElementOrder::Linear => 1,
            ElementOrder::Quadratic => 2,
        }
    }
}

/// The physical problem being discretized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Physics {
    /// Scalar heat transfer (Laplace operator), one DOF per node.
    HeatTransfer,
    /// Linear elasticity, `dim` DOFs per node.
    LinearElasticity,
}

impl Physics {
    /// Number of degrees of freedom per mesh node.
    #[must_use]
    pub fn dofs_per_node(self, dim: Dim) -> usize {
        match self {
            Physics::HeatTransfer => 1,
            Physics::LinearElasticity => dim.as_usize(),
        }
    }

    /// Dimension of the kernel of an unconstrained (floating) subdomain stiffness
    /// matrix: 1 for heat transfer, 3 (2D) or 6 (3D) rigid body modes for elasticity.
    #[must_use]
    pub fn kernel_dim(self, dim: Dim) -> usize {
        match self {
            Physics::HeatTransfer => 1,
            Physics::LinearElasticity => match dim {
                Dim::Two => 3,
                Dim::Three => 6,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dofs_and_kernel_dimensions() {
        assert_eq!(Physics::HeatTransfer.dofs_per_node(Dim::Three), 1);
        assert_eq!(Physics::LinearElasticity.dofs_per_node(Dim::Two), 2);
        assert_eq!(Physics::LinearElasticity.dofs_per_node(Dim::Three), 3);
        assert_eq!(Physics::HeatTransfer.kernel_dim(Dim::Two), 1);
        assert_eq!(Physics::LinearElasticity.kernel_dim(Dim::Two), 3);
        assert_eq!(Physics::LinearElasticity.kernel_dim(Dim::Three), 6);
    }

    #[test]
    fn lattice_scale() {
        assert_eq!(ElementOrder::Linear.lattice_scale(), 1);
        assert_eq!(ElementOrder::Quadratic.lattice_scale(), 2);
        assert_eq!(Dim::Two.as_usize(), 2);
        assert_eq!(Dim::Three.as_usize(), 3);
    }
}
