//! The host side of the dual operator: the symbolic analyses shared between
//! subdomains of one sparsity pattern, the CHOLMOD-like numeric factor — the one factor
//! every subdomain of every approach keeps — and the host kernels every approach
//! computes through: the implicit application (of the device approaches too), the
//! assembly of `expl cholmod` and `expl hybrid`, and the explicit SYMV.

use super::{par_subdomains, SubdomainBlock};
use feti_solver::cholmod::{CholmodFactor, CholmodLike};
use feti_solver::{OrderingKind, SolverOptions, SymbolicCholesky};
use feti_sparse::{blas, ops, CsrMatrix, DenseMatrix, Transpose, Triangle};
use std::sync::Arc;

/// The symbolic analysis under `ordering` of every matrix of `k_regs`, made once per
/// distinct sparsity pattern ([`feti_solver::group_by_pattern`]) under an
/// `analyze[<ordering>]` span and shared by the matrices that have it: the one place a
/// dual operator or a planner analyses anything.  An analysis reads index arrays only,
/// so which matrix of a group stood for it cannot be told from the result.
pub(crate) fn analyze_by_pattern<'a>(
    k_regs: impl IntoIterator<Item = &'a CsrMatrix>,
    ordering: OrderingKind,
) -> Vec<Arc<SymbolicCholesky>> {
    let k_regs: Vec<&CsrMatrix> = k_regs.into_iter().collect();
    let groups = feti_solver::group_by_pattern(&k_regs);
    let opts = SolverOptions { ordering, ..SolverOptions::default() };
    let analyses: Vec<Arc<SymbolicCholesky>> = par_subdomains(groups.representatives.len(), |g| {
        let _span = feti_trace::span(|| format!("analyze[{ordering:?}]"));
        Arc::new(SymbolicCholesky::analyze(k_regs[groups.representatives[g]], &opts))
    });
    feti_trace::counter_add("symbolic.analyses", analyses.len() as u64);
    feti_trace::counter_add("symbolic.subdomains", k_regs.len() as u64);
    groups.group_of.iter().map(|&g| Arc::clone(&analyses[g])).collect()
}

/// The numeric factor of one subdomain.
pub(crate) struct Factor(CholmodFactor);

impl Factor {
    /// Numeric factorization of `k_reg` over a shared analysis — the one place a
    /// subdomain's `K⁺` is made.
    pub(crate) fn new(
        symbolic: &Arc<SymbolicCholesky>,
        opts: SolverOptions,
        k_reg: &CsrMatrix,
    ) -> feti_solver::Result<Factor> {
        Ok(Factor(CholmodLike::from_symbolic(Arc::clone(symbolic), opts).factorize(k_reg)?))
    }

    /// `K⁺ rhs` in the original ordering: the solve behind the implicit application,
    /// the dual right-hand side and the primal recovery alike.
    pub(crate) fn solve(&self, rhs: &[f64]) -> Vec<f64> {
        self.0.solve(rhs)
    }

    /// Assembles the dense `F̃ᵢ` of subdomain `i` on the CPU, both triangles filled —
    /// the body of every explicit assembly, on the host or the device.  `Y = L⁻¹PB̃ᵀ`
    /// is one forward solve against the factor's own storage, kept as panels pruned to
    /// the reach of `B̃`'s entries (`forward[sd=i]` span), and `F̃ᵢ = YᵀY` their
    /// panel-pair Gram (`gram[sd=i]` span).
    pub(crate) fn assemble(&self, i: usize, block: &SubdomainBlock) -> DenseMatrix {
        let y = {
            let _span = feti_trace::span(|| format!("forward[sd={i}]"));
            self.0.forward_solve_sparse_rhs(&block.b)
        };
        let _span = feti_trace::span(|| format!("gram[sd={i}]"));
        y.gram()
    }

    /// The implicit local action `q̃ = B̃ (K⁺ (B̃ᵀ p̃))`: SpMV, two triangular solves,
    /// SpMV, all on the host — for the implicit device approaches too, whose program
    /// prices the same four kernels.
    pub(crate) fn apply(&self, block: &SubdomainBlock, p_local: &[f64], q_local: &mut [f64]) {
        let mut t = vec![0.0; block.num_dofs()];
        ops::spmv_csr(1.0, &block.b, Transpose::Yes, p_local, 0.0, &mut t);
        ops::spmv_csr(1.0, &block.b, Transpose::No, &self.solve(&t), 0.0, q_local);
    }
}

/// The explicit application `q̃ᵢ = F̃ᵢ p̃ᵢ` through SYMV, of every explicit approach,
/// on the host or the device.  In a batch the dense `F̃ᵢ` stays hot across the
/// columns, the exact column-by-column product the device's SYMM-shaped kernel
/// computes; only its modelled time is batched.
pub(crate) fn symv(f: &DenseMatrix, p_local: &[f64], q_local: &mut [f64]) {
    blas::symv(Triangle::Upper, 1.0, f, p_local, 0.0, q_local);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualop::{ApproachOperator, DualOperator, SubdomainBlock};
    use crate::params::DualOperatorApproach;
    use feti_decompose::{DecomposedProblem, DecompositionSpec};
    use feti_sparse::{ops, DenseMatrix, MemoryOrder, Transpose};

    fn operator(
        approach: DualOperatorApproach,
        blocks: Vec<SubdomainBlock>,
        nl: usize,
    ) -> ApproachOperator {
        ApproachOperator::new(approach, blocks, nl, Default::default(), SolverOptions::default())
            .unwrap()
    }

    fn blocks() -> (Vec<SubdomainBlock>, usize) {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        (SubdomainBlock::from_problem(&problem), problem.num_lambdas)
    }

    fn reference_apply(blocks: &[SubdomainBlock], p: &[f64]) -> Vec<f64> {
        // Straightforward dense reference: q = sum_i B_i Kreg_i^{-1} B_i^T p_i.
        let mut q = vec![0.0; p.len()];
        for block in blocks {
            let factor =
                feti_solver::CholeskyFactor::new(&block.k_reg, &SolverOptions::default()).unwrap();
            let p_local = block.scatter(p);
            let mut t = vec![0.0; block.num_dofs()];
            ops::spmv_csr(1.0, &block.b, Transpose::Yes, &p_local, 0.0, &mut t);
            let x = factor.solve(&t);
            let mut q_local = vec![0.0; block.num_local_lambdas()];
            ops::spmv_csr(1.0, &block.b, Transpose::No, &x, 0.0, &mut q_local);
            block.gather(&q_local, &mut q);
        }
        q
    }

    #[test]
    fn shared_analyses_are_the_per_subdomain_ones_and_one_object_per_pattern() {
        // Elasticity 2D 3×3 × 10 and heat 2D 3×3 × 12 have one `k_reg` pattern each;
        // heat 3D quadratic 2×2×2 × 3 is the mixed case, four patterns among eight
        // subdomains (`assemble_subdomain` drops the entries that round to exactly 0).
        use feti_mesh::{Dim, ElementOrder, Physics};
        let spec = |dim, physics, order, subdomains_per_side: usize, elements| DecompositionSpec {
            dim,
            physics,
            order,
            subdomains_per_side,
            elements_per_subdomain_side: elements,
            subdomains_per_cluster: subdomains_per_side.pow(dim.as_usize() as u32),
        };
        let cases = [
            (spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 3, 10), 1),
            (spec(Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, 3, 12), 1),
            (spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2, 3), 4),
        ];
        let orderings = [OrderingKind::MinimumDegree, OrderingKind::NestedDissection];
        for ((spec, patterns), ordering) in
            cases.into_iter().flat_map(|c| orderings.map(|o| (c, o)))
        {
            let opts = SolverOptions { ordering, ..SolverOptions::default() };
            let problem = DecomposedProblem::build(&spec);
            let k_regs: Vec<&CsrMatrix> = problem.subdomains.iter().map(|sd| &sd.k_reg).collect();
            let shared = analyze_by_pattern(k_regs.iter().copied(), ordering);
            assert_eq!(shared.len(), k_regs.len());
            for (i, (k_reg, shared)) in k_regs.iter().zip(&shared).enumerate() {
                let own = SymbolicCholesky::analyze(k_reg, &opts);
                let (got, want) = (shared.permutation(), own.permutation());
                let at = format!("{spec:?} {ordering:?} subdomain {i}");
                assert_eq!(got.new_to_old(), want.new_to_old(), "{at}");
                assert_eq!(shared.parents(), own.parents(), "{at}");
                assert_eq!(shared.supernodes(), own.supernodes(), "{at}");
                assert_eq!(shared.factor_nnz(), own.factor_nnz(), "{at}");
            }
            let mut distinct = 0;
            for i in 0..shared.len() {
                let first = (0..i).all(|j| !Arc::ptr_eq(&shared[i], &shared[j]));
                distinct += usize::from(first);
                for j in 0..i {
                    let (a, b) = (k_regs[i], k_regs[j]);
                    let same_pattern = (a.nrows(), a.row_ptr(), a.col_idx())
                        == (b.nrows(), b.row_ptr(), b.col_idx());
                    assert_eq!(Arc::ptr_eq(&shared[i], &shared[j]), same_pattern, "{i} and {j}");
                }
            }
            assert_eq!(distinct, patterns, "{spec:?}");
        }
    }

    #[test]
    fn implicit_cpu_matches_reference() {
        let (blocks, nl) = blocks();
        let p: Vec<f64> = (0..nl).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let reference = reference_apply(&blocks, &p);
        let mut op = operator(DualOperatorApproach::ImplicitCholmod, blocks, nl);
        let t = op.preprocess().unwrap();
        assert!(t.total_seconds > 0.0);
        let mut q = vec![0.0; nl];
        let ta = op.apply(&p, &mut q);
        assert!(ta.total_seconds > 0.0);
        for (a, b) in q.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert_eq!(op.stats().apply_count, 1);
    }

    #[test]
    fn explicit_cpu_matches_reference() {
        let (blocks, nl) = blocks();
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.31).sin()).collect();
        let reference = reference_apply(&blocks, &p);
        let mut op = operator(DualOperatorApproach::ExplicitCholmod, blocks, nl);
        op.preprocess().unwrap();
        let mut q = vec![0.0; nl];
        op.apply(&p, &mut q);
        for (a, b) in q.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn apply_many_is_bit_for_bit_columnwise_apply() {
        let (blocks, nl) = blocks();
        let k = 3;
        let mut p = DenseMatrix::zeros(nl, k, MemoryOrder::ColMajor);
        for j in 0..k {
            for i in 0..nl {
                p.set(i, j, ((i * 7 + j * 13) % 19) as f64 * 0.27 - 2.0);
            }
        }
        let check = |single: &mut dyn DualOperator, batched: &mut dyn DualOperator| {
            let approach = single.approach();
            single.preprocess().unwrap();
            batched.preprocess().unwrap();
            let mut q_batched = DenseMatrix::zeros(nl, k, MemoryOrder::ColMajor);
            batched.apply_many(&p, &mut q_batched);
            for j in 0..k {
                let mut q = vec![0.0; nl];
                single.apply(&p.col(j), &mut q);
                for (i, v) in q.iter().enumerate() {
                    assert_eq!(
                        *v,
                        q_batched.get(i, j),
                        "{approach:?} column {j} row {i} must match bit-for-bit"
                    );
                }
            }
            assert_eq!(batched.stats().apply_count, k, "{approach:?} counts columns");
        };
        for approach in
            [DualOperatorApproach::ExplicitCholmod, DualOperatorApproach::ImplicitCholmod]
        {
            let mut a = operator(approach, blocks.clone(), nl);
            let mut b = operator(approach, blocks.clone(), nl);
            check(&mut a, &mut b);
        }
    }

    #[test]
    #[should_panic(expected = "preprocess must be called")]
    fn apply_before_preprocess_panics() {
        let (blocks, nl) = blocks();
        let rhs = vec![0.0; blocks[0].num_dofs()];
        let mut op = operator(DualOperatorApproach::ImplicitCholmod, blocks, nl);
        // `solve_local` refuses a cold operator with the same message; its panic is
        // caught and checked, the one of `apply` is what the test as a whole declares.
        let early = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = op.solve_local(0, &rhs);
        }));
        let payload = early.expect_err("solve_local accepted a cold operator");
        let message = payload.downcast_ref::<String>().expect("expect message");
        assert!(message.contains("preprocess must be called"), "{message}");
        let p = vec![0.0; nl];
        let mut q = vec![0.0; nl];
        let _ = op.apply(&p, &mut q);
    }
}
