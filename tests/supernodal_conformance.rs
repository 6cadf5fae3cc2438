//! Run-blocked-factorization conformance suite.
//!
//! The run-blocked up-looking kernel (`FactorizationKind::Supernodal`, the default)
//! and the blocked forward solve reorganise the arithmetic of the column-at-a-time
//! loops without reordering it per output, so the contract is bit-for-bit: on the seed
//! conformance problems (heat 2D/3D, elasticity 2D) the factor, its triangular solves,
//! and every dual-operator approach built on top of it must be bitwise identical to the
//! column-at-a-time kernel (`FactorizationKind::Simplicial`), over the one structure
//! the symbolic analysis holds.

mod common;

use common::{pinned_families, problems};
use feti_core::{build_dual_operator_with_options, DualOperatorApproach};
use feti_decompose::DecomposedProblem;
use feti_solver::{etree, CholeskyFactor, FactorizationKind, SolverOptions, SymbolicCholesky};
use std::sync::Arc;

/// Deterministic right-hand side for the direct-solver comparisons.
fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.61).cos() * 0.5 + 0.1).collect()
}

fn forced(factorization: FactorizationKind) -> SolverOptions {
    SolverOptions { factorization, ..SolverOptions::default() }
}

/// The run-blocked factor and the solves that walk supernodes must match the
/// column-at-a-time kernel and column-at-a-time substitutions bit-for-bit on every
/// regularized subdomain stiffness matrix of the seed problems.
#[test]
fn supernodal_factor_matches_scalar_bit_for_bit_on_seed_problems() {
    let options = SolverOptions::default();
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        for sub in &problem.subdomains {
            let symbolic = Arc::new(SymbolicCholesky::analyze(&sub.k_reg, &options));
            let [scalar, supernodal] =
                [FactorizationKind::Simplicial, FactorizationKind::Supernodal]
                    .map(|kind| CholeskyFactor::factorize(&symbolic, &sub.k_reg, &forced(kind)));
            let (scalar, supernodal) = (scalar.unwrap(), supernodal.unwrap());
            assert!(
                symbolic.num_supernodes() <= scalar.dim(),
                "{name}/{}: supernode count bounded by dimension",
                sub.index
            );

            let ls = scalar.factor_csc();
            let lp = supernodal.factor_csc();
            assert_eq!(ls.col_ptr(), lp.col_ptr(), "{name}/{}: factor pattern", sub.index);
            assert_eq!(ls.row_idx(), lp.row_idx(), "{name}/{}: factor rows", sub.index);
            for (k, (a, b)) in ls.values().iter().zip(lp.values()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name}/{}: factor value {k}: {a:e} vs {b:e}",
                    sub.index
                );
            }

            // Column-at-a-time substitutions over the extracted factor.
            let b = rhs(sub.k_reg.nrows());
            let mut reference = scalar.permutation().apply(&b);
            for j in 0..ls.ncols() {
                reference[j] /= ls.col_values(j)[0];
                for (&r, &v) in ls.col_rows(j)[1..].iter().zip(&ls.col_values(j)[1..]) {
                    reference[r] -= v * reference[j];
                }
            }
            for j in (0..ls.ncols()).rev() {
                let mut acc = reference[j];
                for (&r, &v) in ls.col_rows(j)[1..].iter().zip(&ls.col_values(j)[1..]) {
                    acc -= v * reference[r];
                }
                reference[j] = acc / ls.col_values(j)[0];
            }
            let reference = scalar.permutation().apply_inverse(&reference);
            let xs = scalar.solve(&b);
            let xp = supernodal.solve(&b);
            for (i, ((a, b), r)) in xs.iter().zip(&xp).zip(&reference).enumerate() {
                assert_eq!(
                    (a.to_bits(), b.to_bits()),
                    (r.to_bits(), r.to_bits()),
                    "{name}/{}: solve component {i}: {a:e} vs {b:e} vs {r:e}",
                    sub.index
                );
            }
        }
    }
}

/// The factor's structure lives once, in the analysis: on the three pinned families
/// the row list of every column is the one an up-looking symbolic elimination records
/// entry by entry (what a factor used to store for itself), and the factors of one
/// sparsity pattern — all nine subdomains of elasticity 2D 3×3 — hold one structure.
#[test]
fn the_analysis_holds_the_structure_of_every_factor_of_its_pattern() {
    let options = SolverOptions::default();
    for (name, spec) in pinned_families() {
        let problem = DecomposedProblem::build(&spec);
        let k_regs: Vec<_> = problem.subdomains.iter().map(|sd| &sd.k_reg).collect();
        let groups = feti_solver::group_by_pattern(&k_regs);
        let analyses: Vec<Arc<SymbolicCholesky>> = groups
            .representatives
            .iter()
            .map(|&r| Arc::new(SymbolicCholesky::analyze(k_regs[r], &options)))
            .collect();
        if name == "elasticity/2D" {
            assert_eq!((k_regs.len(), analyses.len()), (9, 1), "nine factors, one structure");
        }
        let factors: Vec<CholeskyFactor> = k_regs
            .iter()
            .zip(&groups.group_of)
            .map(|(k, &g)| CholeskyFactor::factorize(&analyses[g], k, &options).unwrap())
            .collect();
        for (g, symbolic) in analyses.iter().enumerate() {
            let members = groups.group_of.iter().filter(|&&of| of == g).count();
            assert_eq!(Arc::strong_count(symbolic), 1 + members, "{name}: group {g}");
        }
        for ((factor, k), &g) in factors.iter().zip(&k_regs).zip(&groups.group_of) {
            let symbolic = &analyses[g];
            assert!(Arc::ptr_eq(factor.symbolic(), symbolic), "{name}");
            let n = k.nrows();
            let permuted = symbolic.permutation().permute_symmetric(k);
            let mut columns: Vec<Vec<usize>> = (0..n).map(|j| vec![j]).collect();
            let (mut marker, mut stack) = (vec![usize::MAX; n], vec![0usize; n]);
            for row in 0..n {
                let top =
                    etree::ereach(&permuted, row, symbolic.parents(), &mut marker, &mut stack);
                for &j in &stack[top..n] {
                    columns[j].push(row);
                }
            }
            let l = factor.factor_csc();
            for (j, expected) in columns.iter().enumerate() {
                let listed: Vec<usize> =
                    symbolic.column_rows(j).iter().map(|&r| r as usize).collect();
                assert_eq!(&listed, expected, "{name}: column {j}");
                assert_eq!(l.col_rows(j), expected, "{name}: extracted column {j}");
            }
        }
    }
}

/// Every dual-operator approach built with the column-at-a-time kernel forced on must
/// produce a bitwise-identical operator action `F·p` to its run-blocked build: every
/// approach runs whichever kernel the options name.
#[test]
fn every_approach_is_bitwise_unchanged_with_supernodal_forced() {
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        let nl = problem.num_lambdas;
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
        for approach in DualOperatorApproach::all() {
            let [q_simplicial, q_super] =
                [FactorizationKind::Simplicial, FactorizationKind::Supernodal].map(|kind| {
                    let mut op =
                        build_dual_operator_with_options(approach, &problem, None, forced(kind))
                            .unwrap();
                    op.preprocess().unwrap();
                    let mut q = vec![0.0; nl];
                    op.apply(&p, &mut q);
                    q
                });
            for (i, (a, b)) in q_simplicial.iter().zip(&q_super).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} {approach:?}: F·p component {i}: {a:e} vs {b:e}"
                );
            }
        }
    }
}
