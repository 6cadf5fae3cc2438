//! Property-based tests of the core sparse/dense data structures and kernels.

use feti_sparse::{
    blas, ops, CooMatrix, CsrAssembly, CsrMatrix, DenseMatrix, MemoryOrder, Transpose,
};
use proptest::prelude::*;

/// Strategy producing a random sparse matrix as (nrows, ncols, triplets).
fn sparse_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..12, 1usize..12).prop_flat_map(|(r, c)| {
        let triplets = proptest::collection::vec((0..r, 0..c, -5.0f64..5.0), 0..(r * c).min(40));
        (Just(r), Just(c), triplets)
    })
}

fn build_coo(r: usize, c: usize, t: &[(usize, usize, f64)]) -> CooMatrix {
    let mut coo = CooMatrix::new(r, c);
    for &(i, j, v) in t {
        coo.push(i, j, v);
    }
    coo
}

fn build(r: usize, c: usize, t: &[(usize, usize, f64)]) -> CsrMatrix {
    build_coo(r, c, t).to_csr()
}

/// Strategy producing long rows full of duplicates: 1–2 rows, 2–7 columns and 60–159
/// triplets, so rows run past 20 entries (where `sort_unstable` stops being an
/// insertion sort) with several duplicates per column.  The values span many
/// magnitudes, so the order a slot's terms are summed in shows in the bits.
fn duplicate_heavy() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..3, 2usize..8).prop_flat_map(|(r, c)| {
        let value = (-1.0f64..1.0, 0usize..40).prop_map(|(m, e)| m * 2f64.powi(e as i32 - 20));
        (Just(r), Just(c), proptest::collection::vec((0..r, 0..c, value), 60..160))
    })
}

/// `to_csr` as it was written before [`CsrAssembly`]: every row's `(col, value)` pairs
/// sorted by `sort_unstable_by_key` and summed in that order.
fn sort_and_sum(coo_rows: usize, coo_cols: usize, t: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut buckets: Vec<Vec<(usize, f64)>> = vec![Vec::new(); coo_rows];
    for &(i, j, v) in t {
        buckets[i].push((j, v));
    }
    let mut row_ptr = vec![0usize];
    let (mut col_idx, mut values) = (Vec::new(), Vec::<f64>::new());
    for mut entries in buckets {
        entries.sort_unstable_by_key(|&(c, _)| c);
        let mut last_col = usize::MAX;
        for (c, v) in entries {
            if c == last_col {
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c);
                values.push(v);
                last_col = c;
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw_parts(coo_rows, coo_cols, row_ptr, col_idx, values)
}

fn assert_bit_identical(a: &CsrMatrix, b: &CsrMatrix) {
    assert_eq!(a.row_ptr(), b.row_ptr());
    assert_eq!(a.col_idx(), b.col_idx());
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b));
}

proptest! {
    #[test]
    fn an_assembly_map_replays_the_sort_and_sum_bit_for_bit(
        (r, c, t) in duplicate_heavy(),
        second in proptest::collection::vec(-1.0f64..1.0, 160..161),
    ) {
        let first = build_coo(r, c, &t);
        let map = CsrAssembly::new(&first);
        assert_bit_identical(&map.apply(&first), &sort_and_sum(r, c, &t));
        assert_bit_identical(&first.to_csr(), &sort_and_sum(r, c, &t));
        // New values on the same indices: the map built from the first set still sums
        // them exactly as sorting them afresh would.
        let t2: Vec<_> = t.iter().zip(&second).map(|(&(i, j, _), &v)| (i, j, v * 1e6)).collect();
        let other = build_coo(r, c, &t2);
        prop_assert!(map.matches(&other));
        assert_bit_identical(&map.apply(&other), &sort_and_sum(r, c, &t2));
        assert_bit_identical(&map.apply(&other), &other.to_csr());
    }

    #[test]
    fn an_assembly_map_rejects_a_sequence_that_differs_in_one_index(
        (r, c, t) in duplicate_heavy(),
        at in 0usize..1000,
        shift in 1usize..8,
    ) {
        let map = CsrAssembly::new(&build_coo(r, c, &t));
        let k = at % t.len();
        let mut moved = t.clone();
        let (i, j, v) = moved[k];
        // Move one triplet to another column, or to another row when there is one.
        moved[k] = if r > 1 && shift % 2 == 0 { ((i + 1) % r, j, v) } else { (i, (j + shift) % c, v) };
        if moved[k] == t[k] {
            moved[k].1 = (j + 1) % c;
        }
        prop_assert!(!map.matches(&build_coo(r, c, &moved)));
        let mut longer = build_coo(r, c, &t);
        longer.push(i, j, v);
        prop_assert!(!map.matches(&longer));
        prop_assert!(!map.matches(&build_coo(r + 1, c, &t)));
    }

    #[test]
    fn csr_dense_roundtrip((r, c, t) in sparse_matrix()) {
        let a = build(r, c, &t);
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            let d = a.to_dense(order);
            let back = CsrMatrix::from_dense(&d, 0.0);
            prop_assert_eq!(&back, &a);
        }
    }

    #[test]
    fn transpose_is_an_involution((r, c, t) in sparse_matrix()) {
        let a = build(r, c, &t);
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn csr_and_csc_agree_entrywise((r, c, t) in sparse_matrix()) {
        let a = build(r, c, &t);
        let csc = a.to_csc();
        for i in 0..r {
            for j in 0..c {
                prop_assert!((a.get(i, j) - csc.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spmv_matches_dense_gemv((r, c, t) in sparse_matrix(), seed in 0u64..1000) {
        let a = build(r, c, &t);
        let x: Vec<f64> = (0..c).map(|i| ((i as u64 + seed) % 7) as f64 - 3.0).collect();
        let mut y_sparse = vec![0.0; r];
        ops::spmv_csr(1.0, &a, Transpose::No, &x, 0.0, &mut y_sparse);
        let d = a.to_dense(MemoryOrder::RowMajor);
        let mut y_dense = vec![0.0; r];
        blas::gemv(1.0, &d, Transpose::No, &x, 0.0, &mut y_dense);
        for (s, dref) in y_sparse.iter().zip(&y_dense) {
            prop_assert!((s - dref).abs() < 1e-10);
        }
    }

    #[test]
    fn coo_duplicates_sum((r, c, t) in sparse_matrix()) {
        // Pushing the triplets twice must double the matrix.
        let a = build(r, c, &t);
        let mut coo = CooMatrix::new(r, c);
        for &(i, j, v) in &t {
            coo.push(i, j, v);
            coo.push(i, j, v);
        }
        let doubled = coo.to_csr();
        for i in 0..r {
            for j in 0..c {
                prop_assert!((doubled.get(i, j) - 2.0 * a.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dense_memory_order_is_transparent(rows in 1usize..8, cols in 1usize..8, seed in 0u64..100) {
        let vals: Vec<f64> = (0..rows * cols).map(|i| ((i as u64 * 31 + seed) % 11) as f64).collect();
        let rm = DenseMatrix::from_row_slice(rows, cols, &vals, MemoryOrder::RowMajor);
        let cm = DenseMatrix::from_row_slice(rows, cols, &vals, MemoryOrder::ColMajor);
        prop_assert!(rm.max_abs_diff(&cm) == 0.0);
        prop_assert!(rm.transposed().max_abs_diff(&cm.clone().transpose_reinterpret().into_order(MemoryOrder::RowMajor).transposed().transposed()) < 1e-12);
    }

    #[test]
    fn gemm_is_associative_with_identity(rows in 1usize..6, cols in 1usize..6) {
        let vals: Vec<f64> = (0..rows * cols).map(|i| i as f64 * 0.3 - 1.0).collect();
        let a = DenseMatrix::from_row_slice(rows, cols, &vals, MemoryOrder::RowMajor);
        let id = DenseMatrix::identity(cols, MemoryOrder::ColMajor);
        let mut c = DenseMatrix::zeros(rows, cols, MemoryOrder::RowMajor);
        blas::gemm(1.0, &a, Transpose::No, &id, Transpose::No, 0.0, &mut c);
        prop_assert!(c.max_abs_diff(&a) < 1e-12);
    }
}
