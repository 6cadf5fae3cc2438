//! The calibrated cost model of the simulated device.
//!
//! Kernel times are modelled with the standard roofline split: a fixed kernel-launch
//! latency plus the maximum of the memory-traffic term and the arithmetic term.  The
//! default constants approximate one NVIDIA A100-40GB as used on the Karolina GPU
//! partition.  Absolute times will not match the paper's testbed; the model exists so
//! that the *relative* behaviour (launch-overhead domination for tiny subdomains,
//! bandwidth-bound TRSM/SYRK for large ones, poor modern sparse TRSM, PCIe transfer
//! costs) has the same shape.

/// Hardware characteristics of the simulated device.
#[derive(Debug, Clone, Copy)]
pub struct GpuSpec {
    /// Fixed cost of submitting one kernel (seconds).
    pub kernel_launch_seconds: f64,
    /// Effective device memory bandwidth (bytes/second).
    pub memory_bandwidth: f64,
    /// Effective FP64 throughput (FLOP/second).
    pub flops_fp64: f64,
    /// Host-device transfer bandwidth (bytes/second).
    pub pcie_bandwidth: f64,
    /// Host-device transfer latency per operation (seconds).
    pub pcie_latency_seconds: f64,
    /// Device memory capacity (bytes).
    pub memory_capacity_bytes: usize,
    /// Efficiency factor (0..1] of the legacy cuSPARSE triangular solve.
    pub sparse_trsm_efficiency_legacy: f64,
    /// Efficiency factor (0..1] of the modern (generic API) cuSPARSE triangular solve;
    /// the paper found it to be far slower than the legacy one.
    pub sparse_trsm_efficiency_modern: f64,
}

impl GpuSpec {
    /// An A100-40GB-like device.
    #[must_use]
    pub fn a100_40gb() -> Self {
        Self {
            kernel_launch_seconds: 8.0e-6,
            memory_bandwidth: 1.4e12,
            flops_fp64: 9.0e12,
            pcie_bandwidth: 2.2e10,
            pcie_latency_seconds: 1.0e-5,
            memory_capacity_bytes: 40 * 1024 * 1024 * 1024,
            sparse_trsm_efficiency_legacy: 0.25,
            sparse_trsm_efficiency_modern: 0.03,
        }
    }

    /// The sparse-TRSM efficiency factor of the given cuSPARSE API generation.
    ///
    /// This is the entry point cost estimators use to price sparse triangular
    /// solves a priori without holding an actual factor.
    #[must_use]
    pub fn sparse_trsm_efficiency(&self, generation: crate::CudaGeneration) -> f64 {
        match generation {
            crate::CudaGeneration::Legacy => self.sparse_trsm_efficiency_legacy,
            crate::CudaGeneration::Modern => self.sparse_trsm_efficiency_modern,
        }
    }
}

/// The modelled cost of one device operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCost {
    /// Modelled execution time (seconds), including launch overhead.
    pub seconds: f64,
    /// Bytes of device memory traffic the model assumed.
    pub bytes_moved: f64,
    /// Floating point operations the model assumed.
    pub flops: f64,
}

impl GpuCost {
    /// A zero cost (used as the identity when accumulating).
    #[must_use]
    pub fn zero() -> Self {
        Self { seconds: 0.0, bytes_moved: 0.0, flops: 0.0 }
    }

    /// Sum of two costs (sequential execution).
    #[must_use]
    pub fn plus(self, other: GpuCost) -> Self {
        Self {
            seconds: self.seconds + other.seconds,
            bytes_moved: self.bytes_moved + other.bytes_moved,
            flops: self.flops + other.flops,
        }
    }
}

fn roofline(spec: &GpuSpec, bytes: f64, flops: f64) -> GpuCost {
    let t =
        spec.kernel_launch_seconds + (bytes / spec.memory_bandwidth).max(flops / spec.flops_fp64);
    GpuCost { seconds: t, bytes_moved: bytes, flops }
}

/// Cost of a host-device (or device-host) transfer of `bytes`.
#[must_use]
pub fn transfer(spec: &GpuSpec, bytes: usize) -> GpuCost {
    GpuCost {
        seconds: spec.pcie_latency_seconds + bytes as f64 / spec.pcie_bandwidth,
        bytes_moved: bytes as f64,
        flops: 0.0,
    }
}

/// Cost of a dense triangular solve with `n x n` factor and `nrhs` right-hand sides.
#[must_use]
pub fn dense_trsm(spec: &GpuSpec, n: usize, nrhs: usize) -> GpuCost {
    let nf = n as f64;
    let rf = nrhs as f64;
    let flops = nf * nf * rf;
    let bytes = (nf * nf / 2.0 + 2.0 * nf * rf) * 8.0;
    roofline(spec, bytes, flops)
}

/// Cost of a SYRK producing an `n x n` result from a `k x n` operand.
#[must_use]
pub fn syrk(spec: &GpuSpec, n: usize, k: usize) -> GpuCost {
    let nf = n as f64;
    let kf = k as f64;
    let flops = nf * nf * kf;
    let bytes = (kf * nf + nf * nf / 2.0) * 8.0;
    roofline(spec, bytes, flops)
}

/// Cost of a symmetric matrix-vector product (`SYMV`) with an `n x n` matrix stored as
/// one triangle (half the traffic of GEMV).
#[must_use]
pub fn symv(spec: &GpuSpec, n: usize) -> GpuCost {
    let flops = 2.0 * n as f64 * n as f64;
    let bytes = (n as f64 * n as f64 / 2.0 + 2.0 * n as f64) * 8.0;
    roofline(spec, bytes, flops)
}

/// Cost of a symmetric matrix–multi-vector product (`SYMM`-shaped batched SYMV) with
/// an `n x n` matrix stored as one triangle and `nrhs` simultaneous right-hand sides.
///
/// The triangle is streamed once for the whole batch instead of once per vector, which
/// is the bandwidth amortization that makes the batched explicit application pay off;
/// for `nrhs = 1` this degenerates exactly to [`symv`].
#[must_use]
pub fn symm(spec: &GpuSpec, n: usize, nrhs: usize) -> GpuCost {
    let nf = n as f64;
    let rf = nrhs as f64;
    let flops = 2.0 * nf * nf * rf;
    let bytes = (nf * nf / 2.0 + 2.0 * nf * rf) * 8.0;
    roofline(spec, bytes, flops)
}

/// Cost of a sparse triangular solve with the efficiency picked from the API
/// generation — the entry point estimators use when they only know the generation.
#[must_use]
pub fn sparse_trsm_for(
    spec: &GpuSpec,
    generation: crate::CudaGeneration,
    nnz_factor: usize,
    n: usize,
    nrhs: usize,
) -> GpuCost {
    sparse_trsm(spec, nnz_factor, n, nrhs, spec.sparse_trsm_efficiency(generation))
}

/// Cost of a sparse-times-dense multiplication (`SpMM`) with `nnz` entries and `nrhs`
/// dense columns.
#[must_use]
pub fn spmm(spec: &GpuSpec, nnz: usize, nrows: usize, nrhs: usize) -> GpuCost {
    let bytes = (nnz as f64 * 12.0) + (nrows as f64 * nrhs as f64 * 16.0);
    let flops = 2.0 * nnz as f64 * nrhs as f64;
    roofline(spec, bytes, flops)
}

/// Cost of a sparse triangular solve with a dense multi-RHS (the cuSPARSE TRSM),
/// parameterized by the API generation efficiency.
///
/// Sparse triangular solves are limited by the level-scheduling dependency chain, which
/// the efficiency factor models: the kernel only reaches `efficiency * bandwidth`.
#[must_use]
pub fn sparse_trsm(
    spec: &GpuSpec,
    nnz_factor: usize,
    n: usize,
    nrhs: usize,
    efficiency: f64,
) -> GpuCost {
    let traffic = (nnz_factor as f64 * 12.0) * (nrhs as f64).sqrt().max(1.0)
        + 2.0 * n as f64 * nrhs as f64 * 8.0;
    let flops = 2.0 * nnz_factor as f64 * nrhs as f64;
    let t = spec.kernel_launch_seconds
        + (traffic / (spec.memory_bandwidth * efficiency)).max(flops / spec.flops_fp64);
    GpuCost { seconds: t, bytes_moved: traffic, flops }
}

/// Fraction of the dense kernel's work the boundary-restricted assembly kernels still
/// pay on rows outside the boundary set, per CUDA generation.
///
/// The sparsity-aware TRSM/SYRK (sequel paper, arXiv 2509.21037) skip the exact-zero
/// prefix of every right-hand-side column, but the skipped region is not free: panel
/// bookkeeping, ragged memory access and the level-structure of the gather all leave a
/// residual slope.  The modern generic API pays more of it (less mature sparse-RHS
/// support), mirroring the legacy-vs-modern split of the sparse triangular solve.
const SPARSE_RHS_SLACK_LEGACY: f64 = 0.10;
/// See [`SPARSE_RHS_SLACK_LEGACY`].
const SPARSE_RHS_SLACK_MODERN: f64 = 0.35;

/// The work fraction `w ∈ (0, 1]` of a boundary-restricted kernel relative to its
/// dense counterpart: the boundary fraction plus the generation's slack on the
/// skipped remainder.  Equals exactly `1.0` when every row is boundary, and is
/// monotone nondecreasing in `boundary_rows`.
fn boundary_work_fraction(
    generation: crate::CudaGeneration,
    n: usize,
    boundary_rows: usize,
) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let frac = (boundary_rows as f64 / n as f64).clamp(0.0, 1.0);
    let slack = match generation {
        crate::CudaGeneration::Legacy => SPARSE_RHS_SLACK_LEGACY,
        crate::CudaGeneration::Modern => SPARSE_RHS_SLACK_MODERN,
    };
    frac + (1.0 - frac) * slack
}

/// Cost of a boundary-restricted dense triangular solve ([`dense_trsm`] shape) whose
/// right-hand-side columns are nonzero only below `boundary_rows` distinct rows of the
/// `n x n` factor.
///
/// Both the flop and byte volume scale with the generation's work fraction; with
/// `boundary_rows == n` this degenerates exactly to [`dense_trsm`], and for any
/// boundary count it never exceeds it.
#[must_use]
pub fn sparse_rhs_trsm(
    spec: &GpuSpec,
    generation: crate::CudaGeneration,
    n: usize,
    nrhs: usize,
    boundary_rows: usize,
) -> GpuCost {
    let w = boundary_work_fraction(generation, n, boundary_rows);
    let nf = n as f64;
    let rf = nrhs as f64;
    let flops = nf * nf * rf * w;
    let bytes = (nf * nf / 2.0 + 2.0 * nf * rf) * 8.0 * w;
    roofline(spec, bytes, flops)
}

/// Cost of a boundary-restricted SYRK ([`syrk`] shape, `n x n` result from a `k x n`
/// operand) whose operand rows are zero above the first of `boundary_rows` distinct
/// boundary indices of the contraction dimension `k`.
///
/// With `boundary_rows == k` this degenerates exactly to [`syrk`]; it is monotone in
/// the boundary count and never exceeds the dense kernel.
#[must_use]
pub fn boundary_syrk(
    spec: &GpuSpec,
    generation: crate::CudaGeneration,
    n: usize,
    k: usize,
    boundary_rows: usize,
) -> GpuCost {
    let w = boundary_work_fraction(generation, k, boundary_rows);
    let nf = n as f64;
    let kf = k as f64;
    let flops = nf * nf * kf * w;
    let bytes = (kf * nf * w + nf * nf / 2.0) * 8.0;
    roofline(spec, bytes, flops)
}

/// Cost of converting a sparse matrix (nnz entries) to a dense `rows x cols` matrix on
/// the device.
#[must_use]
pub fn sparse_to_dense(spec: &GpuSpec, nnz: usize, rows: usize, cols: usize) -> GpuCost {
    let bytes = nnz as f64 * 12.0 + rows as f64 * cols as f64 * 8.0;
    roofline(spec, bytes, nnz as f64)
}

/// Cost of a scatter or gather of `n` values on the device.
#[must_use]
pub fn scatter_gather(spec: &GpuSpec, n: usize) -> GpuCost {
    roofline(spec, n as f64 * 16.0, 0.0)
}

/// Work of one *host* simplicial (column-at-a-time) Cholesky factorization, as
/// `(bytes, flops)` for a host roofline: every stored factor entry is read and
/// written through index arrays (~16 bytes effective traffic per entry), and the
/// supernodal flop estimate `Σ_j nnz(L_{:,j})² ≈ nnz(L)²/n` assumes uniform column
/// fill.
#[must_use]
pub fn host_factor_work_simplicial(nnz_factor: usize, n: usize) -> (f64, f64) {
    let fnnz = nnz_factor as f64;
    let flops = 2.0 * fnnz * fnnz / n.max(1) as f64;
    (fnnz * 16.0, flops)
}

/// Work of one *host* run-blocked (supernodal) Cholesky factorization, as
/// `(bytes, flops)`.
///
/// The flop count is identical to the simplicial kernel (same factor, same
/// eliminations — it is bit-for-bit the same arithmetic), but the memory traffic
/// shrinks with supernode width: the columns of a supernode read one shared row index
/// list — the factor's only index storage, held by the symbolic analysis — beside
/// their contiguous value streams, so the per-entry index overhead is paid once per
/// sweep of up to four columns instead of once per entry.  With `nsuper == n` (every
/// column its own supernode) this degenerates to the simplicial traffic.
#[must_use]
pub fn host_factor_work_supernodal(nnz_factor: usize, n: usize, nsuper: usize) -> (f64, f64) {
    let fnnz = nnz_factor as f64;
    let flops = 2.0 * fnnz * fnnz / n.max(1) as f64;
    let bytes = fnnz * 8.0 * (1.0 + nsuper as f64 / n.max(1) as f64);
    (bytes, flops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GpuSpec {
        GpuSpec::a100_40gb()
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let s = spec();
        let c = symv(&s, 8);
        assert!(c.seconds < 2.0 * s.kernel_launch_seconds);
        assert!(c.seconds >= s.kernel_launch_seconds);
    }

    #[test]
    fn large_kernels_are_bandwidth_or_compute_bound() {
        let s = spec();
        let c = dense_trsm(&s, 4096, 1024);
        assert!(c.seconds > 10.0 * s.kernel_launch_seconds);
        assert!(c.flops > 1e10);
    }

    #[test]
    fn modern_sparse_trsm_is_slower_than_legacy() {
        let s = spec();
        let legacy = sparse_trsm(&s, 500_000, 10_000, 2_000, s.sparse_trsm_efficiency_legacy);
        let modern = sparse_trsm(&s, 500_000, 10_000, 2_000, s.sparse_trsm_efficiency_modern);
        assert!(modern.seconds > 3.0 * legacy.seconds);
    }

    #[test]
    fn syrk_cheaper_than_equivalent_trsm() {
        // The paper's SYRK path wins because SYRK touches a smaller output than a
        // second TRSM of the full right-hand side.
        let s = spec();
        let n = 2000; // lambdas
        let k = 8000; // dofs
        let c_syrk = syrk(&s, n, k);
        let c_trsm = dense_trsm(&s, k, n);
        assert!(c_syrk.seconds < c_trsm.seconds);
    }

    #[test]
    fn symm_amortizes_the_triangle_traffic() {
        let s = spec();
        let n = 2000;
        for k in [1usize, 2, 8, 64] {
            let batched = symm(&s, n, k);
            let repeated = (0..k).fold(GpuCost::zero(), |acc, _| acc.plus(symv(&s, n)));
            assert!(
                batched.seconds <= repeated.seconds + 1e-15,
                "k = {k}: batched {} vs repeated {}",
                batched.seconds,
                repeated.seconds
            );
        }
        // With one column the batched kernel is exactly a SYMV.
        assert_eq!(symm(&s, n, 1).seconds, symv(&s, n).seconds);
    }

    #[test]
    fn generation_wrapper_matches_explicit_efficiency() {
        let s = spec();
        let a = sparse_trsm_for(&s, crate::CudaGeneration::Legacy, 10_000, 1_000, 32);
        let b = sparse_trsm(&s, 10_000, 1_000, 32, s.sparse_trsm_efficiency_legacy);
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(
            s.sparse_trsm_efficiency(crate::CudaGeneration::Modern),
            s.sparse_trsm_efficiency_modern
        );
    }

    #[test]
    fn transfers_scale_linearly() {
        let s = spec();
        let one = transfer(&s, 1_000_000);
        let ten = transfer(&s, 10_000_000);
        assert!(ten.seconds > 5.0 * (one.seconds - s.pcie_latency_seconds));
    }

    #[test]
    fn supernodal_host_factor_work_never_exceeds_simplicial() {
        let (fnnz, n) = (50_000usize, 2_000usize);
        let (b_simp, f_simp) = host_factor_work_simplicial(fnnz, n);
        // Wide supernodes cut traffic; one-column supernodes degenerate exactly.
        let (b_wide, f_wide) = host_factor_work_supernodal(fnnz, n, n / 8);
        assert_eq!(f_wide, f_simp, "factorization kinds run the same arithmetic");
        assert!(b_wide < b_simp);
        let (b_degenerate, _) = host_factor_work_supernodal(fnnz, n, n);
        assert_eq!(b_degenerate, b_simp);
    }

    #[test]
    fn boundary_kernels_degenerate_to_dense_at_full_boundary() {
        let s = spec();
        for generation in [crate::CudaGeneration::Legacy, crate::CudaGeneration::Modern] {
            let (n, nrhs) = (3000usize, 700usize);
            assert_eq!(sparse_rhs_trsm(&s, generation, n, nrhs, n), dense_trsm(&s, n, nrhs));
            assert_eq!(boundary_syrk(&s, generation, nrhs, n, n), syrk(&s, nrhs, n));
            // Degenerate shapes never divide by zero.
            assert!(sparse_rhs_trsm(&s, generation, 0, 0, 0).seconds.is_finite());
            assert!(boundary_syrk(&s, generation, 0, 0, 0).seconds.is_finite());
        }
    }

    #[test]
    fn modelled_sparse_assembly_pair_beats_dense_by_1_5x_at_paper_scale() {
        // The sequel's (arXiv 2509.21037) assembly-pair claim at a paper-scale
        // subdomain.  nl and nb carry the 2x2x2 heat-3D problem (343 DOFs per
        // subdomain) measured per-subdomain averages over to n = 4096: 0.4702 local
        // multipliers and 0.4227 boundary DOFs per DOF.
        let s = spec();
        let (n, nl, nb) = (4096usize, 1926usize, 1732usize);
        let generation = crate::CudaGeneration::Legacy;
        let dense = dense_trsm(&s, n, nl).seconds + syrk(&s, nl, n).seconds;
        let pair = |nb| {
            sparse_rhs_trsm(&s, generation, n, nl, nb).seconds
                + boundary_syrk(&s, generation, nl, n, nb).seconds
        };
        assert!(dense / pair(nb) >= 1.5, "modelled speedup {}", dense / pair(nb));
        assert_eq!((dense / pair(n)).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn boundary_kernels_are_monotone_and_never_exceed_dense() {
        let s = spec();
        let (n, nrhs) = (4000usize, 900usize);
        for generation in [crate::CudaGeneration::Legacy, crate::CudaGeneration::Modern] {
            let mut prev = 0.0;
            for nb in [0usize, 1, 10, 100, 1000, n] {
                let t = sparse_rhs_trsm(&s, generation, n, nrhs, nb);
                let y = boundary_syrk(&s, generation, nrhs, n, nb);
                assert!(t.seconds >= prev, "trsm monotone in boundary count");
                assert!(t.seconds <= dense_trsm(&s, n, nrhs).seconds + 1e-15);
                assert!(y.seconds <= syrk(&s, nrhs, n).seconds + 1e-15);
                prev = t.seconds;
            }
        }
    }

    #[test]
    fn modern_generation_keeps_more_of_the_dense_cost() {
        // The slack factor mirrors the sparse-TRSM story: the modern API exploits the
        // right-hand-side sparsity less effectively than the legacy one.
        let s = spec();
        let (n, nrhs, nb) = (4000usize, 900usize, 60usize);
        let legacy = sparse_rhs_trsm(&s, crate::CudaGeneration::Legacy, n, nrhs, nb);
        let modern = sparse_rhs_trsm(&s, crate::CudaGeneration::Modern, n, nrhs, nb);
        assert!(modern.seconds > legacy.seconds);
        let legacy = boundary_syrk(&s, crate::CudaGeneration::Legacy, nrhs, n, nb);
        let modern = boundary_syrk(&s, crate::CudaGeneration::Modern, nrhs, n, nb);
        assert!(modern.seconds > legacy.seconds);
    }

    #[test]
    fn cost_accumulation() {
        let a = GpuCost { seconds: 1.0, bytes_moved: 10.0, flops: 100.0 };
        let b = GpuCost { seconds: 2.0, bytes_moved: 20.0, flops: 200.0 };
        let c = a.plus(b);
        assert_eq!(c.seconds, 3.0);
        assert_eq!(c.bytes_moved, 30.0);
        assert_eq!(c.flops, 300.0);
        assert_eq!(GpuCost::zero().seconds, 0.0);
    }
}
