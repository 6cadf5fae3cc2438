//! The one place randomness comes from.  Every generated input of the benchmark —
//! the per-subdomain load scalings of the timed load case, the dual vectors fed to
//! `apply`, and the service job sequence — is a pure function of `--seed`; the
//! program under test only ever sees the generated inputs, never the seed.

use feti_core::LoadCase;
use feti_decompose::DecomposedProblem;

/// SplitMix64: tiny, statistically sound for this purpose, and bit-reproducible on
/// every platform (integer arithmetic only).
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// Independent streams, so drawing more numbers for one kind of input never shifts
/// another kind.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Loads,
    DualVectors,
    /// One stream per closed-loop client.
    Jobs(usize),
}

impl Rng {
    pub fn new(seed: u64, stream: Stream) -> Self {
        let tag = match stream {
            Stream::Loads => 0x4c4f_4144,
            Stream::DualVectors => 0x4455_414c,
            Stream::Jobs(client) => 0x4a4f_4200 + client as u64,
        };
        let mut rng = Rng(seed ^ (tag << 32));
        // Decorrelate nearby seeds before the first draw.
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// One scaling factor per subdomain in `[0.5, 1.5)`: the timed load case is the
/// assembled load with each subdomain's part scaled independently, so the right-hand
/// side changes direction (not just magnitude) with the seed.
pub fn load_scalings(rng: &mut Rng, num_subdomains: usize) -> Vec<f64> {
    (0..num_subdomains).map(|_| rng.range(0.5, 1.5)).collect()
}

pub fn scaled_load(problem: &DecomposedProblem, scalings: &[f64]) -> LoadCase {
    assert_eq!(scalings.len(), problem.subdomains.len());
    problem
        .subdomains
        .iter()
        .zip(scalings)
        .map(|(sd, s)| sd.assembled.load.iter().map(|v| v * s).collect())
        .collect()
}

/// The problem's own assembled load: the case the reference solutions are computed for.
pub fn baseline_load(problem: &DecomposedProblem) -> LoadCase {
    problem.subdomains.iter().map(|sd| sd.assembled.load.clone()).collect()
}

/// A dual vector with entries uniform in `[-1, 1)`.
pub fn dual_vector(rng: &mut Rng, num_lambdas: usize) -> Vec<f64> {
    (0..num_lambdas).map(|_| rng.range(-1.0, 1.0)).collect()
}

/// One job of the service closed loop: which pool geometry, and its load scalings.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub geometry: usize,
    pub scalings: Vec<f64>,
}

/// Zipf(1) choice over the pool (geometry `k` with weight `1/(k+1)`), so a few
/// geometries stay warm in the cache while the tail keeps missing and evicting.
pub fn next_job(rng: &mut Rng, subdomains_per_geometry: &[usize]) -> Job {
    let total: f64 = (1..=subdomains_per_geometry.len()).map(|k| 1.0 / k as f64).sum();
    let mut u = rng.unit() * total;
    let mut geometry = subdomains_per_geometry.len() - 1;
    for k in 0..subdomains_per_geometry.len() {
        u -= 1.0 / (k + 1) as f64;
        if u < 0.0 {
            geometry = k;
            break;
        }
    }
    let scalings = load_scalings(rng, subdomains_per_geometry[geometry]);
    Job { geometry, scalings }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn jobs(seed: u64, client: usize, n: usize) -> Vec<Job> {
        let mut rng = Rng::new(seed, Stream::Jobs(client));
        (0..n).map(|_| next_job(&mut rng, &[4, 4, 4, 8, 8, 4])).collect()
    }

    #[test]
    fn same_seed_yields_byte_identical_inputs() {
        for stream in [Stream::Loads, Stream::DualVectors] {
            let a = load_scalings(&mut Rng::new(7, stream), 64);
            let b = load_scalings(&mut Rng::new(7, stream), 64);
            assert_eq!(bytes(&a), bytes(&b));
        }
        let a = dual_vector(&mut Rng::new(7, Stream::DualVectors), 2627);
        let b = dual_vector(&mut Rng::new(7, Stream::DualVectors), 2627);
        assert_eq!(bytes(&a), bytes(&b));
        assert_eq!(jobs(7, 0, 200), jobs(7, 0, 200));
    }

    #[test]
    fn different_seeds_and_streams_differ() {
        let a = load_scalings(&mut Rng::new(7, Stream::Loads), 8);
        let b = load_scalings(&mut Rng::new(8, Stream::Loads), 8);
        assert_ne!(bytes(&a), bytes(&b));
        let c = load_scalings(&mut Rng::new(7, Stream::DualVectors), 8);
        assert_ne!(bytes(&a), bytes(&c));
        assert_ne!(jobs(7, 0, 50), jobs(8, 0, 50));
        assert_ne!(jobs(7, 0, 50), jobs(7, 1, 50), "each client has its own sequence");
    }

    #[test]
    fn generated_values_stay_in_range() {
        let mut rng = Rng::new(1, Stream::Loads);
        assert!(load_scalings(&mut rng, 1000).iter().all(|s| (0.5..1.5).contains(s)));
        assert!(dual_vector(&mut rng, 1000).iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn zipf_prefers_the_head_but_reaches_the_tail() {
        let mut counts = [0usize; 6];
        for job in jobs(3, 0, 6000) {
            counts[job.geometry] += 1;
            assert_eq!(job.scalings.len(), [4, 4, 4, 8, 8, 4][job.geometry]);
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "popularity falls with rank: {counts:?}");
        assert!(counts[5] > 200, "the tail must keep occurring: {counts:?}");
    }
}
