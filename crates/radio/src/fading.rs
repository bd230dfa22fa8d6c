//! Shadowing and fast fading.
//!
//! Two separate stochastic components, matching the structure the paper's
//! statistics reveal:
//!
//! - [`ShadowField`]: a **deterministic, seeded** spatial field of log-normal
//!   shadowing (smoothed lattice noise with ~meters-scale correlation). It is
//!   a pure function of position, so repeated passes over the same trajectory
//!   see the same shadowing — this is why geolocation carries predictive
//!   signal (Table 5: ~70% of cell pairs differ significantly).
//! - [`FastFading`]: a temporal AR(1) (Gauss–Markov) process in dB, fresh
//!   per measurement pass. This is the "uncontrollable random effect" that
//!   keeps CV high (§4.1: ~53% of cells have CV ≥ 50%) and motivates the
//!   paper's ±200 Mbps error bands.

use lumos5g_geo::Point2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 — tiny, high-quality hash for lattice noise.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in [−1, 1] for lattice point `(i, j)` under `seed`.
fn lattice_value(seed: u64, i: i64, j: i64) -> f64 {
    let h = splitmix64(
        seed ^ splitmix64(i as u64).wrapping_mul(3) ^ splitmix64(j as u64).wrapping_mul(7),
    );
    (h >> 11) as f64 / ((1u64 << 53) as f64) * 2.0 - 1.0
}

fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// A deterministic spatially-correlated shadowing field (value noise).
///
/// Evaluating at the same position always yields the same dB offset for a
/// given seed — the field plays the role of the fixed environment (clutter,
/// reflectors) around a deployment.
#[derive(Debug, Clone, Copy)]
pub struct ShadowField {
    seed: u64,
    /// Correlation length (lattice spacing), meters.
    corr_m: f64,
    /// Standard deviation of the field, dB.
    sigma_db: f64,
}

impl ShadowField {
    /// Create a field with decorrelation distance `corr_m` meters and
    /// standard deviation `sigma_db` dB.
    pub fn new(seed: u64, corr_m: f64, sigma_db: f64) -> Self {
        assert!(corr_m > 0.0, "correlation length must be positive");
        assert!(sigma_db >= 0.0, "sigma must be non-negative");
        ShadowField {
            seed,
            corr_m,
            sigma_db,
        }
    }

    /// Typical mmWave urban shadowing: 10 m correlation, 4 dB sigma.
    pub fn mmwave_default(seed: u64) -> Self {
        ShadowField::new(seed, 10.0, 4.0)
    }

    /// Shadowing offset at `p`, dB (two octaves of smooth value noise,
    /// scaled so the marginal standard deviation ≈ `sigma_db`).
    pub fn sample_db(&self, p: Point2) -> f64 {
        let base = self.octave(p, self.corr_m);
        let detail = self.octave(p, self.corr_m / 2.9) * 0.5;
        // Var of uniform[−1,1] is 1/3; two octaves sum var (1 + 0.25)/3.
        // Normalize to unit variance then scale by sigma.
        let norm = ((1.0 + 0.25) / 3.0f64).sqrt();
        (base + detail) / norm * self.sigma_db
    }

    fn octave(&self, p: Point2, cell: f64) -> f64 {
        let gx = p.x / cell;
        let gy = p.y / cell;
        let i = gx.floor() as i64;
        let j = gy.floor() as i64;
        let tx = smoothstep(gx - i as f64);
        let ty = smoothstep(gy - j as f64);
        let seed = self.seed ^ (cell.to_bits());
        let v00 = lattice_value(seed, i, j);
        let v10 = lattice_value(seed, i + 1, j);
        let v01 = lattice_value(seed, i, j + 1);
        let v11 = lattice_value(seed, i + 1, j + 1);
        let a = v00 + (v10 - v00) * tx;
        let b = v01 + (v11 - v01) * tx;
        a + (b - a) * ty
    }
}

/// Temporal AR(1) fast fading in dB: `x' = ρ·x + √(1−ρ²)·σ·ε`.
#[derive(Debug, Clone)]
pub struct FastFading {
    rng: StdRng,
    rho: f64,
    sigma_db: f64,
    state_db: f64,
}

impl FastFading {
    /// Create with per-tick correlation `rho` and marginal sigma `sigma_db`.
    pub fn new(seed: u64, rho: f64, sigma_db: f64) -> Self {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0,1)");
        assert!(sigma_db >= 0.0, "sigma must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        // Start from the stationary distribution.
        let state_db = sigma_db * gaussian(&mut rng);
        FastFading {
            rng,
            rho,
            sigma_db,
            state_db,
        }
    }

    /// Typical 1 Hz mmWave fast-fading: ρ = 0.6, σ = 3 dB.
    pub fn mmwave_default(seed: u64) -> Self {
        FastFading::new(seed, 0.6, 3.0)
    }

    /// Advance one tick and return the new fading value, dB.
    pub fn next_db(&mut self) -> f64 {
        let innovation =
            (1.0 - self.rho * self.rho).sqrt() * self.sigma_db * gaussian(&mut self.rng);
        self.state_db = self.rho * self.state_db + innovation;
        self.state_db
    }
}

/// Standard normal variate via Box–Muller (keeps us inside the approved
/// crate list — `rand` without `rand_distr`).
pub fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > 1e-300 {
            let u2: f64 = rng.gen::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_field_is_deterministic() {
        let f = ShadowField::mmwave_default(42);
        let p = Point2::new(13.7, -8.2);
        assert_eq!(f.sample_db(p), f.sample_db(p));
    }

    #[test]
    fn shadow_field_varies_across_space() {
        let f = ShadowField::mmwave_default(42);
        let a = f.sample_db(Point2::new(0.0, 0.0));
        let b = f.sample_db(Point2::new(500.0, 500.0));
        assert!((a - b).abs() > 1e-6);
    }

    #[test]
    fn shadow_field_is_smooth_at_small_steps() {
        let f = ShadowField::mmwave_default(7);
        let a = f.sample_db(Point2::new(10.0, 10.0));
        let b = f.sample_db(Point2::new(10.2, 10.0));
        assert!((a - b).abs() < 1.0, "20 cm step moved shadowing {a}→{b}");
    }

    #[test]
    fn shadow_field_marginal_sigma_is_plausible() {
        let f = ShadowField::new(3, 10.0, 4.0);
        let mut vals = Vec::new();
        for i in 0..60 {
            for j in 0..60 {
                vals.push(f.sample_db(Point2::new(i as f64 * 17.0, j as f64 * 17.0)));
            }
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let sd = var.sqrt();
        assert!(sd > 2.0 && sd < 6.0, "sd = {sd}");
        assert!(mean.abs() < 1.0, "mean = {mean}");
    }

    #[test]
    fn different_seeds_give_different_fields() {
        let f1 = ShadowField::mmwave_default(1);
        let f2 = ShadowField::mmwave_default(2);
        let p = Point2::new(25.0, 3.0);
        assert!((f1.sample_db(p) - f2.sample_db(p)).abs() > 1e-9);
    }

    #[test]
    fn fast_fading_is_reproducible_per_seed() {
        let mut a = FastFading::mmwave_default(9);
        let mut b = FastFading::mmwave_default(9);
        for _ in 0..10 {
            assert_eq!(a.next_db(), b.next_db());
        }
    }

    #[test]
    fn fast_fading_stationary_variance() {
        let mut f = FastFading::new(11, 0.6, 3.0);
        let xs: Vec<f64> = (0..20_000).map(|_| f.next_db()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((var.sqrt() - 3.0).abs() < 0.3, "sd = {}", var.sqrt());
        assert!(mean.abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn fast_fading_is_autocorrelated() {
        let mut f = FastFading::new(13, 0.9, 3.0);
        let xs: Vec<f64> = (0..20_000).map(|_| f.next_db()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        let cov1 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (xs.len() - 1) as f64;
        let rho1 = cov1 / var;
        assert!((rho1 - 0.9).abs() < 0.05, "rho1 = {rho1}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<f64> = (0..50_000).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.05);
    }
}
