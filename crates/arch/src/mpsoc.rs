//! Architecture description: cores, register space, scaling vectors.

use std::fmt;

use serde::{Deserialize, Serialize};

use sea_taskgraph::units::Bits;

use crate::dvs::{LevelSet, VoltageLevel};
use crate::ArchError;

/// Identifier of a processing core (dense index `0..n_cores`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core id from a dense index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// Returns the dense index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 1-based like the paper's "Core 1"; widened, since a decoded
        // id may be any `usize` and an error message prints it.
        write!(f, "core{}", self.0 as u128 + 1)
    }
}

/// Default injectable register space per core: the ARM7 register file
/// (31 × 32 bit) plus 8 kbit data cache, 16 kbit instruction cache and
/// 512 kbit private memory (paper §II-A; decimal kbit).
pub const DEFAULT_CORE_REGISTER_SPACE_BITS: u64 = 31 * 32 + 8_000 + 16_000 + 512_000;

/// Default effective switched capacitance `C_L` (farads). Calibrated so the
/// four-core MPEG-2 designs land in the paper's few-mW range (Table II);
/// only relative power matters for the reproduction (DESIGN.md §2.1).
pub const DEFAULT_C_LOAD_FARADS: f64 = 55e-12;

/// Platform overhead factor calibrated to the paper's SystemC measurements.
///
/// The Fig. 2 task costs are pure computation cycles; the authors' measured
/// multiprocessor execution times (Table II: 1.32×10⁹ cycles ≈ 13.2 s for
/// the four-core proposed design against the 14.58 s deadline) include
/// pipeline stalls, cache misses and memory/bus contention that an ideal
/// cycle-count model does not see. Dividing each core's *effective*
/// throughput by this factor reproduces the published timing pressure —
/// without it the decoder meets its deadline at the lowest voltage on just
/// two cores and the architecture-allocation trends of Table III vanish.
///
/// The value is pinned by Table II itself: the proposed design's scaling
/// (2, 2, 3, 2) must be feasible (requires ≤ 1.94) while the all-lowest
/// combination (3, 3, 3, 3) must not be (requires ≥ 1.87), exactly as in
/// the published four-core outcome. The real clock (and therefore power
/// and SEU exposure per second) is unaffected. See DESIGN.md §3.
pub const ARM7_SYSTEMC_CPI_OVERHEAD: f64 = 1.9;

/// A homogeneous MPSoC: `C` identical cores sharing one DVS level set, with
/// dedicated inter-core links (paper Fig. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    n_cores: usize,
    levels: LevelSet,
    c_load_farads: f64,
    core_register_space: Bits,
    #[serde(default = "default_cpi_overhead")]
    cpi_overhead: f64,
}

// Dead only while the workspace builds against the no-op serde shim; the
// real serde derive reads it through `#[serde(default = "...")]` above.
#[allow(dead_code)]
fn default_cpi_overhead() -> f64 {
    1.0
}

impl Architecture {
    /// Creates a homogeneous architecture with default capacitance and
    /// register space.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    #[must_use]
    pub fn homogeneous(n_cores: usize, levels: LevelSet) -> Self {
        assert!(n_cores > 0, "an MPSoC needs at least one core");
        Architecture {
            n_cores,
            levels,
            c_load_farads: DEFAULT_C_LOAD_FARADS,
            core_register_space: Bits::new(DEFAULT_CORE_REGISTER_SPACE_BITS),
            cpi_overhead: 1.0,
        }
    }

    /// Creates a homogeneous architecture with the ARM7/SystemC platform
    /// calibration ([`ARM7_SYSTEMC_CPI_OVERHEAD`]) applied — the
    /// configuration the experiment harnesses use.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    #[must_use]
    pub fn arm7_calibrated(n_cores: usize, levels: LevelSet) -> Self {
        Architecture::homogeneous(n_cores, levels)
            .with_cpi_overhead(ARM7_SYSTEMC_CPI_OVERHEAD)
            .expect("calibration constant is positive")
    }

    /// Replaces the platform overhead factor (effective throughput becomes
    /// `f / overhead`; the clock itself — power, SEU exposure — is
    /// unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] for factors below 1.
    pub fn with_cpi_overhead(mut self, overhead: f64) -> Result<Self, ArchError> {
        if overhead.is_nan() || overhead < 1.0 {
            return Err(ArchError::InvalidParameter {
                message: format!("CPI overhead must be >= 1, got {overhead}"),
            });
        }
        self.cpi_overhead = overhead;
        Ok(self)
    }

    /// Replaces the effective switched capacitance (non-consuming builder).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] for a non-positive value.
    pub fn with_c_load(mut self, c_load_farads: f64) -> Result<Self, ArchError> {
        if c_load_farads.is_nan() || c_load_farads <= 0.0 {
            return Err(ArchError::InvalidParameter {
                message: format!("C_L must be positive, got {c_load_farads}"),
            });
        }
        self.c_load_farads = c_load_farads;
        Ok(self)
    }

    /// Replaces the per-core injectable register space.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] for a zero-sized space.
    pub fn with_core_register_space(mut self, bits: Bits) -> Result<Self, ArchError> {
        if bits.is_zero() {
            return Err(ArchError::InvalidParameter {
                message: "core register space must be non-empty".into(),
            });
        }
        self.core_register_space = bits;
        Ok(self)
    }

    /// Number of cores `C`.
    #[must_use]
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Iterates over all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.n_cores).map(CoreId::new)
    }

    /// The DVS level set shared by all cores.
    #[must_use]
    pub fn levels(&self) -> &LevelSet {
        &self.levels
    }

    /// Effective switched capacitance `C_L` in farads.
    #[must_use]
    pub fn c_load_farads(&self) -> f64 {
        self.c_load_farads
    }

    /// Injectable register space per core (register file + caches + memory).
    #[must_use]
    pub fn core_register_space(&self) -> Bits {
        self.core_register_space
    }

    /// Platform overhead factor (1.0 = ideal cycle-count timing).
    #[must_use]
    pub fn cpi_overhead(&self) -> f64 {
        self.cpi_overhead
    }

    /// Resolves the operating point of `core` under scaling vector `s`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range; `s` is validated at construction.
    #[must_use]
    pub fn operating_point(&self, core: CoreId, s: &ScalingVector) -> VoltageLevel {
        assert!(core.index() < self.n_cores, "{core} out of range");
        self.levels.level(s.coefficient(core))
    }

    /// Effective execution throughput of `core` under `s`, in cycles of
    /// useful work per second: `f / cpi_overhead`. Timing models (the list
    /// scheduler, the DES engine) divide work by this; electrical models
    /// (power, per-cycle SEU exposure) keep the raw clock `f`.
    #[must_use]
    pub fn effective_frequency(&self, core: CoreId, s: &ScalingVector) -> f64 {
        self.operating_point(core, s).f_hz / self.cpi_overhead
    }
}

/// Per-core scaling coefficients `(s_1, …, s_C)`, validated against an
/// architecture (1-based coefficients as in Table I / Fig. 5).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScalingVector(Vec<u8>);

impl ScalingVector {
    /// Validates coefficients against an architecture's level count.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::WrongCoreCount`] or
    /// [`ArchError::InvalidCoefficient`].
    pub fn try_new(coefficients: Vec<u8>, arch: &Architecture) -> Result<Self, ArchError> {
        if coefficients.len() != arch.n_cores() {
            return Err(ArchError::WrongCoreCount {
                got: coefficients.len(),
                expected: arch.n_cores(),
            });
        }
        let levels = arch.levels().len();
        for &s in &coefficients {
            if s == 0 || usize::from(s) > levels {
                return Err(ArchError::InvalidCoefficient {
                    coefficient: s,
                    levels,
                });
            }
        }
        Ok(ScalingVector(coefficients))
    }

    /// All cores at the nominal level (`s = 1`).
    #[must_use]
    pub fn all_nominal(arch: &Architecture) -> Self {
        ScalingVector(vec![1; arch.n_cores()])
    }

    /// All cores at the lowest-voltage level (`s = L`), where the paper's
    /// power minimization starts.
    #[must_use]
    pub fn all_lowest(arch: &Architecture) -> Self {
        ScalingVector(vec![arch.levels().lowest_coefficient(); arch.n_cores()])
    }

    /// All cores at the same coefficient `s`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidCoefficient`] if `s` is out of range.
    pub fn uniform(s: u8, arch: &Architecture) -> Result<Self, ArchError> {
        ScalingVector::try_new(vec![s; arch.n_cores()], arch)
    }

    /// Coefficient of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn coefficient(&self, core: CoreId) -> u8 {
        self.0[core.index()]
    }

    /// All coefficients in core order.
    #[must_use]
    pub fn coefficients(&self) -> &[u8] {
        &self.0
    }

    /// Number of cores covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the vector covers no cores (never true once validated).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for ScalingVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch4() -> Architecture {
        Architecture::homogeneous(4, LevelSet::arm7_three_level())
    }

    #[test]
    fn validates_scaling_vectors() {
        let a = arch4();
        assert!(ScalingVector::try_new(vec![1, 2, 3, 2], &a).is_ok());
        assert!(matches!(
            ScalingVector::try_new(vec![1, 2, 3], &a).unwrap_err(),
            ArchError::WrongCoreCount { .. }
        ));
        assert!(matches!(
            ScalingVector::try_new(vec![1, 2, 3, 4], &a).unwrap_err(),
            ArchError::InvalidCoefficient { .. }
        ));
        assert!(matches!(
            ScalingVector::try_new(vec![0, 2, 3, 1], &a).unwrap_err(),
            ArchError::InvalidCoefficient { .. }
        ));
    }

    #[test]
    fn nominal_and_lowest_helpers() {
        let a = arch4();
        assert_eq!(ScalingVector::all_nominal(&a).coefficients(), &[1, 1, 1, 1]);
        assert_eq!(ScalingVector::all_lowest(&a).coefficients(), &[3, 3, 3, 3]);
        assert_eq!(
            ScalingVector::uniform(2, &a).unwrap().coefficients(),
            &[2, 2, 2, 2]
        );
    }

    #[test]
    fn operating_point_resolution() {
        let a = arch4();
        let s = ScalingVector::try_new(vec![2, 2, 3, 2], &a).unwrap();
        let p2 = a.operating_point(CoreId::new(2), &s);
        assert!((p2.f_hz - 200e6 / 3.0).abs() < 1e3);
        let p0 = a.operating_point(CoreId::new(0), &s);
        assert!((p0.f_hz - 100e6).abs() < 1.0);
    }

    #[test]
    fn default_register_space_matches_section_2a() {
        let a = arch4();
        assert_eq!(a.core_register_space().as_u64(), 536_992);
    }

    #[test]
    fn builder_rejects_bad_values() {
        let a = arch4();
        assert!(a.clone().with_c_load(0.0).is_err());
        assert!(a.clone().with_c_load(-1.0).is_err());
        assert!(a.clone().with_core_register_space(Bits::ZERO).is_err());
        let tuned = a.with_c_load(10e-12).unwrap();
        assert_eq!(tuned.c_load_farads(), 10e-12);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_architecture_panics() {
        let _ = Architecture::homogeneous(0, LevelSet::arm7_three_level());
    }

    #[test]
    fn display_forms() {
        let a = arch4();
        let s = ScalingVector::try_new(vec![2, 2, 3, 2], &a).unwrap();
        assert_eq!(s.to_string(), "(2,2,3,2)");
        assert_eq!(CoreId::new(0).to_string(), "core1");
    }
}
