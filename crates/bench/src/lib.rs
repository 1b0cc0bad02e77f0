//! Shared helpers for the Criterion benches in `benches/`.

use criterion::Criterion;

/// Criterion configuration for micro-kernels (schedulers, samplers).
#[must_use]
pub fn kernel_criterion() -> Criterion {
    Criterion::default()
        .sample_size(50)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_secs(1))
}
