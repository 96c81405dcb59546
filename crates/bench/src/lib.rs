//! Shared helpers for the DynSLD benchmark harness.
//!
//! Every benchmark target in `benches/` regenerates one table, theorem or section of the
//! paper; README.md's "Benchmarks" section has the index. System questions (engine
//! throughput, serving, durability, partitioning, telemetry cost) are answered by the
//! `baseline/` package's workloads and per-layer ladder, which is also where the numbers of
//! record come from. The helpers here keep the measurement configuration consistent and
//! small enough that `cargo bench --workspace` completes in minutes while still exposing the
//! asymptotic *shapes* the paper claims.

use criterion::Criterion;
use std::time::Duration;

/// The measurement configuration used by every benchmark group: few samples, short measurement
/// windows. The goal is shape (who wins, how costs grow), not microsecond precision.
pub fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(500))
        .configure_from_args()
}

/// The default problem sizes used by `n`-sweeps. Kept modest so the whole suite runs quickly;
/// edit these constants for larger runs.
pub const N_SWEEP: &[usize] = &[10_000, 40_000];

/// Dendrogram-height sweep used by the Theorem 1.1/1.3 benchmarks (at fixed n).
pub const H_SWEEP: &[usize] = &[16, 256, 4_096, 40_000];

/// Batch-size sweep used by the Theorem 1.5 benchmark.
pub const K_SWEEP: &[usize] = &[1, 16, 128, 1_024];

/// Structural-change sweep used by the output-sensitivity benchmarks (c ≈ 2·h of the
/// Theorem 5.1 instance).
pub const C_SWEEP: &[usize] = &[4, 64, 1_024, 16_384];
