//! Minimal wall-clock micro-bench harness.
//!
//! The environment has no registry access, so criterion is unavailable;
//! the `benches/` targets use this instead. It reports mean ns/iter after
//! a warmup pass — enough to spot order-of-magnitude regressions, which is
//! all the micro-benches are for (the *simulated*-time numbers come from
//! the `repro` binary).

use std::hint::black_box;
use std::time::Instant;

/// Run `f` repeatedly and print `name: <mean> ns/iter (<iters> iters)`.
///
/// The iteration count adapts so each measurement takes roughly
/// `target_ms` of wall clock (min 10 iterations).
pub fn bench<T>(name: &str, target_ms: u64, mut f: impl FnMut() -> T) {
    // Warmup + calibration: time a small probe batch.
    let probe = 5;
    let start = Instant::now();
    for _ in 0..probe {
        black_box(f());
    }
    let per_iter = (start.elapsed().as_nanos() / probe as u128).max(1);
    let iters = ((target_ms as u128 * 1_000_000) / per_iter).clamp(10, 1_000_000) as u64;

    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let mean = start.elapsed().as_nanos() / iters as u128;
    println!("{name}: {mean} ns/iter ({iters} iters)");
}

/// Like [`bench`], but `setup` runs outside the timed region each
/// iteration (for destructive bodies that consume their input).
pub fn bench_with_setup<S, T>(
    name: &str,
    target_ms: u64,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) {
    let probe = 3;
    let mut probe_ns: u128 = 0;
    for _ in 0..probe {
        let input = setup();
        let start = Instant::now();
        black_box(f(input));
        probe_ns += start.elapsed().as_nanos();
    }
    let per_iter = (probe_ns / probe as u128).max(1);
    let iters = ((target_ms as u128 * 1_000_000) / per_iter).clamp(5, 100_000) as u64;

    let mut total: u128 = 0;
    for _ in 0..iters {
        let input = setup();
        let start = Instant::now();
        black_box(f(input));
        total += start.elapsed().as_nanos();
    }
    println!("{name}: {} ns/iter ({iters} iters)", total / iters as u128);
}
