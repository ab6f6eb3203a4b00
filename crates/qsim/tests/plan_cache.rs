//! The plan cache under concurrent first lookups: one compile, one shared
//! plan, and counters that balance.
//!
//! One test function on purpose: [`qsim::plan::compile_count`] and
//! [`qsim::plan::cache_counters`] are process-wide, and this file being its
//! own test binary keeps them free of other tests' compilations.

use qsim::plan::{cache_counters, cached_symmetric, compile_count};
use std::sync::{Arc, Barrier};

#[test]
fn concurrent_cold_lookups_compile_one_shared_plan() {
    const THREADS: usize = 8;
    let (dims, targets) = ([3usize, 2, 3, 3], [3usize, 0, 2]);
    let compiles = compile_count();
    let (hits, misses) = cache_counters();
    let start = Barrier::new(THREADS);
    let plans: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    cached_symmetric(&dims, &targets)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(
        plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])),
        "every thread must get the one cached plan"
    );
    assert_eq!(compile_count() - compiles, 1, "one compile for one shape");
    let (hits2, misses2) = cache_counters();
    assert_eq!((hits2 - hits, misses2 - misses), (THREADS as u64 - 1, 1));
    assert_eq!(plans[0].block(), 27);
}
