//! A functional [`Invoker`] backed by the
//! work-stealing pool: every kernel invocation of a workload executes with
//! real parallelism, which is how the test suite shakes out data races in
//! kernel item functions.

use crate::pool::parallel_for;
use easched_kernels::Invoker;

/// Executes each invocation's items on `workers` OS threads with work
/// stealing.
///
/// # Examples
///
/// ```
/// use easched_kernels::suite;
/// use easched_runtime::ParallelInvoker;
///
/// let w = suite::blackscholes_small();
/// let mut invoker = ParallelInvoker::new(4);
/// assert!(w.drive(&mut invoker).is_passed());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParallelInvoker {
    workers: usize,
}

impl ParallelInvoker {
    /// Creates an invoker running on `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> ParallelInvoker {
        assert!(workers > 0, "need at least one worker");
        ParallelInvoker { workers }
    }
}

impl Invoker for ParallelInvoker {
    fn invoke(&mut self, n: u64, process: &(dyn Fn(usize) + Sync)) {
        parallel_for(n, self.workers, process);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn executes_all_items() {
        let sum = AtomicU64::new(0);
        ParallelInvoker::new(3).invoke(1000, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 499_500);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn rejects_zero_workers() {
        ParallelInvoker::new(0);
    }
}
