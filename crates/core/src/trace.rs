//! Per-iteration traces of the configuration algorithms, powering the
//! revenue-vs-time analysis of Figure 6.

use std::time::Duration;

/// One algorithm iteration: the configuration revenue after the iteration
/// and the cumulative wall time spent so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationPoint {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Total expected revenue of the configuration after this iteration.
    pub revenue: f64,
    /// Cumulative wall-clock time from algorithm start.
    pub elapsed: Duration,
    /// Number of top-level bundles after this iteration.
    pub n_bundles: usize,
}

/// The full trace of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationTrace {
    points: Vec<IterationPoint>,
}

impl IterationTrace {
    /// Start an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point; iterations must be recorded in order.
    pub fn push(&mut self, revenue: f64, elapsed: Duration, n_bundles: usize) {
        let iteration = self.points.len() + 1;
        if let Some(last) = self.points.last() {
            debug_assert!(elapsed >= last.elapsed, "elapsed time must be monotone");
        }
        self.points.push(IterationPoint { iteration, revenue, elapsed, n_bundles });
    }

    /// All recorded points.
    pub fn points(&self) -> &[IterationPoint] {
        &self.points
    }

    /// Number of iterations (Figure 6 reports e.g. 10 for Mixed Matching vs
    /// 4347 for Mixed Greedy on the paper's dataset).
    pub fn iterations(&self) -> usize {
        self.points.len()
    }

    /// Total wall time (the last point's cumulative time).
    pub fn total_time(&self) -> Duration {
        self.points.last().map_or(Duration::ZERO, |p| p.elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = IterationTrace::new();
        t.push(10.0, Duration::from_millis(5), 4);
        t.push(12.0, Duration::from_millis(9), 3);
        assert_eq!(t.iterations(), 2);
        assert_eq!(t.points()[0].iteration, 1);
        assert_eq!(t.points()[1].iteration, 2);
        assert_eq!(t.points()[1].revenue, 12.0);
        assert_eq!(t.total_time(), Duration::from_millis(9));
    }

    #[test]
    fn empty_trace() {
        let t = IterationTrace::new();
        assert_eq!(t.iterations(), 0);
        assert_eq!(t.total_time(), Duration::ZERO);
    }
}
