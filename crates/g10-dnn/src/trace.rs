//! Kernel execution traces.
//!
//! A [`KernelTrace`] is what the paper's simulator replays: the sequence of
//! kernels of one training iteration together with their measured (here:
//! modelled) durations.  The G10 scheduler uses the same trace to estimate
//! tensor inactive-period lengths at compile time; the §7.6 experiment
//! perturbs the *scheduler's* copy of the trace with random noise to study
//! robustness to profiling error.

use crate::cost::GpuCostModel;
use crate::graph::{DnnGraph, KernelId};
use crate::time::Nanos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-kernel timing for one training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    durations: Vec<Nanos>,
    start_times: Vec<Nanos>,
    total: Nanos,
}

impl KernelTrace {
    /// Builds a trace by running the cost model over every kernel of the
    /// graph (the "profiling" step of the paper, done analytically here).
    pub fn profile(graph: &DnnGraph, model: &GpuCostModel) -> Self {
        let durations: Vec<Nanos> = graph
            .kernels()
            .iter()
            .map(|k| model.kernel_duration(k))
            .collect();
        Self::from_durations(durations)
    }

    /// Builds a trace directly from per-kernel durations (useful in tests and
    /// for replaying externally collected traces).
    pub fn from_durations(durations: Vec<Nanos>) -> Self {
        let mut start_times = Vec::with_capacity(durations.len());
        let mut now = Nanos::ZERO;
        for d in &durations {
            start_times.push(now);
            now += *d;
        }
        KernelTrace {
            durations,
            start_times,
            total: now,
        }
    }

    /// Number of kernels in the trace.
    pub fn len(&self) -> usize {
        self.durations.len()
    }

    /// Returns `true` if the trace contains no kernels.
    pub fn is_empty(&self) -> bool {
        self.durations.is_empty()
    }

    /// Duration of one kernel.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn duration(&self, kernel: KernelId) -> Nanos {
        self.durations[kernel.index()]
    }

    /// Start time of one kernel assuming back-to-back execution with no
    /// stalls (the *ideal* schedule the scheduler plans against).
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn start_time(&self, kernel: KernelId) -> Nanos {
        self.start_times[kernel.index()]
    }

    /// End time of one kernel in the ideal schedule.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn end_time(&self, kernel: KernelId) -> Nanos {
        self.start_times[kernel.index()] + self.durations[kernel.index()]
    }

    /// Total duration of the iteration in the ideal schedule.  This is the
    /// "Ideal (infinite GPU memory)" baseline of the paper's Figure 11.
    pub fn total_duration(&self) -> Nanos {
        self.total
    }

    /// All durations in execution order.
    pub fn durations(&self) -> &[Nanos] {
        &self.durations
    }

    /// Returns a copy of the trace with every kernel duration perturbed by a
    /// uniformly random relative error in `[-error_fraction, +error_fraction]`
    /// (the §7.6 profiling-error experiment).  The perturbation is
    /// deterministic for a given `seed`.
    pub fn with_noise(&self, error_fraction: f64, seed: u64) -> KernelTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let durations: Vec<Nanos> = self
            .durations
            .iter()
            .map(|d| {
                let noise = if error_fraction > 0.0 {
                    rng.gen_range(-error_fraction..=error_fraction)
                } else {
                    0.0
                };
                d.scale(1.0 + noise)
            })
            .collect();
        KernelTrace::from_durations(durations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn toy_graph() -> DnnGraph {
        let mut b = GraphBuilder::new("toy", 2);
        let x = b.input_image(3, 16, 16);
        let c = b.conv2d("conv", &x, 8, 3, 1, 1);
        let r = b.relu("relu", &c);
        let p = b.global_avg_pool("pool", &r);
        let y = b.linear("fc", &p, 10);
        b.finish(&y)
    }

    #[test]
    fn profile_covers_every_kernel() {
        let g = toy_graph();
        let t = KernelTrace::profile(&g, &GpuCostModel::a100());
        assert_eq!(t.len(), g.num_kernels());
        assert!(!t.is_empty());
        assert_eq!(
            t.total_duration(),
            t.durations().iter().copied().sum::<Nanos>()
        );
    }

    #[test]
    fn start_times_are_cumulative() {
        let t = KernelTrace::from_durations(vec![
            Nanos::from_micros(10),
            Nanos::from_micros(20),
            Nanos::from_micros(30),
        ]);
        assert_eq!(t.start_time(KernelId::new(0)), Nanos::ZERO);
        assert_eq!(t.start_time(KernelId::new(1)), Nanos::from_micros(10));
        assert_eq!(t.start_time(KernelId::new(2)), Nanos::from_micros(30));
        assert_eq!(t.end_time(KernelId::new(2)), Nanos::from_micros(60));
        assert_eq!(t.total_duration(), Nanos::from_micros(60));
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let g = toy_graph();
        let t = KernelTrace::profile(&g, &GpuCostModel::a100());
        let a = t.with_noise(0.2, 42);
        let b = t.with_noise(0.2, 42);
        assert_eq!(a, b);
        for (orig, noisy) in t.durations().iter().zip(a.durations()) {
            let lo = orig.scale(0.799);
            let hi = orig.scale(1.201);
            assert!(*noisy >= lo && *noisy <= hi);
        }
        // Zero noise is the identity.
        assert_eq!(t.with_noise(0.0, 7).durations(), t.durations());
    }
}
