//! Migration plans: the per-kernel `g10_*` instruction streams produced by
//! the scheduler and executed by the runtime (or the replay simulator).

use crate::config::Destination;
use g10_dnn::graph::KernelId;
use g10_dnn::tensor::TensorId;
use g10_dnn::Nanos;

/// One instruction inserted into the instrumented GPU program (§4.4, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// `g10_alloc(tensor, size)`: allocate GPU space for a tensor that is
    /// about to be born.
    Alloc {
        /// Tensor being allocated.
        tensor: TensorId,
        /// Size in bytes.
        bytes: u64,
    },
    /// `g10_free(tensor)`: release a dead intermediate tensor.
    Free {
        /// Tensor being freed.
        tensor: TensorId,
    },
    /// `g10_pre_evict(tensor, size, target)`: start migrating a tensor out of
    /// GPU memory.
    PreEvict {
        /// Tensor being evicted.
        tensor: TensorId,
        /// Size in bytes.
        bytes: u64,
        /// Destination memory.
        destination: Destination,
    },
    /// `g10_prefetch(tensor, size)`: start migrating a tensor back into GPU
    /// memory.
    Prefetch {
        /// Tensor being prefetched.
        tensor: TensorId,
        /// Size in bytes.
        bytes: u64,
        /// Where the tensor currently lives.
        source: Destination,
    },
}

impl Instruction {
    /// The tensor the instruction operates on.
    pub fn tensor(&self) -> TensorId {
        match *self {
            Instruction::Alloc { tensor, .. }
            | Instruction::Free { tensor }
            | Instruction::PreEvict { tensor, .. }
            | Instruction::Prefetch { tensor, .. } => tensor,
        }
    }
}

/// The instructions attached to one kernel: `before` runs just before the
/// kernel is launched, `after` runs right after it completes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelInstructions {
    /// Instructions issued before the kernel launches.
    pub before: Vec<Instruction>,
    /// Instructions issued after the kernel completes.
    pub after: Vec<Instruction>,
}

/// A tensor that starts the iteration outside GPU memory (steady-state
/// consequence of a wrap-around eviction in the previous iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitialPlacement {
    /// The tensor.
    pub tensor: TensorId,
    /// Where it lives at the start of the iteration.
    pub location: Destination,
}

/// A complete migration plan for one training iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationPlan {
    kernels: Vec<KernelInstructions>,
    initial_placements: Vec<InitialPlacement>,
    planned_peak_pressure: u64,
    planned_ssd_evict_bytes: u64,
    planned_host_evict_bytes: u64,
    planned_ideal_time: Nanos,
}

impl MigrationPlan {
    /// Creates an empty plan covering `num_kernels` kernels.
    pub fn new(num_kernels: usize) -> Self {
        MigrationPlan {
            kernels: vec![KernelInstructions::default(); num_kernels],
            ..MigrationPlan::default()
        }
    }

    /// Number of kernels covered.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Returns `true` if the plan covers no kernels.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Instructions attached to one kernel.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn at(&self, kernel: KernelId) -> &KernelInstructions {
        &self.kernels[kernel.index()]
    }

    /// Instructions issued before the given kernel launches, as a borrowed
    /// slice (so runtime executors do not clone the instruction `Vec` per
    /// kernel).
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn before(&self, kernel: KernelId) -> &[Instruction] {
        &self.kernels[kernel.index()].before
    }

    /// Instructions issued after the given kernel completes, as a borrowed
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id is out of range.
    pub fn after(&self, kernel: KernelId) -> &[Instruction] {
        &self.kernels[kernel.index()].after
    }

    /// Adds an instruction before the given kernel.
    pub fn push_before(&mut self, kernel: KernelId, instruction: Instruction) {
        self.kernels[kernel.index()].before.push(instruction);
        self.account(&instruction);
    }

    /// Adds an instruction after the given kernel.
    pub fn push_after(&mut self, kernel: KernelId, instruction: Instruction) {
        self.kernels[kernel.index()].after.push(instruction);
        self.account(&instruction);
    }

    fn account(&mut self, instruction: &Instruction) {
        if let Instruction::PreEvict {
            bytes, destination, ..
        } = instruction
        {
            match destination {
                Destination::Ssd => self.planned_ssd_evict_bytes += bytes,
                Destination::Host => self.planned_host_evict_bytes += bytes,
            }
        }
    }

    /// Declares that a tensor starts the iteration outside GPU memory.
    pub fn add_initial_placement(&mut self, tensor: TensorId, location: Destination) {
        self.initial_placements
            .push(InitialPlacement { tensor, location });
    }

    /// Tensors that start the iteration outside GPU memory.
    pub fn initial_placements(&self) -> &[InitialPlacement] {
        &self.initial_placements
    }

    /// Records the planner's post-eviction peak pressure estimate.
    pub fn set_planned_peak_pressure(&mut self, bytes: u64) {
        self.planned_peak_pressure = bytes;
    }

    /// The planner's post-eviction peak pressure estimate.
    pub fn planned_peak_pressure(&self) -> u64 {
        self.planned_peak_pressure
    }

    /// Records the ideal (stall-free) iteration time the plan was built for.
    pub fn set_planned_ideal_time(&mut self, time: Nanos) {
        self.planned_ideal_time = time;
    }

    /// The ideal iteration time the plan was built for.
    pub fn planned_ideal_time(&self) -> Nanos {
        self.planned_ideal_time
    }

    /// Total number of pre-eviction instructions.
    pub fn eviction_count(&self) -> usize {
        self.instructions()
            .filter(|i| matches!(i, Instruction::PreEvict { .. }))
            .count()
    }

    /// Total number of prefetch instructions.
    pub fn prefetch_count(&self) -> usize {
        self.instructions()
            .filter(|i| matches!(i, Instruction::Prefetch { .. }))
            .count()
    }

    /// Bytes planned to be evicted to the SSD.
    pub fn planned_ssd_evict_bytes(&self) -> u64 {
        self.planned_ssd_evict_bytes
    }

    /// Bytes planned to be evicted to host memory.
    pub fn planned_host_evict_bytes(&self) -> u64 {
        self.planned_host_evict_bytes
    }

    /// Iterator over every instruction in kernel order (before-instructions
    /// first, then after-instructions, per kernel).
    pub fn instructions(&self) -> impl Iterator<Item = &Instruction> + '_ {
        self.kernels
            .iter()
            .flat_map(|k| k.before.iter().chain(k.after.iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_accounting_tracks_instruction_kinds() {
        let mut plan = MigrationPlan::new(4);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        plan.push_after(
            KernelId::new(0),
            Instruction::PreEvict {
                tensor: TensorId::new(1),
                bytes: 100,
                destination: Destination::Ssd,
            },
        );
        plan.push_before(
            KernelId::new(2),
            Instruction::Prefetch {
                tensor: TensorId::new(1),
                bytes: 100,
                source: Destination::Ssd,
            },
        );
        plan.push_after(
            KernelId::new(3),
            Instruction::PreEvict {
                tensor: TensorId::new(2),
                bytes: 50,
                destination: Destination::Host,
            },
        );
        assert_eq!(plan.eviction_count(), 2);
        assert_eq!(plan.prefetch_count(), 1);
        assert_eq!(plan.planned_ssd_evict_bytes(), 100);
        assert_eq!(plan.planned_host_evict_bytes(), 50);
        assert_eq!(plan.at(KernelId::new(0)).after.len(), 1);
        assert_eq!(plan.at(KernelId::new(2)).before.len(), 1);
        assert_eq!(plan.instructions().count(), 3);
    }

    #[test]
    fn initial_placements_and_metadata_round_trip() {
        let mut plan = MigrationPlan::new(1);
        plan.add_initial_placement(TensorId::new(7), Destination::Ssd);
        plan.set_planned_peak_pressure(123);
        plan.set_planned_ideal_time(Nanos::from_micros(10));
        assert_eq!(plan.initial_placements().len(), 1);
        assert_eq!(plan.planned_peak_pressure(), 123);
        assert_eq!(plan.planned_ideal_time(), Nanos::from_micros(10));
    }

    #[test]
    fn instruction_tensor_accessor_covers_all_variants() {
        let t = TensorId::new(9);
        for i in [
            Instruction::Alloc {
                tensor: t,
                bytes: 1,
            },
            Instruction::Free { tensor: t },
            Instruction::PreEvict {
                tensor: t,
                bytes: 1,
                destination: Destination::Ssd,
            },
            Instruction::Prefetch {
                tensor: t,
                bytes: 1,
                source: Destination::Host,
            },
        ] {
            assert_eq!(i.tensor(), t);
        }
    }
}
