//! The seeded single-cell stream behind the `cells-uvm` workload, and the
//! G10 stream (`perfbench cells --mix g10`) kept as a diagnostic: its host
//! times drift too much between runs to be a benchmark workload (see
//! `NOTES.md`).
//!
//! One pass of a stream is a seeded permutation of every (paper model,
//! `batch_sweep` batch, policy) combination, `per_combo` times over.  Each
//! cell draws its own GPU capacity and host-memory size, so no two cells
//! share a (model, batch, policy, config) key.  The GPU capacity puts the
//! model's footprint at a log-uniform multiple of it over Figure 11's
//! 372–2876 % range; the draws are stratified, so every seed sees the same
//! spread of pressure and seeds differ in the exact draws and their order.

use g10_bench::experiments::HOST_SWEEP_GIB;
use g10_core::config::SystemConfig;
use g10_dnn::cost::GpuCostModel;
use g10_dnn::models::{build_model, ModelKind};
use g10_dnn::trace::KernelTrace;
use g10_sim::{PolicyKind, Workload};
use std::collections::{HashMap, HashSet};

/// Footprint-to-GPU ratios of Figure 11's five models (BERT at 371.9 %,
/// SENet154 at 2876.0 %).
pub const FOOTPRINT_RATIO_RANGE: (f64, f64) = (3.72, 28.76);

const MIB: u64 = 1 << 20;

/// Which designs a cells workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// G10-GDS, G10-Host and G10: planning dominates each cell.  A
    /// diagnostic stream, not a benchmark workload.
    G10,
    /// Ideal, Base UVM, DeepUM+ and FlashNeuron: no G10 planning runs.
    Uvm,
}

impl Mix {
    /// Parses the `--mix` argument.
    pub fn parse(name: &str) -> Option<Mix> {
        match name {
            "g10" => Some(Mix::G10),
            "uvm" => Some(Mix::Uvm),
            _ => None,
        }
    }

    /// The designs of this mix.
    pub fn policies(self) -> &'static [PolicyKind] {
        match self {
            Mix::G10 => &[PolicyKind::G10Gds, PolicyKind::G10Host, PolicyKind::G10Full],
            Mix::Uvm => &[
                PolicyKind::Ideal,
                PolicyKind::BaseUvm,
                PolicyKind::DeepUmPlus,
                PolicyKind::FlashNeuron,
            ],
        }
    }

    /// Cells per (model, batch, policy) combination in one pass.  A UVM
    /// cell costs about a tenth of a G10 cell, so its passes hold more.
    pub fn per_combo(self) -> usize {
        match self {
            Mix::G10 => 2,
            Mix::Uvm => 4,
        }
    }
}

/// Whether the policy is one of the G10 designs (it plans migrations).
pub fn is_g10(policy: PolicyKind) -> bool {
    matches!(
        policy,
        PolicyKind::G10Gds | PolicyKind::G10Host | PolicyKind::G10Full
    )
}

/// One single-cell request: a model at a batch under one design on one
/// hardware configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub model: ModelKind,
    pub batch: u64,
    pub policy: PolicyKind,
    pub config: SystemConfig,
}

impl Cell {
    /// The identity of the cell: what a run cache would key it by.
    pub fn key(&self) -> (ModelKind, u64, PolicyKind, [u64; 12]) {
        (self.model, self.batch, self.policy, self.config.cache_key())
    }
}

/// The paper-calibrated cost model [`Workload::new`] profiles with.
pub fn cost_model(model: ModelKind) -> GpuCostModel {
    GpuCostModel::a100().slowed(model.calibration_factor())
}

/// Every (model, batch) a cells pass can draw, in a fixed order.
pub fn workload_keys() -> Vec<(ModelKind, u64)> {
    ModelKind::PAPER_MODELS
        .iter()
        .flat_map(|&model| model.batch_sweep().into_iter().map(move |b| (model, b)))
        .collect()
}

/// The workloads a cells pass replays, keyed by (model, batch).
pub type Workloads = HashMap<(ModelKind, u64), Workload>;

/// Builds every workload the stream draws from, as [`Workload::new`] does
/// (graph build, then profiling with the calibrated cost model).
pub fn build_workloads() -> Workloads {
    workload_keys()
        .into_iter()
        .map(|(model, batch)| {
            let graph = build_model(model, batch);
            let trace = KernelTrace::profile(&graph, &cost_model(model));
            let workload = Workload {
                model,
                batch,
                graph,
                trace,
            };
            ((model, batch), workload)
        })
        .collect()
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same stream on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The GPU capacity of one cell: the footprint divided by `ratio`, kept
/// below the model's peak live bytes (so the plan has to evict) and at
/// least twice its largest kernel working set (so every design can run
/// the cell).
fn gpu_capacity(workload: &Workload, ratio: f64) -> u64 {
    let index = workload.graph.index();
    let by_ratio = (index.total_tensor_bytes() as f64 / ratio) as u64;
    let ceiling = index.peak_live_bytes() / 5 * 4;
    let floor = index.max_kernel_working_set_bytes() * 2;
    by_ratio.min(ceiling).max(floor) / MIB * MIB
}

/// One pass of the `mix` workload for `seed`, in request order.
pub fn generate(mix: Mix, seed: u64, workloads: &Workloads) -> Vec<Cell> {
    let mut rng = SplitMix64::new(seed ^ (mix as u64 * 0x5DEE_CE66));
    let mut combos = Vec::new();
    for (model, batch) in workload_keys() {
        for &policy in mix.policies() {
            combos.extend(std::iter::repeat_n((model, batch, policy), mix.per_combo()));
        }
    }
    // Stratified draws: each combination's repeats split the ratio range
    // into equal log-spaced strata, one draw per stratum, so every seed
    // puts every combination under both light and heavy pressure; host
    // sizes cycle through the sweep and are shuffled across the cells.
    let (lo, hi) = FOOTPRINT_RATIO_RANGE;
    let reps = mix.per_combo();
    let ratios: Vec<f64> = (0..combos.len())
        .map(|i| {
            let stratum = (i % reps) as f64 + rng.next_f64();
            (lo.ln() + stratum / reps as f64 * (hi / lo).ln()).exp()
        })
        .collect();
    let mut hosts: Vec<u64> = (0..combos.len())
        .map(|i| HOST_SWEEP_GIB[i % HOST_SWEEP_GIB.len()])
        .collect();
    rng.shuffle(&mut hosts);

    let mut seen = HashSet::new();
    let mut cells: Vec<Cell> = combos
        .into_iter()
        .zip(ratios.into_iter().zip(hosts))
        .map(|((model, batch, policy), (ratio, host_gib))| {
            let mut gpu = gpu_capacity(&workloads[&(model, batch)], ratio);
            loop {
                let cell = Cell {
                    model,
                    batch,
                    policy,
                    config: SystemConfig::table2()
                        .with_gpu_memory(gpu)
                        .with_host_memory(host_gib << 30),
                };
                if seen.insert(cell.key()) {
                    return cell;
                }
                // Two draws landed on the same clamped capacity.
                gpu -= MIB;
            }
        })
        .collect();
    rng.shuffle(&mut cells);
    cells
}
