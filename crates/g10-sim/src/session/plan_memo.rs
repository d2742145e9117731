//! The process-wide eviction-selection memo behind
//! [`PolicyContext::plan`](super::PolicyContext::plan); its key and its
//! memory bound are documented on [`G10Provider`](super::G10Provider).

use g10_core::eviction::{select_evictions, selection_key, SelectionKey};
use g10_core::plan::MigrationPlan;
use g10_core::scheduler::G10Scheduler;
use g10_core::vitality::{PeriodId, VitalityAnalysis};
use g10_dnn::graph::DnnGraph;
use g10_dnn::trace::KernelTrace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-key once-init slot: the map lock is held only to hand out the slot,
/// so two workers planning the same selection compute it once while
/// different selections compute concurrently.
type Slot = Arc<OnceLock<Arc<[PeriodId]>>>;

/// Entries kept before the memo starts over.  An entry is a few KB, so this
/// bounds a long-running daemon fed ever-new configurations to a few tens of
/// MB; the whole figure grid needs fewer than a hundred.
const MAX_ENTRIES: usize = 4096;

static COMPUTED: AtomicU64 = AtomicU64::new(0);
static REUSED: AtomicU64 = AtomicU64::new(0);

fn memo() -> &'static Mutex<HashMap<SelectionKey, Slot>> {
    static MEMO: OnceLock<Mutex<HashMap<SelectionKey, Slot>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

fn slot(key: SelectionKey) -> Slot {
    let mut map = memo().lock().expect("selection memo poisoned");
    if map.len() >= MAX_ENTRIES && !map.contains_key(&key) {
        map.clear();
    }
    map.entry(key).or_default().clone()
}

/// Plans like [`G10Scheduler::plan`], reusing a memoised eviction selection
/// when one with the same [`SelectionKey`] exists.  The plan is identical
/// either way.
pub(crate) fn plan(
    scheduler: &G10Scheduler,
    graph: &DnnGraph,
    trace: &KernelTrace,
) -> MigrationPlan {
    let analysis = VitalityAnalysis::analyze(graph, trace);
    let slot = slot(selection_key(&analysis, trace, scheduler.config()));
    let mut computed = false;
    let selection = slot.get_or_init(|| {
        computed = true;
        select_evictions(&analysis, trace, scheduler.config()).into()
    });
    let counter = if computed { &COMPUTED } else { &REUSED };
    counter.fetch_add(1, Ordering::Relaxed);
    scheduler.plan_with_selection(graph, trace, &analysis, selection)
}

/// Cumulative eviction-selection memo counters — see
/// [`plan_selection_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanSelectionStats {
    /// Selections computed by the lazy-greedy search.
    pub computed: u64,
    /// Plans that reused a memoised selection.
    pub reused: u64,
}

impl PlanSelectionStats {
    /// Total memoised plans.
    pub fn total(&self) -> u64 {
        self.computed + self.reused
    }

    /// Counter-wise difference vs an earlier snapshot of the stats.
    pub fn since(&self, earlier: &PlanSelectionStats) -> PlanSelectionStats {
        PlanSelectionStats {
            computed: self.computed - earlier.computed,
            reused: self.reused - earlier.reused,
        }
    }

    /// The one-line summary the `experiments` binary prints.
    pub fn summary(&self) -> String {
        format!(
            "plan selections: {} computed, {} reused",
            self.computed, self.reused
        )
    }
}

/// How many G10 plans made through [`PolicyContext::plan`](super::PolicyContext::plan)
/// in this process computed their eviction selection, and how many reused one.
pub fn plan_selection_stats() -> PlanSelectionStats {
    PlanSelectionStats {
        computed: COMPUTED.load(Ordering::Relaxed),
        reused: REUSED.load(Ordering::Relaxed),
    }
}
