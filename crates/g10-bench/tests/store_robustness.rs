//! Corruption and concurrency robustness of the persistent run store.
//!
//! The store's contract is "never serve a wrong report": any damaged,
//! truncated, misversioned, or misfiled entry must load as `None` (the
//! caller then replays), and concurrent writers must never expose a
//! partial entry to readers.

use g10_bench::store::{checksum, decode_entry, encode_entry, RunKey, RunStore, SCHEMA_VERSION};
use g10_dnn::Nanos;
use g10_sim::{FaultRecord, PolicyFaultKind, SimReport, TrafficStats};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("g10_store_robustness_{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sample_key() -> RunKey {
    RunKey {
        model: "TinyCNN".to_string(),
        batch: 16,
        policy: "Base UVM".to_string(),
        config: [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
    }
}

/// A report exercising every serialised field with distinct values,
/// including float bit patterns that would drift under text formatting.
fn sample_report() -> SimReport {
    SimReport {
        model: "TinyCNN".to_string(),
        batch: 16,
        policy: "Base UVM".to_string(),
        total_time: Nanos::from_nanos(123_456_789),
        ideal_time: Nanos::from_nanos(100_000_000),
        stall_time: Nanos::from_nanos(23_456_789),
        kernel_slowdowns: vec![1.0, 1.25, f64::from_bits(0x3FF5_5555_5555_5555)],
        traffic: TrafficStats {
            gpu_to_ssd_bytes: 11,
            ssd_to_gpu_bytes: 22,
            gpu_to_host_bytes: 33,
            host_to_gpu_bytes: 44,
        },
        fault_count: 5,
        prefetches_issued: 6,
        prefetches_dropped: 7,
        evictions_issued: 8,
        oversubscribed: true,
        working_set_exceeds_gpu: false,
        // A fallback-degradation record, so every corruption sweep below
        // also covers the fault encoding.
        policy_fault: Some(FaultRecord {
            policy: "hostile-policy".to_string(),
            step: 3,
            kind: PolicyFaultKind::CapacityExceeded {
                used_bytes: 777,
                allowed_bytes: 555,
            },
        }),
    }
}

/// Every fault kind round-trips through the entry encoding bit-exactly.
#[test]
fn every_fault_kind_roundtrips() {
    let key = sample_key();
    let kinds = [
        PolicyFaultKind::BuildPanic {
            message: "boom".to_string(),
        },
        PolicyFaultKind::StepPanic {
            message: "mid-run boom".to_string(),
        },
        PolicyFaultKind::TensorOutOfRange {
            tensor: 99,
            universe: 12,
        },
        PolicyFaultKind::EvictNonResident { tensor: 4 },
        PolicyFaultKind::PrefetchResident { tensor: 5 },
        PolicyFaultKind::CapacityExceeded {
            used_bytes: 10,
            allowed_bytes: 9,
        },
        PolicyFaultKind::LedgerCorrupt {
            ledger_bytes: 1,
            prefix_bytes: 2,
        },
        PolicyFaultKind::TimeRegression {
            from: Nanos::from_nanos(7),
            to: Nanos::from_nanos(3),
        },
        PolicyFaultKind::NonFiniteSlowdown { kernel: 6 },
        PolicyFaultKind::ResidencyDesync {
            tracked_bytes: 8,
            allocated_bytes: 9,
        },
    ];
    for kind in kinds {
        let mut report = sample_report();
        report.policy_fault = Some(FaultRecord {
            policy: "adversary".to_string(),
            step: 41,
            kind,
        });
        let bytes = encode_entry(&key, &report);
        let loaded = decode_entry(&bytes, &key).expect("fault entry must decode");
        assert_eq!(loaded, report);
    }
    // And the clean-run case.
    let mut report = sample_report();
    report.policy_fault = None;
    let bytes = encode_entry(&key, &report);
    assert_eq!(decode_entry(&bytes, &key), Some(report));
}

#[test]
fn roundtrip_preserves_every_field() {
    let store = RunStore::open(fresh_dir("roundtrip")).unwrap();
    let key = sample_key();
    let report = sample_report();
    assert!(store.load(&key).is_none(), "empty store must miss");
    store.save(&key, &report).unwrap();
    assert_eq!(store.entry_count(), 1);
    let loaded = store.load(&key).expect("saved entry must load");
    assert_eq!(loaded, report);
    // Bit-exact floats, not just approximately-equal ones.
    for (a, b) in loaded
        .kernel_slowdowns
        .iter()
        .zip(report.kernel_slowdowns.iter())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn truncated_entries_miss_cleanly() {
    let store = RunStore::open(fresh_dir("truncated")).unwrap();
    let key = sample_key();
    let report = sample_report();
    store.save(&key, &report).unwrap();
    let path = store.entry_path(&key);
    let full = fs::read(&path).unwrap();
    // Every possible truncation point, including an empty file.
    for cut in 0..full.len() {
        fs::write(&path, &full[..cut]).unwrap();
        assert!(
            store.load(&key).is_none(),
            "truncation at byte {cut} must not load"
        );
    }
}

#[test]
fn garbage_bytes_miss_cleanly() {
    let store = RunStore::open(fresh_dir("garbage")).unwrap();
    let key = sample_key();
    let report = sample_report();
    store.save(&key, &report).unwrap();
    let path = store.entry_path(&key);
    let full = fs::read(&path).unwrap();
    // Flip one byte at a time: the trailing checksum must catch each one.
    for pos in 0..full.len() {
        let mut damaged = full.clone();
        damaged[pos] ^= 0x5A;
        fs::write(&path, &damaged).unwrap();
        assert!(
            store.load(&key).is_none(),
            "corrupt byte at {pos} must not load"
        );
    }
    // Outright noise instead of an entry.
    fs::write(&path, b"not a store entry at all").unwrap();
    assert!(store.load(&key).is_none());
}

#[test]
fn wrong_schema_version_misses_even_with_valid_checksum() {
    let store = RunStore::open(fresh_dir("version")).unwrap();
    let key = sample_key();
    let report = sample_report();
    store.save(&key, &report).unwrap();
    let path = store.entry_path(&key);
    let full = fs::read(&path).unwrap();
    // Rewrite the version word (bytes 8..12, after the 8-byte magic) and
    // recompute the trailing checksum so only the version check can fail.
    let mut forged = full.clone();
    forged[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
    let body_len = forged.len() - 8;
    let sum = checksum(&forged[..body_len]);
    forged[body_len..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&path, &forged).unwrap();
    assert!(
        store.load(&key).is_none(),
        "future-version entries must miss, not be misread"
    );
}

#[test]
fn key_echo_rejects_misfiled_entries() {
    let key = sample_key();
    let report = sample_report();
    let bytes = encode_entry(&key, &report);
    assert!(decode_entry(&bytes, &key).is_some());
    // The same bytes presented for any other cell must be rejected,
    // whichever key component differs.
    let mut other_model = key.clone();
    other_model.model = "BERT-Base".to_string();
    assert!(decode_entry(&bytes, &other_model).is_none());
    let mut other_batch = key.clone();
    other_batch.batch = 32;
    assert!(decode_entry(&bytes, &other_batch).is_none());
    let mut other_policy = key.clone();
    other_policy.policy = "G10".to_string();
    assert!(decode_entry(&bytes, &other_policy).is_none());
    let mut other_config = key.clone();
    other_config.config[11] ^= 1;
    assert!(decode_entry(&bytes, &other_config).is_none());
}

#[test]
fn concurrent_writers_and_readers_never_observe_partial_entries() {
    let store = Arc::new(RunStore::open(fresh_dir("concurrent")).unwrap());
    let key = sample_key();
    let report = sample_report();
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&store);
            let key = key.clone();
            let report = report.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    store.save(&key, &report).unwrap();
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&store);
            let key = key.clone();
            let report = report.clone();
            std::thread::spawn(move || {
                let mut hits = 0u32;
                for _ in 0..200 {
                    // Either a miss (not yet written) or the full report —
                    // never a torn or partial entry.
                    if let Some(loaded) = store.load(&key) {
                        assert_eq!(loaded, report);
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    for r in readers {
        r.join().unwrap();
    }
    // After the dust settles: exactly one entry, loadable, no leaked temps.
    assert_eq!(store.entry_count(), 1);
    assert_eq!(store.load(&key).unwrap(), report);
    let leftovers: Vec<_> = fs::read_dir(store.root())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|ext| ext == "tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files must not outlive saves");
}

/// Garbage collection racing live readers and writers: a reader mid-`load`
/// never observes a torn entry — every lookup returns either the exact
/// saved report or a clean miss — and gc itself never errors when entries
/// vanish or reappear underneath it.  (Entries are whole files renamed
/// into place, so an unlink can only hide an entry, never corrupt it.)
#[test]
fn gc_under_concurrent_readers_never_serves_a_torn_entry() {
    let dir = fresh_dir("gc_concurrent");
    let store = Arc::new(RunStore::open(&dir).unwrap());
    let key = sample_key();
    let report = sample_report();
    store.save(&key, &report).unwrap();

    // `loads` counts the reader's completed `load` attempts.  Round `r`
    // starts only after attempt `r + 1` completed, so the reader's loads
    // interleave with the rounds by construction and its first attempt
    // (made before any gc) finds the entry.
    let stop = Arc::new(AtomicBool::new(false));
    let loads = Arc::new(AtomicUsize::new(0));
    let reader = {
        let store = Arc::clone(&store);
        let key = key.clone();
        let report = report.clone();
        let stop = Arc::clone(&stop);
        let loads = Arc::clone(&loads);
        std::thread::spawn(move || {
            let mut hits = 0u32;
            while !stop.load(Ordering::Relaxed) {
                // A `None` means gc won the race; a miss is the contract.
                if let Some(loaded) = store.load(&key) {
                    assert_eq!(loaded, report, "reader must never see a torn entry");
                    hits += 1;
                }
                loads.fetch_add(1, Ordering::SeqCst);
            }
            hits
        })
    };

    // Alternate gc-to-zero (removes the entry) with re-saves while the
    // reader hammers load().
    let mut removed_total = 0usize;
    for round in 0..200 {
        // A finished reader has panicked; `join` below reports why.
        while loads.load(Ordering::SeqCst) <= round && !reader.is_finished() {
            std::thread::yield_now();
        }
        let outcome = store.gc(0).unwrap();
        removed_total += outcome.removed;
        store.save(&key, &report).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let hits = reader.join().unwrap();
    assert!(removed_total > 0, "gc must actually have pruned entries");
    assert!(hits > 0, "reader must have observed live entries");

    // Final state: the last save survives and gc under a generous cap
    // keeps it.
    let outcome = store.gc(u64::MAX).unwrap();
    assert_eq!(outcome.kept, 1);
    assert_eq!(outcome.removed, 0);
    assert_eq!(store.load(&key).unwrap(), report);
    let _ = fs::remove_dir_all(&dir);
}

/// Size-capped gc keeps the newest entries and prints an honest tally.
#[test]
fn gc_prunes_oldest_entries_first_under_a_byte_cap() {
    let dir = fresh_dir("gc_oldest_first");
    let store = RunStore::open(&dir).unwrap();
    let report = sample_report();
    let mut keys = Vec::new();
    for i in 0..4 {
        let mut key = sample_key();
        key.batch = 100 + i;
        store.save(&key, &report).unwrap();
        keys.push(key);
    }
    // Saves may land within one mtime granule; gc breaks mtime ties by
    // filename, so the *counts* below are deterministic regardless.
    let entry_size = fs::metadata(store.entry_path(&keys[0])).unwrap().len();
    let outcome = store.gc(entry_size * 2).unwrap();
    assert_eq!(outcome.kept, 2, "cap of two entry-sizes keeps two entries");
    assert_eq!(outcome.removed, 2);
    assert_eq!(outcome.kept_bytes, entry_size * 2);
    assert_eq!(outcome.removed_bytes, entry_size * 2);
    assert_eq!(store.entry_count(), 2);
    let summary = outcome.summary();
    assert!(
        summary.contains("removed 2 entries") && summary.contains("kept 2 entries"),
        "tally must be honest: {summary}"
    );
    // gc to zero empties the store.
    let outcome = store.gc(0).unwrap();
    assert_eq!(outcome.kept, 0);
    assert_eq!(store.entry_count(), 0);
    let _ = fs::remove_dir_all(&dir);
}
