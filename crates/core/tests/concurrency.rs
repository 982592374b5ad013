//! Concurrency regression test for the hand-threaded serving layer:
//! `MetricsSnapshot::merge` under a scraper racing `ingest_batch` and
//! `query_batch` from several threads sharing one engine, at one and at
//! four shards. The merged snapshot must never report more cache
//! lookups (hits + misses) than sub-queries submitted, and successive
//! merged snapshots must be monotone.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use common::{config, objects};
use geostream::{KeywordId, RcDvq};
use latest_core::{QueryOptions, ShardedLatest};

/// A scraper thread calling `metrics_snapshot` (which merges per-shard
/// snapshots with `MetricsSnapshot::merge`) races `ingest_batch` and
/// cached `query_batch` traffic from one or several querier threads
/// sharing the engine. Each sub-query increments exactly one of
/// cache_hits/cache_misses after its submission was counted, so no merged
/// snapshot may ever report hits + misses above the submitted count — a
/// torn or double-counted merge would.
#[test]
fn merged_snapshot_is_consistent_under_scrape_during_ingest() {
    for shards in [1, 4] {
        for queriers in [1, 4] {
            scrape_during_ingest(shards, queriers);
        }
    }
}

fn scrape_during_ingest(shards: usize, queriers: usize) {
    let engine = Arc::new(ShardedLatest::new(config(shards)).expect("engine spawns"));
    engine.ingest_batch(&objects(0, 256)).expect("seed ingest");

    // Keyword queries have no spatial locality: each fans out to every
    // shard, so one submitted query is exactly `shards` cache lookups.
    let submitted = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let ingester = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut at = 256u64;
            while !stop.load(Ordering::SeqCst) {
                engine.ingest_batch(&objects(at, 16)).expect("ingest");
                at += 16;
            }
            at
        })
    };
    let querier_threads: Vec<_> = (0..queriers)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let submitted = Arc::clone(&submitted);
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    // Each batch repeats its signatures: the first
                    // occurrence misses and populates the cache, the
                    // duplicate hits it within the same window generation
                    // — guaranteed hits even while ingest keeps
                    // invalidating across batches.
                    let batch: Vec<RcDvq> = (0..4)
                        .map(|i| RcDvq::keyword(vec![KeywordId((rounds as u32 + i / 2) % 6)]))
                        .collect();
                    // Counted BEFORE the submit so every hit/miss
                    // increment a snapshot can observe is covered by the
                    // count we read after it.
                    submitted.fetch_add(batch.len() as u64 * shards as u64, Ordering::SeqCst);
                    engine
                        .query_batch(&batch, QueryOptions::new())
                        .expect("query");
                    rounds += 1;
                }
                rounds
            })
        })
        .collect();

    let mut prev_lookups = 0u64;
    let mut prev_queries = 0u64;
    for _ in 0..40 {
        let snap = engine.metrics_snapshot().expect("snapshot");
        let lookups = snap.cache_hits + snap.cache_misses;
        let ceiling = submitted.load(Ordering::SeqCst);
        assert!(
            lookups <= ceiling,
            "merged snapshot invented cache traffic: hits {} + misses {} > {} submitted",
            snap.cache_hits,
            snap.cache_misses,
            ceiling
        );
        // Per-shard snapshots are FIFO-ordered, so merged counters are
        // monotone even though each scrape observes the shards at
        // slightly different instants.
        assert!(
            lookups >= prev_lookups,
            "merged cache counters went backwards: {lookups} < {prev_lookups}"
        );
        assert!(
            snap.queries_total >= prev_queries,
            "merged queries_total went backwards: {} < {prev_queries}",
            snap.queries_total
        );
        prev_lookups = lookups;
        prev_queries = snap.queries_total;
        std::thread::sleep(StdDuration::from_millis(2));
    }

    stop.store(true, Ordering::SeqCst);
    let ingested_to = ingester.join().expect("ingester");
    for querier in querier_threads {
        let rounds = querier.join().expect("querier");
        assert!(ingested_to > 256 && rounds > 0, "threads did no work");
    }

    // Quiescent: the final snapshot accounts for every lookup exactly.
    engine.flush().expect("flush");
    let snap = engine.metrics_snapshot().expect("snapshot");
    assert_eq!(
        snap.cache_hits + snap.cache_misses,
        submitted.load(Ordering::SeqCst),
        "quiescent lookup count does not match submissions"
    );
    assert!(snap.cache_hits > 0, "workload produced no cache hits");
}
