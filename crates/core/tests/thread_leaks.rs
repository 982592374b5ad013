//! Thread-leak detection: every component that spawns workers
//! (`ShardedLatest`, `PrefillBuilder`) must join them on its drop path, and `Latest` must never spawn one at
//! all. Checked by counting `/proc/self/task` entries around each
//! component's lifetime (the `thread.*` join claims in `conc.toml`,
//! tested for real).
//!
//! The test has this binary to itself: a sibling test's harness thread
//! exiting mid-check would change the count it compares against.

mod common;

use std::time::Duration as StdDuration;

use common::{config, objects};
use estimators::{EstimatorConfig, EstimatorKind};
use geostream::synth::DatasetSpec;
use geostream::{KeywordId, RcDvq};
use latest_core::{Latest, PrefillBuilder, QueryOptions, ShardedLatest};

/// Live thread count of this process, via `/proc/self/task`. Returns
/// `None` where procfs is unavailable (the leak checks become no-ops).
fn live_threads() -> Option<usize> {
    let dir = std::fs::read_dir("/proc/self/task").ok()?;
    Some(dir.count())
}

/// Asserts the process is back to at most `baseline` threads. Exiting
/// tasks can linger in procfs for a moment after `join` returns, so this
/// polls briefly before declaring a leak.
fn assert_no_thread_leak(what: &str, baseline: usize) {
    let mut last = None;
    for _ in 0..200 {
        match live_threads() {
            None => return, // no procfs — nothing to measure
            Some(n) if n <= baseline => return,
            Some(n) => last = Some(n),
        }
        std::thread::sleep(StdDuration::from_millis(5));
    }
    panic!("{what}: worker thread outlived its owner: {last:?} live threads, baseline {baseline}");
}

#[test]
fn drops_join_every_worker_thread() {
    if live_threads().is_none() {
        return; // no procfs on this platform; covered on Linux CI
    }
    let probe = |i: u32| RcDvq::keyword(vec![KeywordId(i % 16)]);

    // Latest: single-threaded by contract — constructing, ingesting, and
    // querying must not spawn anything.
    let baseline = live_threads().unwrap();
    {
        let mut latest = Latest::new(config(1));
        latest.ingest_batch(&objects(0, 256));
        for i in 0..8 {
            let _ = latest.query(&probe(i), QueryOptions::new());
        }
        assert_eq!(live_threads().unwrap(), baseline, "Latest spawned a thread");
    }
    assert_no_thread_leak("Latest", baseline);

    // ShardedLatest: explicit shutdown() joins the shard workers...
    let baseline = live_threads().unwrap();
    {
        let engine = ShardedLatest::new(config(4)).expect("engine spawns");
        assert_eq!(
            live_threads().unwrap(),
            baseline + 4,
            "one worker per shard"
        );
        engine.ingest_batch(&objects(0, 512)).expect("ingest");
        engine
            .query_batch(&[probe(1), probe(2)], QueryOptions::new())
            .expect("query");
        engine.shutdown();
        assert_no_thread_leak("ShardedLatest::shutdown", baseline);
    }
    // ...and a plain drop must join them too.
    {
        let engine = ShardedLatest::new(config(4)).expect("engine spawns");
        engine.ingest_batch(&objects(0, 128)).expect("ingest");
        drop(engine);
    }
    assert_no_thread_leak("ShardedLatest drop", baseline);

    // PrefillBuilder: Drop closes the job queue and joins the lazily
    // spawned builder thread — even with a build still in flight.
    let baseline = live_threads().unwrap();
    {
        let cfg = EstimatorConfig {
            domain: DatasetSpec::twitter().domain,
            reservoir_capacity: 500,
            ..EstimatorConfig::default()
        };
        let mut builder = PrefillBuilder::new();
        let ticket = builder.submit(EstimatorKind::H4096, &cfg, objects(0, 2_000).into(), None);
        assert!(ticket.wait().is_some(), "builder delivered");
        assert_eq!(live_threads().unwrap(), baseline + 1, "one builder thread");
        let ticket = builder.submit(EstimatorKind::Rsl, &cfg, objects(0, 4_000).into(), None);
        drop(ticket); // abandoned mid-build
        drop(builder);
    }
    assert_no_thread_leak("PrefillBuilder", baseline);
}
