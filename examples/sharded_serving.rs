//! Sharded serving: run LATEST the way a service would — a producer
//! thread streams arrivals into the sharded engine while several client
//! threads issue query batches against it, and the main thread scrapes
//! the merged metrics as they go.
//!
//! ```text
//! cargo run --release -p latest-core --example sharded_serving
//! ```
//!
//! The stream is partitioned across four shards, each owning its own
//! window, estimator pool, adaptor, and selectivity cache on a dedicated
//! worker thread. Queries fan out to the shards the router says can hold
//! matching objects and the per-shard counts merge into one answer. Every
//! engine method takes `&self`, so all threads share one
//! `Arc<ShardedLatest>`.

use estimators::EstimatorConfig;
use geostream::synth::DatasetSpec;
use geostream::{KeywordId, Point, RcDvq, Rect};
use latest_core::{
    LatestConfig, LatestError, PhaseTag, QueryOptions, RouterPolicy, ShardConfig, ShardedLatest,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

fn main() {
    let dataset = DatasetSpec::twitter();
    let config = LatestConfig::builder()
        .window_span(geostream::Duration::from_secs(60))
        .warmup(geostream::Duration::from_secs(60))
        .pretrain_queries(60)
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 4_000,
            ..EstimatorConfig::default()
        })
        // Four shards, partitioned by longitude strip: spatial queries
        // touch only the strips their rectangle overlaps, keyword
        // queries fan out everywhere.
        .shard(ShardConfig {
            shards: 4,
            queue_capacity: 256,
            router: RouterPolicy::SpatialTile,
        })
        .build()
        .expect("demo parameters are in range");

    println!("spawning {} shard workers…", config.shard.shards);
    let engine = Arc::new(ShardedLatest::new(config).expect("shard threads spawn"));

    // Batched ingest: the router partitions each batch and every shard
    // advances to the batch's horizon, so windows stay aligned even on
    // shards that received nothing.
    let mut gen = dataset.generator();
    loop {
        let batch: Vec<_> = (0..512).map(|_| gen.next_object()).collect();
        engine.ingest_batch(&batch).expect("shards are live");
        let snap = engine.metrics_snapshot().expect("shards are live");
        if snap.phase != PhaseTag::WarmUp {
            println!(
                "warm-up done: {} live objects across {} shards",
                snap.window.occupancy,
                engine.shards()
            );
            break;
        }
    }

    // Drive every shard through pre-training with fanned-out queries.
    let hotspots: Vec<Point> = dataset
        .spatial_model()
        .hotspots()
        .iter()
        .take(8)
        .map(|h| h.center)
        .collect();
    let mut i = 0u32;
    loop {
        let c = hotspots[i as usize % hotspots.len()];
        let area = Rect::centered_clamped(c, 2.0, 1.5, &dataset.domain);
        let q = match i % 3 {
            0 => RcDvq::spatial(area),
            1 => RcDvq::keyword(vec![KeywordId(i % 40)]),
            _ => RcDvq::hybrid(area, vec![KeywordId(i % 40)]),
        };
        let out = engine
            .query(&q, QueryOptions::new())
            .expect("shards are live");
        i += 1;
        if out.phase == PhaseTag::Incremental {
            break;
        }
    }
    println!("pre-training finished after {i} queries; serving clients…\n");

    // The producer keeps the shards churning underneath the clients. The
    // stop flag only ends its loop (the join publishes everything else),
    // hence Relaxed ordering.
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<_> = (0..256).map(|_| gen.next_object()).collect();
                engine.ingest_batch(&batch).expect("shards are live");
                std::thread::sleep(StdDuration::from_millis(1));
            }
        })
    };

    // Four clients submit non-blocking query batches. A full shard queue
    // surfaces as `WouldBlock` — the client sheds that batch explicitly,
    // nothing drops silently.
    let mut clients = Vec::new();
    for t in 0..4u32 {
        let engine = Arc::clone(&engine);
        let hotspots = hotspots.clone();
        let domain = dataset.domain;
        clients.push(std::thread::spawn(move || {
            let (mut acc_sum, mut answered, mut shed) = (0.0, 0usize, 0u32);
            for round in 0..60u32 {
                let c = hotspots[(t + round) as usize % hotspots.len()];
                let area = Rect::centered_clamped(c, 2.0, 1.5, &domain);
                let kw = KeywordId((t * 53 + round) % 40);
                let batch = [
                    RcDvq::spatial(area),
                    RcDvq::keyword(vec![kw]),
                    RcDvq::hybrid(area, vec![kw]),
                ];
                match engine.query_batch(&batch, QueryOptions::new().blocking(false)) {
                    Ok(outcomes) => {
                        acc_sum += outcomes.iter().map(|o| o.accuracy).sum::<f64>();
                        answered += outcomes.len();
                    }
                    Err(LatestError::WouldBlock) => shed += 1,
                    Err(e) => panic!("engine failed: {e}"),
                }
            }
            (t, acc_sum / answered.max(1) as f64, answered, shed)
        }));
    }

    // Periodic observability scrape from the main thread. One merged
    // snapshot covers the whole fleet: counters sum, histograms add
    // bucket-wise, phase reports the least-advanced shard.
    let mut scrapes = 0u32;
    while !clients.iter().all(|c| c.is_finished()) {
        std::thread::sleep(StdDuration::from_millis(25));
        scrapes += 1;
        let snap = engine.metrics_snapshot().expect("shards are live");
        println!(
            "scrape {scrapes}: {} queries, cache {}/{} hit/miss, {} live objects, {} ingested",
            snap.queries_total,
            snap.cache_hits,
            snap.cache_misses,
            snap.window.occupancy,
            snap.window.ingested
        );
    }
    println!();
    for client in clients {
        let (t, mean_acc, answered, shed) = client.join().expect("client thread panicked");
        println!(
            "client {t}: mean accuracy {mean_acc:.3} over {answered} queries \
             (shed {shed} batches on backpressure)"
        );
    }
    stop.store(true, Ordering::Relaxed);
    producer.join().expect("producer thread panicked");

    // MetricsSnapshot::to_json() gives the machine-readable form.
    let snap = engine.metrics_snapshot().expect("shards are live");
    println!(
        "\nfleet totals: {} queries, {} lifecycle events, executor path mix {}/{} \
         (spatial/inverted), {} evicted",
        snap.queries_total,
        snap.events.len(),
        snap.executor.spatial,
        snap.executor.inverted,
        snap.window.evicted
    );
    let engine = Arc::try_unwrap(engine).expect("every thread released its handle");
    let ingested = engine.shutdown();
    println!("shards ingested {ingested} objects");
}
