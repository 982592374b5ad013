//! Shared fixtures for the serving-layer integration tests.

use estimators::EstimatorConfig;
use geostream::synth::DatasetSpec;
use geostream::{Duration, GeoTextObject, KeywordId, ObjectId, Point, Timestamp};
use latest_core::{LatestConfig, RouterPolicy, ShardConfig};

pub fn config(shards: usize) -> LatestConfig {
    let dataset = DatasetSpec::twitter();
    LatestConfig::builder()
        .window_span(Duration::from_secs(3_600))
        .warmup(Duration::from_secs(60))
        .pretrain_queries(10)
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 500,
            ..EstimatorConfig::default()
        })
        .shard(ShardConfig {
            shards,
            queue_capacity: 1_024,
            router: RouterPolicy::HashOid,
        })
        .build()
        .expect("valid test config")
}

pub fn objects(start: u64, n: u64) -> Vec<GeoTextObject> {
    (start..start + n)
        .map(|i| {
            GeoTextObject::new(
                ObjectId(i),
                Point::new((i % 100) as f64 - 110.0, (i % 15) as f64 + 30.0),
                vec![KeywordId(i as u32 % 16)],
                Timestamp(i),
            )
        })
        .collect()
}
