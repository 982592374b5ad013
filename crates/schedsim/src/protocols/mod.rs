//! Ports of the repo's riskiest real concurrency protocols onto the
//! simulator, each with seeded-bug mutations.
//!
//! Each module mirrors one protocol from the `conc.toml` registry (see
//! DESIGN.md "Concurrency protocols"):
//!
//! * [`eviction`] — the `ShardedLatest` cross-shard eviction clock: relaxed
//!   `fetch_max` watermark plus per-shard `AdvanceTo` broadcasts.
//! * [`prefill`] — the `PrefillBuilder` cancel-flag / promotion handoff
//!   behind asynchronous estimator switching.
//!
//! Every module exposes `check(mutation, &Config)`: `Mutation::None` must
//! verify exhaustively (no violation, `!truncated`), and each seeded
//! mutation must produce a [`Violation`](crate::sim::Violation) — the
//! regression suite in `tests/protocols.rs` asserts both directions.

pub mod eviction;
pub mod prefill;
