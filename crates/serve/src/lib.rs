//! `culinaria-serve`: a long-lived, batched, cached query service over
//! the zero-copy CFDB2/CRDB2 artifacts.
//!
//! The batch pipeline (`culinaria analyze-*`) rebuilds its world every
//! run; this crate is the complementary *online* path the ROADMAP's
//! production north-star implies. A [`Server`] opens the artifacts
//! once (O(1) via `BorrowedFlavorDb`/`BorrowedRecipeDb` behind
//! `core::view`), lazily builds one [overlap shard](server::RegionShard)
//! per region — straight from the artifact's precomputed triangle
//! section when one matches — and then answers four query families
//! over a no-network framed transport ([`protocol`]):
//!
//! - `PAIR` — flavor-sharing score N_s for an ingredient-id set,
//! - `ZPROF` — a cuisine's Z-profile against every null model,
//! - `TOPK` — top-k novel pairings (high overlap, low co-occurrence),
//! - `SCORE` — free-text recipe import-and-score.
//!
//! The perf core is three mechanisms, each asserted by the serve tests
//! and timed end to end by perfbench's `serve-hot`/`serve-cold`:
//! deterministic request batching over `culinaria_stats::pool`
//! ([`server`] docs give the bit-identity argument), a bounded LRU
//! response cache over interned ingredient-id sets ([`cache`]), and
//! load-shedding bounded-queue backpressure ([`queue`]). Live metrics
//! flow through `culinaria-obs` and out the `METRICS` endpoint.
//!
//! # Serving over mutable data
//!
//! The server can sit on a *stream* of recipes (`culinaria ingest`,
//! `culinaria_recipedb::wal`): [`Server::ingest_swap`] installs a new
//! data generation atomically — lazy shards and the `SCORE` context
//! rebuild on first use, and cached responses from older generations
//! are invalidated lazily on lookup
//! ([`cache::ResponseCache::set_generation`], counted by
//! `serve.cache.invalidations`). `bench_stream` measures this
//! ingest-while-serving regime; the wire protocol itself is documented
//! end-to-end in `docs/PROTOCOL.md`.
//!
//! # Operational hardening
//!
//! The serving path is built to survive hostile or unlucky clients and
//! to die well ([`transport`], [`deadline`], [`lifecycle`];
//! `DESIGN.md` §15): [`transport::run`] owns the socket — clobber
//! guard, connection cap, accept backoff, signal wiring — and armed
//! connections carry idle/read/write deadlines (slow clients are shed
//! with a framed `ERR read-timeout`, never a wedged thread), the
//! `HEALTH` verb reports liveness and pressure, and SIGINT/SIGTERM
//! drain in-flight batches — replying to everything already accepted —
//! before the process exits 0.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod deadline;
pub mod lifecycle;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod transport;

pub use cache::{CacheStats, ResponseCache};
pub use deadline::{arm, DeadlineReader, TimeoutClass, POLL_TICK};
pub use lifecycle::ShutdownFlag;
pub use protocol::{Client, ProtoError, Request, MAX_FRAME};
pub use queue::BoundedQueue;
pub use server::{resolve_score_lines, ConnStats, ServeConfig, Server};
