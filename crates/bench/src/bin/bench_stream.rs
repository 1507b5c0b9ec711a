//! Streaming-ingestion benchmark: incremental analysis state vs batch
//! recomputes, and ingest-while-serving over `Server::ingest_swap`.
//!
//! Two measured regimes, each with an in-binary parity assert:
//!
//! * **Incremental vs batch** — a recipe stream is fed micro-batch by
//!   micro-batch into a [`StreamState`] (frequency tables, category
//!   counts, per-region overlap caches grown row-by-row, Welford
//!   running stats) while the batch path recomputes the touched
//!   regions' state cold after every micro-batch, exactly as the
//!   offline pipeline would. Per micro-batch size the harness asserts
//!   the final incremental state is *bit-identical* to the cold
//!   rebuild over the whole stream, then reports total time for both
//!   paths, the speedup, and the incremental update-latency p50/p99.
//! * **Ingest while serving** — a [`Server`] answers a fixed-rate
//!   query mix (ZPROF + PAIR over one connection) while the main
//!   thread installs successive data generations with
//!   [`Server::ingest_swap`]. The harness reports query p50/p99 under
//!   churn, swap latency p50/p99, and the `serve.cache.invalidations`
//!   count. A first, untimed run asserts the post-swap server answers
//!   bit-identically to a fresh server built over the final store.
//!
//! Writes `BENCH_stream.json`. Knobs: `CULINARIA_SCALE`,
//! `CULINARIA_SEED`, `CULINARIA_STREAM_RECIPES` (stream length,
//! default 240), `CULINARIA_STREAM_BATCH` (micro-batch sizes, default
//! "1,8,64"), `CULINARIA_STREAM_QUERIES` (default 400),
//! `CULINARIA_STREAM_RATE` (queries/s, default 200),
//! `CULINARIA_STREAM_SWAPS` (generations installed, default 8),
//! `CULINARIA_STREAM_SWAP_BATCH` (recipes per generation, default 16),
//! `CULINARIA_STREAM_MC` (Monte-Carlo recipes per ZPROF, default 300),
//! `CULINARIA_STREAM_THREADS` (default "1,2"),
//! `CULINARIA_STREAM_WAL_RECIPES` (durability-smoke stream length,
//! default 160), `CULINARIA_STREAM_SEGMENT_BYTES` (WAL rotation
//! threshold, default 4096), `CULINARIA_BENCH_OUT`.
//!
//! A third regime smokes the durable segmented WAL (`DESIGN.md` §15):
//! reopen/replay parity against the live store and torn-tail recovery,
//! then the per-fsync-policy append, reopen and replay cost over
//! rotating segments.
//!
//! Every timing reports min, median and MAD over `TIME_REPS` repeats;
//! the latency quantiles pool the samples of every timed repeat.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use culinaria_bench::harness::{self, Obj, Run, Stat};
use culinaria_bench::{check_args, env_or, generate_logged, world_config_from_env, List};
use culinaria_core::composition::category_counts;
use culinaria_core::{
    recipe_pairing_score, FlavorViewRef, OverlapCache, RecipesViewRef, StreamState,
};
use culinaria_flavordb::{FlavorDb, IngredientId};
use culinaria_obs::Metrics;
use culinaria_recipedb::import::Importer;
use culinaria_recipedb::{
    Cuisine, FsyncPolicy, RawRecipe, Recipe, RecipeArtifactBuilder, RecipeStore, Region,
    SegmentedLog,
};
use culinaria_serve::protocol::{self, Client};
use culinaria_serve::{ServeConfig, Server};
use culinaria_stats::running::RunningStats;

/// Timed repeats per path.
const TIME_REPS: usize = 3;

/// `server`'s replies to `probes`, asked over one live connection.
fn answers(server: &Server<'_>, probes: &[String]) -> Vec<String> {
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let handle =
            scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        let mut client = Client::new(client_side);
        let call = |(i, p): (usize, &String)| client.call(i as u64 + 1, p).expect("probe");
        let out = probes.iter().enumerate().map(call).collect();
        drop(client);
        handle.join().expect("server thread");
        out
    })
}

/// The cold pairing statistics of `cuisine`: every recipe of two or
/// more ingredients.
fn cold_pairing_stats(db: &FlavorDb, cuisine: &Cuisine<'_>) -> RunningStats {
    let mut stats = RunningStats::new();
    for r in cuisine.recipes().iter().filter(|r| r.size() >= 2) {
        stats.push(recipe_pairing_score(db, r.ingredients()));
    }
    stats
}

/// Assert the incrementally fed `state` is bit-identical to a cold
/// batch rebuild over `store` — the bench's parity gate.
fn assert_stream_parity(db: &FlavorDb, state: &StreamState, store: &RecipeStore, label: &str) {
    assert_eq!(
        state.global_frequencies(),
        &store.global_frequencies(),
        "{label}: global frequencies diverged"
    );
    for region in store.regions() {
        let cuisine = store.cuisine(region);
        let rs = state.region(region);
        assert_eq!(
            rs.frequencies(),
            &cuisine.frequencies(),
            "{label}: {region} frequencies diverged"
        );
        assert_eq!(
            rs.category_counts(),
            &category_counts(db, &cuisine),
            "{label}: {region} category counts diverged"
        );
        let cold = OverlapCache::for_cuisine(db, &cuisine);
        assert_eq!(
            rs.overlap().pool(),
            cold.pool(),
            "{label}: {region} overlap pool diverged"
        );
        assert_eq!(
            rs.overlap().tri(),
            cold.tri(),
            "{label}: {region} overlap triangle diverged"
        );
        assert_eq!(
            rs.pairing_stats(),
            &cold_pairing_stats(db, &cuisine),
            "{label}: {region} running stats diverged"
        );
    }
}

/// One micro-batch of the stream: its `(region, ids)` refs, the store
/// after it (the batch path's input) and the regions it touched.
struct Step<'a> {
    refs: Vec<(Region, &'a [IngredientId])>,
    store: RecipeStore,
    touched: BTreeSet<Region>,
}

/// The incremental path: one chunked ingest per micro-batch — each
/// touched region's overlap pool extends once per micro-batch. Pushes
/// every update's latency (µs) to `update_us`.
fn feed(db: &FlavorDb, steps: &[Step<'_>], update_us: &mut Vec<f64>) -> StreamState {
    let mut state = StreamState::new();
    for step in steps {
        let t = Instant::now();
        state
            .ingest_batch(db, &step.refs)
            .expect("stream chunk ingests");
        update_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    state
}

/// The batch path: cold-recompute every touched region's state after
/// each micro-batch, as the offline pipeline would.
fn cold_rebuilds(db: &FlavorDb, steps: &[Step<'_>]) {
    for step in steps {
        black_box(step.store.global_frequencies());
        for &region in &step.touched {
            let cuisine = step.store.cuisine(region);
            let cold = OverlapCache::for_cuisine(db, &cuisine);
            let cats = category_counts(db, &cuisine);
            black_box((&cold, &cats, &cold_pairing_stats(db, &cuisine)));
        }
    }
}

/// One churn run: `lines` go to `server` at `rate` queries/s over one
/// connection while another thread installs the generations
/// `arena[1..]` at an even spacing. Returns the client-side query
/// latencies (µs), the count of `OK` replies and the swap latencies
/// (µs).
fn churn<'a>(
    server: &Server<'a>,
    flavor: FlavorViewRef<'a>,
    arena: &'a [RecipeStore],
    lines: &[String],
    rate: usize,
) -> (Vec<f64>, usize, Vec<f64>) {
    let sent_at: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let period = Duration::from_secs_f64(1.0 / rate as f64);
    let swap_every =
        Duration::from_secs_f64((lines.len() as f64 / rate as f64) / arena.len() as f64);
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    let write_half = client_side.try_clone().expect("clone");
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let srv = scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        let sent_at = &sent_at;
        let writer = scope.spawn(move || {
            let mut w = write_half;
            let start = Instant::now();
            for (i, line) in lines.iter().enumerate() {
                let due = start + period * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let id = (1u64 << 40) + i as u64;
                sent_at.lock().expect("lock").insert(id, Instant::now());
                protocol::write_frame(&mut w, format!("{id} {line}").as_bytes()).expect("send");
            }
        });
        // The ingest side: install generations at an even spacing
        // while the reader below keeps draining replies.
        let ingester = scope.spawn(move || {
            let mut swap_us = Vec::with_capacity(arena.len());
            for (g, store) in arena.iter().enumerate().skip(1) {
                std::thread::sleep(swap_every);
                let t = Instant::now();
                let generation = server.ingest_swap(flavor, RecipesViewRef::Owned(store));
                swap_us.push(t.elapsed().as_secs_f64() * 1e6);
                assert_eq!(generation, g as u64, "generations must be sequential");
            }
            swap_us
        });
        let mut client = Client::new(client_side);
        let mut lat = Vec::with_capacity(lines.len());
        let mut ok_replies = 0usize;
        for _ in lines {
            let (rid, rest) = client.recv().expect("recv").expect("open");
            if rest.starts_with("OK ") {
                ok_replies += 1;
            }
            if let Some(t) = sent_at.lock().expect("lock").remove(&rid) {
                lat.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        writer.join().expect("writer thread");
        let swap_us = ingester.join().expect("ingester thread");
        drop(client);
        srv.join().expect("server thread");
        (lat, ok_replies, swap_us)
    })
}

fn main() {
    check_args();
    let n_stream: usize = env_or("CULINARIA_STREAM_RECIPES", 240);
    let batch_sizes = env_or("CULINARIA_STREAM_BATCH", List(vec![1, 8, 64])).0;
    let queries: usize = env_or("CULINARIA_STREAM_QUERIES", 400);
    let rate: usize = env_or("CULINARIA_STREAM_RATE", 200);
    let swaps: usize = env_or("CULINARIA_STREAM_SWAPS", 8);
    let swap_batch: usize = env_or("CULINARIA_STREAM_SWAP_BATCH", 16);
    let mc: usize = env_or("CULINARIA_STREAM_MC", 300);
    let thread_list = env_or("CULINARIA_STREAM_THREADS", List(vec![1, 2])).0;
    let wal_recipes: usize = env_or("CULINARIA_STREAM_WAL_RECIPES", 160);
    let segment_bytes: u64 = env_or("CULINARIA_STREAM_SEGMENT_BYTES", 4096);

    let world_cfg = world_config_from_env(1.0);
    let seed = world_cfg.seed;
    let world = generate_logged(&world_cfg);
    let all: Vec<&Recipe> = world.recipes.recipes().collect();
    assert!(
        all.len() > swaps * swap_batch + 32,
        "world too small for {swaps} swaps of {swap_batch}: {} recipes",
        all.len()
    );
    let stream = &all[..n_stream.min(all.len())];

    // ---- Part 1: incremental StreamState vs per-batch cold rebuilds.
    let mut inc_rows = Vec::new();
    let mut best_speedup = 0.0f64;
    for &bsize in &batch_sizes {
        // Store growth is shared by both paths; keep it untimed.
        let mut partial = RecipeStore::new();
        let steps: Vec<Step<'_>> = stream
            .chunks(bsize)
            .map(|chunk| {
                for r in chunk {
                    partial
                        .add_recipe(&r.name, r.region, r.source, r.ingredients().to_vec())
                        .expect("stream recipe stores");
                }
                Step {
                    refs: chunk.iter().map(|r| (r.region, r.ingredients())).collect(),
                    store: partial.clone(),
                    touched: chunk.iter().map(|r| r.region).collect(),
                }
            })
            .collect();
        let state = feed(&world.flavor, &steps, &mut Vec::new());
        assert_stream_parity(
            &world.flavor,
            &state,
            &partial,
            &format!("micro-batch {bsize}"),
        );

        let mut update_us = Vec::new();
        let [inc, batch] = harness::time_ms(
            TIME_REPS,
            [
                &mut || drop(feed(&world.flavor, &steps, &mut update_us)),
                &mut || cold_rebuilds(&world.flavor, &steps),
            ],
        );
        let update = Stat::of(update_us);
        let speedup = batch.min() / inc.min();
        best_speedup = best_speedup.max(speedup);
        let (p50, p99) = (update.median(), update.quantile(0.99));
        eprintln!(
            "micro-batch {bsize}: {} recipes in {} batches, \
             incremental {:.1}ms vs batch {:.1}ms — speedup {speedup:.1}x, \
             update p50 {p50:.0}µs p99 {p99:.0}µs",
            stream.len(),
            steps.len(),
            inc.min(),
            batch.min(),
        );
        inc_rows.push(
            Obj::default()
                .set("batch_size", bsize)
                .set("recipes", stream.len())
                .set("batches", steps.len())
                .stat("incremental_ms", &inc)
                .stat("batch_ms", &batch)
                .set("speedup", speedup)
                .set("update_p50_us", p50)
                .set("update_p99_us", p99)
                .set("parity", "ok"),
        );
    }
    assert!(
        best_speedup > 1.0,
        "incremental maintenance must beat per-batch cold rebuilds \
         (best speedup {best_speedup:.2}x)"
    );

    // ---- Part 2: ingest_swap generations under a fixed-rate query mix.
    // Generation g serves the first base + g*swap_batch recipes; the
    // arena outlives every server so swaps can borrow freely.
    let base_n = all.len() - swaps * swap_batch;
    let arena: Vec<RecipeStore> = (0..=swaps)
        .map(|g| {
            let mut s = RecipeStore::new();
            for r in &all[..base_n + g * swap_batch] {
                s.add_recipe(&r.name, r.region, r.source, r.ingredients().to_vec())
                    .expect("arena recipe stores");
            }
            s
        })
        .collect();
    let flavor = FlavorViewRef::Owned(&world.flavor);

    let mut ranked: Vec<Region> = arena[0]
        .regions()
        .into_iter()
        .filter(|&r| arena[0].cuisine(r).ingredient_set().len() >= 8)
        .collect();
    ranked.sort_by_key(|&r| std::cmp::Reverse(arena[0].cuisine(r).n_recipes()));
    ranked.truncate(3);
    assert!(!ranked.is_empty(), "no populated region to query");
    let pair_args: Vec<String> = ranked
        .iter()
        .map(|&r| {
            arena[0].cuisine(r).ingredient_set()[..4]
                .iter()
                .map(|id| id.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    // A small cycling mix: repeats are what expose stale cache entries
    // to the generation check after each swap.
    let lines: Vec<String> = (0..queries)
        .map(|i| {
            let k = i % ranked.len();
            if i % 10 < 3 {
                format!("ZPROF {}", ranked[k].code())
            } else {
                format!("PAIR {} {}", ranked[k].code(), pair_args[k])
            }
        })
        .collect();
    let probes: Vec<String> = ranked
        .iter()
        .map(|r| format!("ZPROF {}", r.code()))
        .collect();

    let mut serve_rows = Vec::new();
    for &threads in &thread_list {
        let cfg = ServeConfig {
            threads,
            cache_entries: 1024,
            mc_recipes: mc,
            seed,
            ..ServeConfig::default()
        };
        let new_server = || {
            let base = RecipesViewRef::Owned(&arena[0]);
            Server::new(flavor, base, cfg, Metrics::enabled())
        };

        // The asserted run: every query answered, every generation
        // installed, stale entries invalidated, and the swapped server
        // answering exactly like a fresh server over the final store.
        let server = new_server();
        let (_, ok_replies, _) = churn(&server, flavor, &arena, &lines, rate);
        assert_eq!(
            ok_replies, queries,
            "every query must be answered OK while ingesting (threads {threads})"
        );
        assert_eq!(server.generation(), swaps as u64);
        let cs = server.cache_stats().expect("cache enabled");
        assert!(
            cs.invalidations > 0,
            "swaps over a repeating mix must invalidate stale entries (threads {threads})"
        );
        let fresh_server = Server::new(
            flavor,
            RecipesViewRef::Owned(&arena[swaps]),
            cfg,
            Metrics::enabled(),
        );
        assert_eq!(
            answers(&server, &probes),
            answers(&fresh_server, &probes),
            "post-swap answers diverged from a cold server (threads {threads})"
        );

        // The timed runs, each on a fresh server.
        let (mut lat, mut swap_us) = (Vec::new(), Vec::new());
        let [elapsed] = harness::time_ms(
            TIME_REPS,
            [&mut || {
                let (l, _, s) = churn(&new_server(), flavor, &arena, &lines, rate);
                lat.extend(l);
                swap_us.extend(s);
            }],
        );
        let (lat, swap) = (Stat::of(lat), Stat::of(swap_us));
        let (q50, q99) = (lat.median(), lat.quantile(0.99));
        let (s50, s99) = (swap.median(), swap.quantile(0.99));
        eprintln!(
            "serving threads={threads}: {queries} queries at {rate}/s with {swaps} swaps in \
             {:.2}s — query p50 {q50:.0}µs p99 {q99:.0}µs, swap p50 {s50:.0}µs \
             p99 {s99:.0}µs, {} invalidations",
            elapsed.min() / 1e3,
            cs.invalidations
        );
        serve_rows.push(
            Obj::default()
                .set("threads", threads)
                .set("rate_rps", rate)
                .set("queries", queries)
                .set("swaps", swaps)
                .set("swap_batch", swap_batch)
                .stat("elapsed_s", &elapsed.per(1000)) // ms → s
                .set("query_p50_us", q50)
                .set("query_p99_us", q99)
                .set("swap_p50_us", s50)
                .set("swap_p99_us", s99)
                .set("cache_hits", cs.hits)
                .set("cache_misses", cs.misses)
                .set("cache_invalidations", cs.invalidations)
                .set("parity", "ok"),
        );
    }

    // ---- Part 3: segmented-WAL durability smoke (DESIGN.md §15) —
    // a reopen whose recovered log must replay bit-identically to the
    // store the appends grew, including after a torn tail; then the
    // per-fsync-policy append cost over rotating CWAL1 segments and
    // the reopen and replay cost of the result.
    let importer = Importer::from_flavor_db(&world.flavor);
    let wal_raws: Vec<RawRecipe> = all[..wal_recipes.min(all.len())]
        .iter()
        .map(|r| RawRecipe {
            name: r.name.clone(),
            region: r.region,
            source: r.source,
            ingredient_lines: r
                .ingredients()
                .iter()
                .map(|&id| {
                    world
                        .flavor
                        .ingredient(id)
                        .expect("world id resolves")
                        .name
                        .clone()
                })
                .collect(),
        })
        .collect();
    let wal_root = std::env::temp_dir().join(format!("culinaria-bench-wal-{}", std::process::id()));
    let mut wal_rows = Vec::new();
    for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Off] {
        let dir = wal_root.join(policy.to_string());
        let _ = std::fs::remove_dir_all(&dir);
        // Grow a fresh log in `dir` by every batch; returns the log and
        // the store the appends grew.
        let append = |dir: &std::path::Path| {
            let mut log =
                SegmentedLog::open(dir, policy, segment_bytes).expect("open segmented wal");
            let mut live = RecipeStore::new();
            for chunk in wal_raws.chunks(16) {
                log.append_batch(&world.flavor, &importer, &mut live, chunk, 2)
                    .expect("wal append");
            }
            log.sync().expect("final sync");
            (log, live)
        };
        let checked = dir.join("checked");
        let (log, live) = append(&checked);
        let n_segments = log.n_segments();
        assert!(
            n_segments >= 2,
            "segment rotation never kicked in ({n_segments} segment(s) at \
             {segment_bytes} bytes) — durability smoke needs a sealed segment"
        );
        let live_bytes = RecipeArtifactBuilder::new(&live)
            .build()
            .expect("live artifact");
        drop(log);

        let reopened =
            SegmentedLog::open(&checked, policy, segment_bytes).expect("reopen segmented wal");
        assert!(
            !reopened.recovery().recovered(),
            "clean close reopened torn"
        );
        assert_eq!(reopened.len(), wal_raws.len(), "records lost across reopen");
        let (replayed, _) = reopened
            .replay(&world.flavor, &importer, 2)
            .expect("wal replay");
        assert_eq!(
            RecipeArtifactBuilder::new(&replayed)
                .build()
                .expect("replay artifact"),
            live_bytes,
            "replayed store diverged from the live store ({policy})"
        );
        drop(reopened);

        // Torn tail: garbage after the last record must be truncated on
        // open while every whole record survives.
        {
            use std::io::Write as _;
            let open_seg = std::fs::read_dir(&checked)
                .expect("wal dir")
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.to_string_lossy().ends_with(".cwal"))
                .max()
                .expect("open segment");
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(open_seg)
                .expect("damage open segment");
            f.write_all(&[0xAA; 7]).expect("append torn bytes");
        }
        let torn = SegmentedLog::open(&checked, policy, segment_bytes).expect("reopen torn wal");
        assert_eq!(torn.recovery().truncated_bytes, 7, "torn tail not measured");
        assert_eq!(torn.len(), wal_raws.len(), "torn tail ate whole records");

        // Timed: every append rep grows its own fresh log; reopen and
        // replay read the first of them.
        let mut rep = 0;
        let [append_t] = harness::time_ms(
            TIME_REPS,
            [&mut || {
                rep += 1;
                append(&dir.join(format!("rep{rep}")))
            }],
        );
        let timed = dir.join("rep1");
        let [reopen_t] = harness::time_ms(
            TIME_REPS,
            [&mut || SegmentedLog::open(&timed, policy, segment_bytes).expect("reopen")],
        );
        let log = SegmentedLog::open(&timed, policy, segment_bytes).expect("reopen");
        let [replay_t] = harness::time_ms(
            TIME_REPS,
            [&mut || log.replay(&world.flavor, &importer, 2).expect("wal replay")],
        );
        eprintln!(
            "wal fsync={policy}: {} records over {n_segments} segments — \
             append {:.1}ms, reopen {:.2}ms, replay {:.1}ms",
            wal_raws.len(),
            append_t.min(),
            reopen_t.min(),
            replay_t.min()
        );
        wal_rows.push(
            Obj::default()
                .set("fsync", policy.to_string())
                .set("records", wal_raws.len())
                .set("segments", n_segments)
                .set("segment_bytes", segment_bytes)
                .stat("append_ms", &append_t)
                .stat("reopen_ms", &reopen_t)
                .stat("replay_ms", &replay_t)
                .set("torn_tail_recovered", true)
                .set("parity", "ok"),
        );
    }
    let _ = std::fs::remove_dir_all(&wal_root);

    let run = Run {
        seed,
        scale: Some(world_cfg.recipe_scale),
        threads: 0,
        reps: TIME_REPS,
    };
    harness::summary("stream", run)
        .set("stream_recipes", stream.len())
        .set("mc_recipes", mc)
        .set(
            "parity",
            "incremental state bit-identical to cold rebuilds per config; \
             post-swap serve answers bit-identical to a cold server; \
             segmented WAL replays bit-identical to the live store",
        )
        .set("incremental", inc_rows)
        .set("serving", serve_rows)
        .set("wal", wal_rows)
        .write("BENCH_stream.json");
}
