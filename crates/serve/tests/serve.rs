//! Integration coverage for the serve stack: framing fuzz (malformed
//! frames never panic and always answer with structured errors),
//! batch≡serial response bit-identity across worker-thread counts,
//! served-vs-offline parity for every endpoint, cache behavior over a
//! live connection, and load-shedding backpressure.

use std::os::unix::net::UnixStream;

use proptest::prelude::*;

use culinaria_core::pairing::OverlapCache;
use culinaria_core::z_analysis::analyze_cuisine;
use culinaria_core::{recipe_pairing_score, FlavorViewRef, MonteCarloConfig, RecipesViewRef};
use culinaria_core::{CuisineView, NullModel};
use culinaria_datagen::World;
use culinaria_flavordb::IngredientId;
use culinaria_obs::Metrics;
use culinaria_recipedb::import::Importer;
use culinaria_recipedb::{RecipeStore, Region, Source};
use culinaria_serve::protocol::{
    self, parse_request, read_frame, topk_body, Client, TopPairing, MAX_FRAME,
};
use culinaria_serve::{Request, ServeConfig, Server};

mod common;
use common::{deadline_cfg, server_over, tiny_world, with_connection};

/// A populated region of the world plus a few of its ingredient ids.
fn probe(world: &World) -> (Region, Vec<IngredientId>) {
    let region = *world
        .recipes
        .regions()
        .first()
        .expect("tiny world has recipes");
    let cuisine = CuisineView::Owned(world.recipes.cuisine(region));
    let pool = cuisine.ingredient_set();
    assert!(pool.len() >= 4, "need a few ingredients to probe with");
    (region, pool[..4].to_vec())
}

fn ids_arg(ids: &[IngredientId]) -> String {
    ids.iter()
        .map(|id| id.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

proptest! {
    /// Arbitrary bytes never panic the frame reader, and whatever
    /// frames do decode never panic the request parser.
    #[test]
    fn fuzz_frame_reader_and_parser(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = &bytes[..];
        while let Ok(Some(payload)) = read_frame(&mut r, MAX_FRAME) {
            let _ = parse_request(&payload);
        }
    }

    /// Any single-line payload either parses or yields a structured
    /// error with a stable code — never a panic.
    #[test]
    fn fuzz_parse_request_total(payload in "\\PC{0,120}") {
        match parse_request(payload.as_bytes()) {
            Ok(_) => {}
            Err((_, e)) => prop_assert!(!e.code.is_empty() && !e.message.is_empty()),
        }
    }
}

#[test]
fn garbage_frames_get_structured_errors_and_the_connection_survives() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let stats = with_connection(&server, |client| {
        // Garbage verb.
        assert_eq!(
            client.call(1, "FRY ITA").unwrap(),
            "ERR bad-verb unknown verb \"FRY\""
        );
        // Non-UTF-8 payload.
        client.send_raw(&[0xff, 0xfe, 0xfd]).unwrap();
        let (id, rest) = client.recv().unwrap().unwrap();
        assert_eq!(id, 0);
        assert!(rest.starts_with("ERR bad-encoding"), "{rest}");
        // The connection still answers after both errors.
        assert_eq!(client.call(2, "PING").unwrap(), "OK pong");
        assert!(client.call(3, "QUIT").unwrap().starts_with("OK bye"));
    });
    assert_eq!(stats.protocol_errors, 2);
}

#[test]
fn truncated_frame_closes_with_structured_error() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    let stats = std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let handle =
            scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        // Header promising 100 bytes, then hang up.
        use std::io::Write;
        let mut half = client_side.try_clone().unwrap();
        half.write_all(&100u32.to_le_bytes()).unwrap();
        half.write_all(b"only a little").unwrap();
        half.shutdown(std::net::Shutdown::Write).unwrap();
        let mut client = Client::new(client_side);
        let (id, rest) = client.recv().unwrap().unwrap();
        assert_eq!(id, 0);
        assert!(rest.starts_with("ERR bad-frame"), "{rest}");
        assert!(client.recv().unwrap().is_none(), "connection closed");
        handle.join().expect("server thread")
    });
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn oversized_frame_is_rejected_not_read() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let handle =
            scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        use std::io::Write;
        let mut half = client_side.try_clone().unwrap();
        half.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes())
            .unwrap();
        half.flush().unwrap();
        let mut client = Client::new(client_side);
        let (_, rest) = client.recv().unwrap().unwrap();
        assert!(rest.starts_with("ERR bad-frame"), "{rest}");
        assert!(client.recv().unwrap().is_none(), "stream desynced → closed");
        handle.join().expect("server thread");
    });
}

/// The canonical deterministic query mix used by the identity tests.
fn mixed_requests(world: &World) -> Vec<(u64, Request)> {
    let (region, ids) = probe(world);
    let mut reqs: Vec<(u64, Request)> = Vec::new();
    for rep in 0..3u64 {
        reqs.push((
            rep * 10 + 1,
            Request::Pair {
                region: Some(region),
                ids: ids.clone(),
            },
        ));
        reqs.push((
            rep * 10 + 2,
            Request::Pair {
                region: None,
                ids: ids.clone(),
            },
        ));
        reqs.push((rep * 10 + 3, Request::TopK { region, k: 5 }));
        reqs.push((rep * 10 + 4, Request::ZProf { region }));
        reqs.push((rep * 10 + 5, Request::Ping));
        reqs.push((
            rep * 10 + 6,
            Request::Pair {
                region: Some(region),
                ids: vec![ids[0], ids[1]],
            },
        ));
    }
    reqs
}

#[test]
fn batch_responses_bit_identical_across_thread_counts() {
    // Every (threads × cache) configuration answers byte-identically;
    // hit/miss counts must also agree across the cache-on runs.
    let world = tiny_world();
    let mut reference: Option<Vec<String>> = None;
    let mut counts: Option<(u64, u64)> = None;
    for threads in [1usize, 2, 4, 8] {
        for cache_entries in [0, 4096] {
            let cfg = ServeConfig {
                threads,
                cache_entries,
                mc_recipes: 300,
                ..ServeConfig::default()
            };
            let server = server_over(&world, cfg);
            let reqs = mixed_requests(&world);
            let mut responses = Vec::new();
            // Two successive batches so cache state crosses a batch edge.
            let (front, back) = reqs.split_at(reqs.len() / 2);
            responses.extend(server.handle_batch(front));
            responses.extend(server.handle_batch(back));
            let label = format!("threads {threads}, cache {cache_entries}");
            match &reference {
                None => reference = Some(responses),
                Some(first) => assert_eq!(&responses, first, "{label} diverged"),
            }
            if let Some(stats) = server.cache_stats() {
                let seen = counts.get_or_insert((stats.hits, stats.misses));
                assert_eq!((stats.hits, stats.misses), *seen, "{label} counters");
            }
        }
    }
}

#[test]
fn batched_equals_serial_responses() {
    let world = tiny_world();
    let cfg = ServeConfig {
        mc_recipes: 300,
        cache_entries: 0, // isolate pure computation from cache effects
        ..ServeConfig::default()
    };
    let batched_server = server_over(&world, cfg);
    let serial_server = server_over(&world, cfg);
    let reqs = mixed_requests(&world);
    let batched = batched_server.handle_batch(&reqs);
    let serial: Vec<String> = reqs
        .iter()
        .map(|(id, req)| serial_server.handle(*id, req))
        .collect();
    assert_eq!(batched, serial);
    assert!(batched_server.cache_stats().is_none());
}

#[test]
fn pair_shard_and_global_paths_agree_bitwise() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (region, _) = probe(&world);
    let cuisine = CuisineView::Owned(world.recipes.cuisine(region));
    let pool = cuisine.ingredient_set();
    // Every adjacent pair and a few larger sets.
    for w in pool.windows(3).take(20) {
        let shard = server.handle(
            1,
            &Request::Pair {
                region: Some(region),
                ids: w.to_vec(),
            },
        );
        let global = server.handle(
            2,
            &Request::Pair {
                region: None,
                ids: w.to_vec(),
            },
        );
        assert_eq!(
            shard.split_once(' ').unwrap().1,
            global.split_once(' ').unwrap().1
        );
        // And both match the offline owned-path score bit-for-bit.
        let offline = recipe_pairing_score(&world.flavor, w);
        let expected = format!("OK {}", protocol::pair_body(offline));
        assert_eq!(shard.split_once(' ').unwrap().1, expected);
    }
}

#[test]
fn zprof_matches_offline_analyze_cuisine_bitwise() {
    let world = tiny_world();
    let cfg = ServeConfig {
        mc_recipes: 400,
        seed: 77,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let (region, _) = probe(&world);
    let served = server.handle(9, &Request::ZProf { region });
    let offline = analyze_cuisine(
        &world.flavor,
        world.recipes.cuisine(region),
        &NullModel::ALL,
        &MonteCarloConfig {
            n_recipes: 400,
            seed: 77,
            n_threads: 1,
        },
    )
    .expect("probed region is populated");
    assert_eq!(served, format!("9 OK {}", protocol::zprof_body(&offline)));
}

#[test]
fn topk_matches_offline_novelty_enumeration() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (region, _) = probe(&world);
    let served = server.handle(4, &Request::TopK { region, k: 8 });

    // The offline reference: examples/novel_pairings.rs's enumeration.
    let cuisine = CuisineView::Owned(world.recipes.cuisine(region));
    let pool = cuisine.ingredient_set();
    let cache = OverlapCache::for_cuisine(&world.flavor, &world.recipes.cuisine(region));
    let tri_index = |n: usize, i: usize, j: usize| i * n - i * (i + 1) / 2 + (j - i - 1);
    let pos: std::collections::HashMap<IngredientId, usize> =
        pool.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut cooc = vec![0u64; pool.len() * pool.len().saturating_sub(1) / 2];
    for recipe in world.recipes.recipes() {
        let mut members: Vec<usize> = recipe
            .ingredients()
            .iter()
            .filter_map(|id| pos.get(id).copied())
            .collect();
        members.sort_unstable();
        for (k, &i) in members.iter().enumerate() {
            for &j in &members[k + 1..] {
                cooc[tri_index(pool.len(), i, j)] += 1;
            }
        }
    }
    let mut candidates: Vec<(f64, u32, u64, usize, usize)> = Vec::new();
    for i in 0..pool.len() {
        for j in (i + 1)..pool.len() {
            let overlap = cache.overlap(i as u32, j as u32);
            if overlap == 0 {
                continue;
            }
            let c = cooc[tri_index(pool.len(), i, j)];
            candidates.push((f64::from(overlap) / (1.0 + c as f64), overlap, c, i, j));
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
    let rows: Vec<TopPairing> = candidates
        .iter()
        .take(8)
        .map(|&(novelty, overlap, cooc, i, j)| TopPairing {
            novelty,
            overlap,
            cooc,
            a: world.flavor.ingredient(pool[i]).unwrap().name.clone(),
            b: world.flavor.ingredient(pool[j]).unwrap().name.clone(),
        })
        .collect();
    assert_eq!(served, format!("4 OK {}", topk_body(region, &rows)));
}

#[test]
fn score_matches_offline_import_and_score() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (region, _) = probe(&world);
    // Lines built from real ingredient names resolve on any dataset.
    let cuisine = CuisineView::Owned(world.recipes.cuisine(region));
    let pool = cuisine.ingredient_set();
    let lines: Vec<String> = pool[..3]
        .iter()
        .map(|&id| world.flavor.ingredient(id).unwrap().name.clone())
        .collect();
    let served = server.handle(
        5,
        &Request::Score {
            region,
            lines: lines.clone(),
        },
    );

    let importer = Importer::from_flavor_db(&world.flavor);
    let (ids, resolved) = culinaria_serve::resolve_score_lines(&importer, &world.flavor, &lines);
    assert!(ids.len() >= 2, "names must resolve against their own db");
    let score = recipe_pairing_score(&world.flavor, &ids);
    let mean = OverlapCache::for_cuisine(&world.flavor, &world.recipes.cuisine(region))
        .mean_cuisine_score(cuisine)
        .expect("cuisine scores");
    let expected = format!(
        "5 OK {} vs={}",
        protocol::score_body(resolved, lines.len(), ids.len(), score),
        protocol::f64_field(mean),
    );
    assert_eq!(served, expected);
}

#[test]
fn cache_hits_and_eviction_counters_over_a_connection() {
    let world = tiny_world();
    let cfg = ServeConfig {
        cache_entries: 2,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let (region, ids) = probe(&world);
    let arg = ids_arg(&ids);
    let code = region.code();
    with_connection(&server, |client| {
        let first = client.call(1, &format!("PAIR {code} {arg}")).unwrap();
        let second = client.call(2, &format!("PAIR {code} {arg}")).unwrap();
        assert_eq!(first, second);
        // Permuted ids hit the same interned-set entry.
        let permuted: String = ids
            .iter()
            .rev()
            .map(|id| id.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(
            client.call(3, &format!("PAIR {code} {permuted}")).unwrap(),
            first
        );
        // Two more distinct keys overflow the 2-entry capacity.
        client.call(4, &format!("TOPK {code} 3")).unwrap();
        client.call(5, &format!("TOPK {code} 4")).unwrap();
        client.call(6, "QUIT").unwrap();
    });
    let stats = server.cache_stats().expect("cache on");
    assert_eq!(stats.hits, 2);
    assert!(
        stats.evictions >= 1,
        "capacity 2 with 3 distinct keys evicts"
    );
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter("serve.cache.hits"), Some(2));
    assert_eq!(snap.counter("serve.cache.evictions"), Some(stats.evictions));
}

#[test]
fn overloaded_connection_sheds_with_busy() {
    let world = tiny_world();
    let cfg = ServeConfig {
        threads: 1,
        batch_max: 1,
        max_queue: 1,
        cache_entries: 0,
        mc_recipes: 4000,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let (region, _) = probe(&world);
    let n = 50u64;
    let stats = with_connection(&server, |client| {
        // Pipeline a burst of expensive queries without reading — the
        // 1-deep queue must shed most of them as BUSY.
        for id in 0..n {
            client
                .send(&format!("{id} ZPROF {}", region.code()))
                .unwrap();
        }
        let mut ok = 0u64;
        let mut busy = 0u64;
        for _ in 0..n {
            let (_, rest) = client.recv().unwrap().unwrap();
            if rest.starts_with("OK ") {
                ok += 1;
            } else if rest.starts_with("BUSY ") {
                busy += 1;
            } else {
                panic!("unexpected reply {rest}");
            }
        }
        assert!(ok >= 1, "at least the first query is answered");
        assert!(busy >= 1, "the burst must overflow the 1-deep queue");
    });
    assert_eq!(stats.served + stats.shed, n);
    assert!(stats.shed > 0);
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter("serve.busy"), Some(stats.shed));
}

#[test]
fn artifact_backed_server_is_bit_identical_to_owned() {
    use culinaria_flavordb::{artifact as flavor_artifact, AlignedBytes, FlavorArtifactBuilder};
    use culinaria_recipedb::{artifact as recipe_artifact, RecipeArtifactBuilder};

    let world = tiny_world();
    let (region, ids) = probe(&world);
    // Flavor artifact carrying the probe region's overlap section, so
    // the shard build takes the section-reuse fast path.
    let mut builder = FlavorArtifactBuilder::new(&world.flavor);
    let cache = OverlapCache::for_cuisine(&world.flavor, &world.recipes.cuisine(region));
    builder
        .add_overlap(region.code(), cache.pool(), cache.tri())
        .expect("section encodes");
    let fbuf = AlignedBytes::from_vec(builder.build().expect("flavor artifact"));
    let rbuf = AlignedBytes::from_vec(
        RecipeArtifactBuilder::new(&world.recipes)
            .build()
            .expect("recipe artifact"),
    );
    let flavor = flavor_artifact::open(fbuf.as_slice()).expect("opens");
    let recipes = recipe_artifact::open(rbuf.as_slice()).expect("opens");

    let cfg = ServeConfig {
        mc_recipes: 300,
        ..ServeConfig::default()
    };
    let owned = server_over(&world, cfg);
    let borrowed = Server::new(
        FlavorViewRef::Artifact(&flavor),
        RecipesViewRef::Artifact(&recipes),
        cfg,
        Metrics::enabled(),
    );
    let name = world.flavor.ingredient(ids[0]).unwrap().name.clone();
    let reqs = [
        Request::Pair {
            region: Some(region),
            ids: ids.clone(),
        },
        Request::Pair {
            region: None,
            ids: ids.clone(),
        },
        Request::ZProf { region },
        Request::TopK { region, k: 6 },
        Request::Score {
            region,
            lines: vec![name.clone(), name],
        },
    ];
    for (i, req) in reqs.iter().enumerate() {
        let a = owned.handle(i as u64, req);
        let b = borrowed.handle(i as u64, req);
        assert_eq!(a, b, "request {req:?} diverged between representations");
    }
    // The shard build must have reused the artifact's section.
    let snap = borrowed.metrics().snapshot();
    assert_eq!(snap.counter("overlap.section_reuse"), Some(1));
}

#[test]
fn ingest_swap_invalidates_cache_and_serves_new_bits() {
    let world = tiny_world();
    let (region, ids) = probe(&world);
    // A grown copy of the store: the same corpus plus one streamed-in
    // recipe in the probe region (changes its cuisine, hence ZPROF).
    let mut grown = RecipeStore::new();
    for r in world.recipes.recipes() {
        grown
            .add_recipe(&r.name, r.region, r.source, r.ingredients().to_vec())
            .unwrap();
    }
    grown
        .add_recipe("streamed", region, Source::Synthetic, ids.clone())
        .unwrap();

    let cfg = ServeConfig {
        cache_entries: 8,
        mc_recipes: 200,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let req = Request::ZProf { region };

    // Warm the cache: second identical query is a hit.
    let first = server.handle(1, &req);
    let hit = server.handle(2, &req);
    assert_eq!(first[2..], hit[2..], "ids differ, bodies must not");
    assert_eq!(server.cache_stats().expect("cache on").hits, 1);
    assert_eq!(server.generation(), 0);

    // Ingest: swap to the grown store. Generation moves, nothing is
    // swept eagerly.
    let generation = server.ingest_swap(
        FlavorViewRef::Owned(&world.flavor),
        RecipesViewRef::Owned(&grown),
    );
    assert_eq!(generation, 1);
    assert_eq!(server.generation(), 1);
    assert_eq!(server.cache_stats().expect("cache on").invalidations, 0);

    // The same query now evicts the stale entry (counted) and answers
    // with the new data's bits.
    let after = server.handle(3, &req);
    let stats = server.cache_stats().expect("cache on");
    assert_eq!(stats.invalidations, 1, "stale entry evicted on lookup");
    assert_ne!(first[2..], after[2..], "answer must change with the data");

    // Bit-identical to a cold server started over the grown store.
    let fresh = Server::new(
        FlavorViewRef::Owned(&world.flavor),
        RecipesViewRef::Owned(&grown),
        cfg,
        Metrics::enabled(),
    );
    assert_eq!(after, fresh.handle(3, &req));

    // And the new answer is cached under the new generation.
    let again = server.handle(4, &req);
    assert_eq!(after[2..], again[2..]);
    let stats = server.cache_stats().expect("cache on");
    assert_eq!(stats.invalidations, 1);
    assert_eq!(stats.hits, 2);

    // The registry counter is the one the cache counts into.
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter("serve.cache.invalidations"), Some(1));
}

#[test]
fn metrics_endpoint_returns_live_json() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (region, ids) = probe(&world);
    with_connection(&server, |client| {
        client
            .call(1, &format!("PAIR {} {}", region.code(), ids_arg(&ids)))
            .unwrap();
        let body = client.call(2, "METRICS").unwrap();
        let json = body.strip_prefix("OK metrics ").expect("metrics body");
        assert!(json.contains("\"serve.pair_us\""), "{json}");
        assert!(json.contains("\"serve.requests\""), "{json}");
        assert!(json.contains("\"p99_us\""), "interpolated quantiles render");
        client.call(3, "QUIT").unwrap();
    });
}

// ---------------------------------------------------------------------------
// Operational hardening: deadlines, HEALTH, graceful shutdown (DESIGN.md §15).
// ---------------------------------------------------------------------------

use std::io::Write as _;

use culinaria_serve::arm;

#[test]
fn health_reports_liveness_and_pressure() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    with_connection(&server, |client| {
        let body = client.call(7, "HEALTH").unwrap();
        assert!(body.starts_with("OK health gen=0 "), "{body}");
        assert!(body.contains(" conns=1 "), "{body}");
        assert!(body.contains(" uptime_ms="), "{body}");
        assert!(body.contains(" timeouts=0 "), "{body}");
        // HEALTH is volatile — the served counter it reports moves
        // between calls, so the body can never come from the cache.
        client.call(8, "PING").unwrap();
        let again = client.call(9, "HEALTH").unwrap();
        assert!(again.contains(" served="), "{again}");
        assert_ne!(body, again, "HEALTH must never be cached");
    });
}

#[test]
fn stalled_midframe_client_is_shed_with_a_framed_error() {
    let world = tiny_world();
    let server = server_over(&world, deadline_cfg(80, 0));
    let (server_side, mut stalled) = UnixStream::pair().expect("socketpair");
    arm(&server_side, server.config()).expect("arm");
    let stats = std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let server_ref = &server;
        let handle = scope.spawn(move || server_ref.serve_connection(reader, server_side));
        // Two of the four header bytes, then stall forever.
        stalled.write_all(&[0, 0]).unwrap();
        let mut client = Client::new(stalled);
        let (id, rest) = client.recv().unwrap().expect("a shed frame before close");
        assert_eq!(id, 0);
        assert!(rest.starts_with("ERR read-timeout"), "{rest}");
        // ... and then the connection is closed, not wedged.
        assert!(client.recv().unwrap().is_none());
        handle.join().expect("server thread").expect("clean shed")
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.served, 0);
}

#[test]
fn idle_client_is_closed_cleanly_without_an_error_frame() {
    let world = tiny_world();
    let server = server_over(&world, deadline_cfg(0, 80));
    let (server_side, quiet) = UnixStream::pair().expect("socketpair");
    arm(&server_side, server.config()).expect("arm");
    let stats = std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let server_ref = &server;
        let handle = scope.spawn(move || server_ref.serve_connection(reader, server_side));
        let mut client = Client::new(quiet);
        // The server hangs up after the idle deadline — clean EOF, no
        // ERR frame for a client that simply had nothing to say.
        assert!(client.recv().unwrap().is_none());
        handle.join().expect("server thread").expect("clean close")
    });
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.served, 0);
    // The timeout is still visible operationally.
    let after = with_connection(&server, |client| {
        let body = client.call(1, "HEALTH").unwrap();
        assert!(body.contains(" timeouts=1 "), "{body}");
    });
    assert_eq!(after.served, 1);
}

#[test]
fn stalled_client_does_not_wedge_other_connections() {
    let world = tiny_world();
    let (region, ids) = probe(&world);
    let server = server_over(&world, deadline_cfg(600, 0));
    std::thread::scope(|scope| {
        // Connection A: armed, stalls after one header byte.
        let (a_srv, mut a_cli) = UnixStream::pair().expect("socketpair");
        arm(&a_srv, server.config()).expect("arm");
        let a_reader = a_srv.try_clone().expect("clone");
        let server_ref = &server;
        let a = scope.spawn(move || server_ref.serve_connection(a_reader, a_srv));
        a_cli.write_all(&[1]).unwrap();

        // Connection B: full service while A sits mid-frame.
        let stats = with_connection(&server, |client| {
            let reply = client
                .call(1, &format!("PAIR {} {}", region.code(), ids_arg(&ids)))
                .unwrap();
            assert!(reply.starts_with("OK pair"), "{reply}");
            assert_eq!(client.call(2, "PING").unwrap(), "OK pong");
        });
        assert_eq!(stats.served, 2);

        // A is eventually shed — the server survives both outcomes.
        let mut a_client = Client::new(a_cli);
        let (_, rest) = a_client.recv().unwrap().expect("shed frame");
        assert!(rest.starts_with("ERR read-timeout"), "{rest}");
        a.join().expect("conn A thread").expect("clean shed");
    });
}
