//! Benchmark for the zero-copy CFDB2/CRDB2 artifact format.
//!
//! Quantifies what borrowing the artifacts buys over decoding them:
//!
//! * **Open time** — the owned decode (`artifact::open` followed by
//!   `to_flavor_db` + `to_recipe_store`) materializes every string,
//!   profile, and column into owned heap structures; `artifact::open`
//!   alone validates the section table and hands out borrowed slices.
//!   The harness asserts the borrowed open is at least 12× faster (the
//!   owned decode is ~1.7× quicker than the retired v1 snapshot parse,
//!   which the borrowed open had to beat by 20×).
//! * **First-query latency** — the observed mean pairing score of the
//!   largest cuisine, from a freshly opened view: once against an
//!   artifact carrying precomputed overlap-triangle sections (reused
//!   via `OverlapCache::from_parts`) and once against a bare artifact
//!   that must run the kernel build. Both answers are asserted
//!   bit-identical.
//! * **Resident bytes** — RSS delta of materializing the owned DBs vs
//!   the byte length of the buffers the borrowed views live on.
//! * **Parity** — `analyze_world` from the owned DBs vs
//!   the same `analyze_world` from the borrowed views, fingerprinted over
//!   every `f64::to_bits`, asserted identical at 1/2/4/8 threads.
//!
//! Every parity assert runs before the timings; each timing reports
//! min, median and MAD over `TIME_REPS` interleaved repeats.
//!
//! Writes `BENCH_artifact.json`. Knobs: `CULINARIA_SCALE`,
//! `CULINARIA_SEED`, `CULINARIA_ARTIFACT_MC` (Monte-Carlo recipes per
//! model for the parity runs, default 2000), `CULINARIA_BENCH_OUT`.

use std::hint::black_box;

use culinaria_bench::harness::{self, Obj, Run};
use culinaria_bench::{check_args, env_or, generate_logged, world_config_from_env};
use culinaria_core::{
    analyze_world, region_overlap_cache, CuisineAnalysis, CuisineView, FlavorViewRef,
    MonteCarloConfig, NullModel, OverlapCache,
};
use culinaria_flavordb::{artifact as flavor_artifact, AlignedBytes, FlavorArtifactBuilder};
use culinaria_obs::Metrics;
use culinaria_recipedb::{artifact as recipe_artifact, RecipeArtifactBuilder};

/// Timed repeats per path.
const TIME_REPS: usize = 5;

/// Borrowed opens per timed sample: one takes well under a millisecond.
const OPEN_ITERS: usize = 64;

/// Heap bytes of the owned in-memory representation: every `String`
/// and `Vec` payload plus its 24-byte (ptr, len, cap) header, plus the
/// inline struct sizes. A content accounting, so it is what a fresh
/// owned decode must allocate regardless of allocator state.
fn owned_heap_bytes(
    db: &culinaria_flavordb::FlavorDb,
    store: &culinaria_recipedb::RecipeStore,
) -> usize {
    const HDR: usize = 24;
    let mut total = 0usize;
    for m in db.molecules() {
        total += std::mem::size_of::<culinaria_flavordb::Molecule>();
        total += HDR + m.name.len();
        total += HDR + m.descriptors.iter().map(|d| HDR + d.len()).sum::<usize>();
    }
    for i in db.ingredients() {
        total += std::mem::size_of::<culinaria_flavordb::Ingredient>();
        total += HDR + i.name.len();
        total += HDR + i.profile.len() * 4;
    }
    for (syn, _) in db.synonyms() {
        total += HDR + syn.len() + 4;
    }
    for r in store.recipes() {
        total += std::mem::size_of::<culinaria_recipedb::Recipe>();
        total += HDR + r.name.len();
        total += HDR + r.ingredients().len() * 4;
    }
    for region in store.regions() {
        total += HDR + store.region_recipe_ids(region).len() * 4;
    }
    total
}

/// Fold one u64 into an FNV-style fingerprint.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

/// Bit-exact fingerprint of a world analysis: every float enters via
/// `to_bits`, so two runs agree iff they are bit-identical.
fn fingerprint(rows: &[CuisineAnalysis]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for b in row.region.code().bytes() {
            h = mix(h, u64::from(b));
        }
        h = mix(h, row.n_recipes as u64);
        h = mix(h, row.n_ingredients as u64);
        h = mix(h, row.observed_mean.to_bits());
        for c in &row.comparisons {
            h = mix(h, c.null.mean.to_bits());
            h = mix(h, c.null.std_dev.to_bits());
            h = mix(h, c.null.n);
            h = mix(h, c.z.map(f64::to_bits).unwrap_or(1));
        }
    }
    h
}

/// The first real query a consumer runs against a fresh view: the
/// observed mean pairing score of one cuisine. Reuses a serialized
/// overlap-triangle section when the artifact carries one for this
/// region, otherwise runs the kernel build.
fn first_query(flavor: FlavorViewRef<'_>, cuisine: &CuisineView<'_>) -> f64 {
    let pool = cuisine.ingredient_set();
    region_overlap_cache(flavor, cuisine.region(), &pool, 0, &Metrics::disabled())
        .expect("overlap build")
        .mean_cuisine_score(cuisine.clone())
        .expect("observed mean")
}

fn main() {
    check_args();
    let world_cfg = world_config_from_env(1.0);
    let seed = world_cfg.seed;
    let mc_recipes: usize = env_or("CULINARIA_ARTIFACT_MC", 2_000);
    let world = generate_logged(&world_cfg);

    // ---- serialize -------------------------------------------------
    let mut builder = FlavorArtifactBuilder::new(&world.flavor);
    let mut n_sections = 0usize;
    for region in world.recipes.regions() {
        let cuisine = world.recipes.cuisine(region);
        let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
        if cache.pool().is_empty() {
            continue;
        }
        builder
            .add_overlap(region.code(), cache.pool(), cache.tri())
            .expect("overlap section");
        n_sections += 1;
    }
    let flavor_art = AlignedBytes::from_vec(builder.build().expect("v2 flavor"));
    let flavor_art_bare = AlignedBytes::from_vec(
        FlavorArtifactBuilder::new(&world.flavor)
            .build()
            .expect("v2 bare"),
    );
    let recipe_art = AlignedBytes::from_vec(
        RecipeArtifactBuilder::new(&world.recipes)
            .build()
            .expect("v2 recipes"),
    );
    eprintln!(
        "serialized: {} + {} B ({} overlap sections)",
        flavor_art.as_slice().len(),
        recipe_art.as_slice().len(),
        n_sections,
    );

    // ---- first-query parity: section reuse vs kernel build ------
    let fview = flavor_artifact::open(flavor_art.as_slice()).expect("open v2");
    let fview_bare = flavor_artifact::open(flavor_art_bare.as_slice()).expect("open v2");
    let rview = recipe_artifact::open(recipe_art.as_slice()).expect("open v2");
    let largest = rview
        .regions()
        .into_iter()
        .max_by_key(|r| rview.n_region_recipes(*r))
        .expect("non-empty world");
    let cuisine = CuisineView::from(rview.cuisine(largest));
    let with_sections = first_query(FlavorViewRef::Artifact(&fview), &cuisine);
    let without_sections = first_query(FlavorViewRef::Artifact(&fview_bare), &cuisine);
    assert_eq!(
        with_sections.to_bits(),
        without_sections.to_bits(),
        "section-reused mean must be bit-identical to the kernel build"
    );

    // ---- parity: owned vs borrowed world analysis, 1/2/4/8 threads
    let models = NullModel::ALL;
    let mut parity_rows = Vec::new();
    let mut prints = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        let cfg = MonteCarloConfig {
            n_recipes: mc_recipes,
            seed,
            n_threads: threads,
        };
        let owned = analyze_world(&world.flavor, &world.recipes, &models, &cfg);
        let viewed = analyze_world(&fview, &rview, &models, &cfg);
        let fp_owned = fingerprint(&owned);
        let fp_view = fingerprint(&viewed);
        assert_eq!(
            fp_owned, fp_view,
            "owned vs borrowed analyze_world diverged at {threads} threads"
        );
        eprintln!("parity: {threads} threads, fingerprint {fp_owned:016x} (owned == borrowed)");
        prints.push(fp_owned);
        parity_rows.push(
            Obj::default()
                .set("threads", threads)
                .set("fingerprint", format!("{fp_owned:016x}"))
                .set("owned_equals_borrowed", true),
        );
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "world analysis fingerprint must not depend on thread count"
    );

    // ---- open time: owned decode vs validate-and-borrow ------------
    // Each sample opens BOTH databases so the two paths do comparable
    // logical work.
    let [decode, open] = harness::time_ms(
        TIME_REPS,
        [
            &mut || {
                let db = flavor_artifact::open(flavor_art.as_slice())
                    .expect("open")
                    .to_flavor_db()
                    .expect("decode");
                let store = recipe_artifact::open(recipe_art.as_slice())
                    .expect("open")
                    .to_recipe_store()
                    .expect("decode");
                black_box((db.n_ingredients(), store.n_recipes()));
            },
            &mut || {
                for _ in 0..OPEN_ITERS {
                    let db = flavor_artifact::open(flavor_art.as_slice()).expect("open v2");
                    let store = recipe_artifact::open(recipe_art.as_slice()).expect("open v2");
                    black_box((db.n_ingredients(), store.n_recipes()));
                }
            },
        ],
    );
    let open = open.per(OPEN_ITERS);
    let open_speedup = decode.min() / open.min();
    eprintln!(
        "open: owned decode {:.3} ms, borrow {:.4} ms -> {open_speedup:.0}x",
        decode.min(),
        open.min()
    );
    assert!(
        open_speedup >= 12.0,
        "borrowed open must be >=12x faster than the owned decode, got {open_speedup:.1}x"
    );

    // ---- first-query latency: section reuse vs kernel build -------
    let [reuse, build] = harness::time_ms(
        TIME_REPS,
        [
            &mut || first_query(FlavorViewRef::Artifact(&fview), &cuisine),
            &mut || first_query(FlavorViewRef::Artifact(&fview_bare), &cuisine),
        ],
    );
    eprintln!(
        "first query ({}): section reuse {:.3} ms, kernel build {:.3} ms",
        largest.code(),
        reuse.min(),
        build.min()
    );

    // ---- resident bytes -------------------------------------------
    // Owned: what the owned decode allocates on the heap (content
    // accounting). Borrowed: the artifact buffers ARE the resident
    // set; opening a view allocates nothing.
    let owned_resident = owned_heap_bytes(&world.flavor, &world.recipes);
    let borrowed_bytes = flavor_art.as_slice().len() + recipe_art.as_slice().len();
    let bare_bytes = flavor_art_bare.as_slice().len() + recipe_art.as_slice().len();
    eprintln!(
        "resident: owned heap {owned_resident} B, borrowed buffers {borrowed_bytes} B \
         ({bare_bytes} B without overlap sections)"
    );

    let run = Run {
        seed,
        scale: Some(world_cfg.recipe_scale),
        threads: 0,
        reps: TIME_REPS,
    };
    harness::summary("artifact_open", run)
        .set("mc_recipes", mc_recipes)
        .set("v2_bytes", borrowed_bytes)
        .set("overlap_sections", n_sections)
        .stat("owned_decode_ms", &decode)
        .stat("borrowed_open_ms", &open)
        .set("open_speedup", open_speedup)
        .stat("first_query_section_reuse_ms", &reuse)
        .stat("first_query_kernel_build_ms", &build)
        .set("first_query_parity", "bit-identical")
        .set("owned_resident_bytes", owned_resident)
        .set("borrowed_resident_bytes", borrowed_bytes)
        .set("borrowed_resident_bytes_no_sections", bare_bytes)
        .set("world_parity", parity_rows)
        .write("BENCH_artifact.json");
}
