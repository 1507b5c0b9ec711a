//! Food-design application the paper motivates: generate *novel flavor
//! pairings* — ingredient pairs with high flavor-compound overlap that
//! a cuisine rarely uses together — and suggest recipe tweaks.
//!
//! For a chosen cuisine, every ingredient pair is scored by
//! `overlap / (1 + co-occurrence)`: high overlap (the food-pairing
//! hypothesis says they should taste well together) but low observed
//! co-usage (so the pairing is actually novel for that cuisine).
//!
//! Opens the zero-copy CFDB2/CRDB2 artifacts when a data directory
//! holds them — reusing the artifact's precomputed overlap-triangle
//! section for the region when `culinaria migrate-artifact` attached
//! one — and falls back to generating a small world otherwise.
//!
//! ```sh
//! cargo run --release --example novel_pairings
//! ```

use std::path::Path;

use culinaria::analysis::pairing::{novel_pairings, OverlapCache};
use culinaria::analysis::{CuisineView, FlavorViewRef};
use culinaria::datagen::{generate_world, WorldConfig};
use culinaria::flavordb::{artifact as flavor_artifact, AlignedBytes, IngredientId};
use culinaria::obs::Metrics;
use culinaria::recipedb::{artifact as recipe_artifact, RecipeId, Region};

/// The region's overlap cache: the artifact's precomputed section when
/// it matches the cuisine pool, a fresh kernel build otherwise.
fn overlap_cache(flavor: FlavorViewRef<'_>, region: Region, pool: &[IngredientId]) -> OverlapCache {
    match flavor.overlap_section(region.code()) {
        Some((sec_pool, tri)) if sec_pool == pool => {
            println!("(reusing the artifact's {} overlap section)", region.code());
            OverlapCache::from_parts(pool, tri.to_vec()).expect("section triangle shape")
        }
        _ => OverlapCache::try_build(flavor, pool, 0, &Metrics::disabled()).expect("usable pool"),
    }
}

fn run<'r>(
    flavor: FlavorViewRef<'_>,
    cuisine: &CuisineView<'_>,
    recipes: impl Iterator<Item = &'r [IngredientId]>,
) {
    let region = cuisine.region();
    let pool = cuisine.ingredient_set();
    let cache = overlap_cache(flavor, region, &pool);

    println!(
        "novel pairing candidates for {} ({} ingredients, {} recipes)\n",
        region.name(),
        pool.len(),
        cuisine.n_recipes()
    );

    let mut candidates = novel_pairings(&cache, recipes);

    let name = |idx: u32| flavor.ingredient_name(pool[idx as usize]).expect("live id");
    println!("{:>8} {:>8} {:>6}   pair", "novelty", "overlap", "cooc");
    for c in candidates.iter().take(15) {
        println!(
            "{:>8.1} {:>8} {:>6}   {} + {}",
            c.novelty,
            c.overlap,
            c.cooc,
            name(c.i),
            name(c.j)
        );
    }

    // The flip side: the cuisine's signature pairings (high overlap AND
    // high co-occurrence) — its culinary fingerprint.
    candidates.sort_by_key(|c| std::cmp::Reverse(u64::from(c.overlap) * c.cooc));
    println!("\nsignature pairings (culinary fingerprint):");
    for c in candidates.iter().take(5) {
        println!(
            "  {} + {}  (overlap {}, used together {}×)",
            name(c.i),
            name(c.j),
            c.overlap,
            c.cooc
        );
    }
}

fn main() {
    let dir = std::env::var("CULINARIA_DATA").unwrap_or_else(|_| "culinaria-data".to_string());
    let dir = Path::new(&dir);
    let region = Region::Italy;

    // Zero-copy path: validate once, borrow everything.
    if let (Ok(fbuf), Ok(rbuf)) = (
        AlignedBytes::read_file(dir.join("flavor.cfdb2")),
        AlignedBytes::read_file(dir.join("recipes.crdb2")),
    ) {
        if let (Ok(flavor), Ok(recipes)) = (
            flavor_artifact::open(fbuf.as_slice()),
            recipe_artifact::open(rbuf.as_slice()),
        ) {
            println!("opened zero-copy artifacts in {}", dir.display());
            let cuisine = CuisineView::from(recipes.cuisine(region));
            let all = (0..recipes.n_recipes())
                .filter_map(|i| recipes.recipe_ingredients(RecipeId(i as u32)));
            run(FlavorViewRef::Artifact(&flavor), &cuisine, all);
            return;
        }
    }

    let world = generate_world(&WorldConfig::small());
    let cuisine = CuisineView::from(world.recipes.cuisine(region));
    let all = world.recipes.recipes().map(|r| r.ingredients());
    run(FlavorViewRef::Owned(&world.flavor), &cuisine, all);
}
