//! Integration: the full Fig 1 pipeline — curated flavor database →
//! raw-text import through the aliasing NLP → recipe store → pairing
//! analysis with Monte-Carlo nulls.

use culinaria::analysis::pairing::{mean_cuisine_score, OverlapCache};
use culinaria::analysis::z_analysis::analyze_cuisine;
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::flavordb::curated::curated_db;
use culinaria::recipedb::import::{Importer, RawRecipe};
use culinaria::recipedb::{RecipeStore, Region, Source};

fn raw(name: &str, region: Region, lines: &[&str]) -> RawRecipe {
    RawRecipe {
        name: name.to_owned(),
        region,
        source: Source::AllRecipes,
        ingredient_lines: lines.iter().map(|s| s.to_string()).collect(),
    }
}

/// A small but realistic Italian corpus written as free text.
fn italian_corpus() -> Vec<RawRecipe> {
    vec![
        raw(
            "marinara",
            Region::Italy,
            &[
                "3 ripe tomatoes, chopped",
                "2 cloves garlic, minced",
                "2 tbsp olive oil",
                "fresh basil leaves",
            ],
        ),
        raw(
            "caprese",
            Region::Italy,
            &["2 tomatoes, sliced", "fresh basil", "olive oil", "cheese"],
        ),
        raw(
            "herb focaccia",
            Region::Italy,
            &[
                "bread flour",
                "olive oil",
                "rosemary sprigs",
                "oregano",
                "yeast",
            ],
        ),
        raw(
            "pasta al pomodoro",
            Region::Italy,
            &["pasta", "tomato puree", "garlic", "basil", "olive oil"],
        ),
        raw(
            "wine braised beef",
            Region::Italy,
            &["1 pound beef", "red wine", "onion", "carrots", "thyme"],
        ),
        raw(
            "lemon granita",
            Region::Italy,
            &["lemon juice", "sugar", "mint leaves"],
        ),
    ]
}

#[test]
fn import_then_analyze_italian_corpus() {
    let db = curated_db();
    let importer = Importer::from_flavor_db(&db);
    let mut store = RecipeStore::new();
    let stats = importer
        .import_batch(&db, &mut store, &italian_corpus(), 1)
        .expect("import succeeds");

    // Every recipe resolves at least partially.
    assert_eq!(stats.stored, 6);
    assert_eq!(stats.dropped, 0);
    assert!(
        stats.lines_resolved >= 20,
        "resolved {}",
        stats.lines_resolved
    );

    let cuisine = store.cuisine(Region::Italy);
    assert_eq!(cuisine.n_recipes(), 6);
    // The aliasing produced multi-ingredient recipes, so pairing is
    // defined and positive on this tomato/basil/oil-heavy corpus.
    let mean = mean_cuisine_score(&db, &cuisine);
    assert!(mean > 0.0, "mean Ns {mean}");

    // Cache agrees with the direct computation.
    let cache = OverlapCache::for_cuisine(&db, &cuisine);
    let cached = cache
        .mean_cuisine_score(&cuisine)
        .expect("pool covers cuisine");
    assert!((cached - mean).abs() < 1e-12);

    // Full analysis against two nulls runs end to end.
    let analysis = analyze_cuisine(
        &db,
        &cuisine,
        &[NullModel::Random, NullModel::Frequency],
        &MonteCarloConfig {
            n_recipes: 3000,
            seed: 11,
            n_threads: 2,
        },
    )
    .expect("pairing-bearing cuisine");
    assert_eq!(analysis.region, Region::Italy);
    assert!(analysis.observed_mean > 0.0);
    assert!(analysis.z_random().is_some());
}

#[test]
fn synonyms_and_variants_map_to_the_same_ids() {
    let db = curated_db();
    let importer = Importer::from_flavor_db(&db);
    let mut store = RecipeStore::new();
    importer
        .import_batch(
            &db,
            &mut store,
            &[
                raw("a", Region::BritishIsles, &["a glass of whisky", "1 bun"]),
                raw("b", Region::BritishIsles, &["whiskey", "bread"]),
            ],
            1,
        )
        .expect("import succeeds");
    let a = store
        .recipe(culinaria::recipedb::RecipeId(0))
        .expect("stored");
    let b = store
        .recipe(culinaria::recipedb::RecipeId(1))
        .expect("stored");
    // Spelling variant and synonym collapse onto identical ingredient ids.
    assert_eq!(a.ingredients(), b.ingredients());
}

#[test]
fn curation_affects_downstream_scores() {
    // Removing a hub ingredient from the flavor DB before import
    // changes what recipes resolve to — the paper's curation loop.
    let mut db = curated_db();
    db.remove_ingredient("tomato").expect("tomato exists");
    let importer = Importer::from_flavor_db(&db);
    let mut store = RecipeStore::new();
    let stats = importer
        .import_batch(
            &db,
            &mut store,
            &[raw("t", Region::Italy, &["2 tomatoes", "basil"])],
            1,
        )
        .expect("import succeeds");
    assert_eq!(stats.stored, 1);
    let r = store
        .recipe(culinaria::recipedb::RecipeId(0))
        .expect("stored");
    // Only basil made it; tomato is gone from the lexicon.
    assert_eq!(r.size(), 1);
}
