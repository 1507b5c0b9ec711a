//! The full text-to-analysis pipeline on real-looking recipes: free-text
//! ingredient lines → aliasing NLP → flavor-database ids → pairing
//! score — exactly the paper's Fig 1 flow, using the curated fixture
//! that embeds every ingredient the paper names.
//!
//! ```sh
//! cargo run --release --example recipe_import
//! ```

use culinaria::analysis::pairing::recipe_pairing_score;
use culinaria::analysis::taste::recipe_taste;
use culinaria::flavordb::curated::curated_db;
use culinaria::recipedb::import::{Importer, RawRecipe};
use culinaria::recipedb::{RecipeStore, Region, Source};

fn raw(name: &str, region: Region, lines: &[&str]) -> RawRecipe {
    RawRecipe {
        name: name.to_owned(),
        region,
        source: Source::Epicurious,
        ingredient_lines: lines.iter().map(|s| s.to_string()).collect(),
    }
}

fn main() {
    let db = curated_db();
    let importer = Importer::from_flavor_db(&db);
    let mut store = RecipeStore::new();

    let recipes = vec![
        raw(
            "marinara sauce",
            Region::Italy,
            &[
                "3 ripe tomatoes, peeled and finely chopped",
                "2 cloves garlic, minced",
                "2 tbsp extra-virgin olive-oil",
                "fresh basil leaves, torn",
                "a pinch of dried oregano",
            ],
        ),
        raw(
            "masala chai spice mix",
            Region::IndianSubcontinent,
            &[
                "4 cardamom pods, crushed",
                "1 cinnamon stick",
                "2 cloves",
                "1 inch ginger, grated",
                "a pinch of hing", // synonym of asafoetida
            ],
        ),
        raw(
            "smoky highball",
            Region::Usa,
            &[
                "2 oz whisky", // spelling variant of whiskey
                "1 dash liquid smoke",
                "lemon juice to taste",
            ],
        ),
        raw(
            "mystery dish",
            Region::Usa,
            &["2 cups flambotzium crystals"], // resolves to nothing
        ),
    ];

    let stats = importer
        .import_batch(&db, &mut store, &recipes, 1)
        .expect("import never fails structurally");

    println!(
        "import: {}/{} recipes stored, {} dropped",
        stats.stored, stats.offered, stats.dropped
    );
    println!(
        "lines: {} resolved, {} unresolved",
        stats.lines_resolved, stats.lines_unresolved
    );
    println!(
        "unresolved tokens flagged for curation: {:?}",
        stats.unresolved_tokens
    );

    println!("\nimported recipes:");
    for recipe in store.recipes() {
        let names: Vec<&str> = recipe
            .ingredients()
            .iter()
            .map(|&id| db.ingredient(id).expect("live id").name.as_str())
            .collect();
        let ns = recipe_pairing_score(&db, recipe.ingredients());
        // "Could it be possible to enumerate the taste of a recipe?"
        let taste = recipe_taste(&db, recipe.ingredients());
        let dominant: Vec<String> = taste
            .dominant(3)
            .into_iter()
            .map(|(d, s)| format!("{d} {:.0}%", s * 100.0))
            .collect();
        println!(
            "  {:22} [{}]  Ns = {:.2}  ({})",
            recipe.name,
            recipe.region.code(),
            ns,
            names.join(", ")
        );
        println!("    taste: {}", dominant.join(", "));
    }
}
