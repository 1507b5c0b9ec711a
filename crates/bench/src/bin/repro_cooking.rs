//! Extension experiment (paper §V): *"How to incorporate transformation
//! of flavor in the process of cooking?"* — the cooking model's effect
//! on pairing scores across methods, on the generated world.

use culinaria_bench::{check_args, section, world_from_env};
use culinaria_core::cooking::{CookingMethod, Kitchen};
use culinaria_core::pairing::recipe_pairing_score;
use culinaria_recipedb::Region;

fn main() {
    check_args();
    let world = world_from_env();
    let kitchen = Kitchen::new(&world.flavor);

    section("Pairing under uniform cooking methods (mean over 200 recipes/region)");
    println!(
        "{:4}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "reg", "raw", "boiled", "roasted", "fried", "smoked", "ferment"
    );
    for region in [
        Region::Italy,
        Region::France,
        Region::Japan,
        Region::Scandinavia,
        Region::IndianSubcontinent,
        Region::Usa,
    ] {
        let cuisine = world.recipes.cuisine(region);
        let mut means = [0.0f64; 6];
        let mut n = 0usize;
        for r in cuisine.recipes().iter().take(200) {
            if r.size() < 2 {
                continue;
            }
            n += 1;
            for (slot, &method) in CookingMethod::ALL.iter().enumerate() {
                let prepared: Vec<_> = r.ingredients().iter().map(|&i| (i, method)).collect();
                means[slot] += kitchen.prepared_pairing_score(&prepared);
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        println!(
            "{:4}  {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            region.code(),
            means[0],
            means[1],
            means[2],
            means[3],
            means[4],
            means[5]
        );
    }

    section("Findings");
    let cuisine = world.recipes.cuisine(Region::Japan);
    let recipe = cuisine
        .recipes()
        .iter()
        .find(|r| r.size() >= 4)
        .expect("populated cuisine");
    let raw = recipe_pairing_score(kitchen.db(), recipe.ingredients());
    let roasted: Vec<_> = recipe
        .ingredients()
        .iter()
        .map(|&i| (i, CookingMethod::Roasted))
        .collect();
    println!(
        "browning methods homogenize flavor (shared Maillard signature lifts every\n\
         cuisine's score — e.g. one JPN recipe: raw {raw:.3} -> roasted {:.3});\n\
         boiling strips volatiles and lowers pairing without adding any. A cooked\n\
         corpus would therefore shift Fig 4 toward uniform pairing — a concrete,\n\
         testable prediction of the §V question.",
        kitchen.prepared_pairing_score(&roasted)
    );
}
