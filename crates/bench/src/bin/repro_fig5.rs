//! Reproduces **Fig 5**: the top-3 ingredients contributing to (a) the
//! positive food pairing of uniform-blend cuisines and (b) the negative
//! food pairing of contrasting-blend cuisines, measured as the
//! percentage change in the cuisine's pairing score on removal.

use culinaria_bench::{check_args, section, world_from_env};
use culinaria_core::contribution::top_contributors;
use culinaria_recipedb::Region;

fn main() {
    check_args();
    let world = world_from_env();

    section("Fig 5(a) — Top 3 ingredients contributing to POSITIVE food pairing");
    for region in Region::ALL.iter().filter(|r| r.paper_positive_pairing()) {
        let cuisine = world.recipes.cuisine(*region);
        let top = top_contributors(&world.flavor, &cuisine, 3, true);
        let rendered: Vec<String> = top
            .iter()
            .map(|c| format!("{} ({:+.2}%)", c.name, c.percent_change))
            .collect();
        println!("{:4}  {}", region.code(), rendered.join(", "));
    }

    section("Fig 5(b) — Top 3 ingredients contributing to NEGATIVE food pairing");
    for region in Region::ALL.iter().filter(|r| !r.paper_positive_pairing()) {
        let cuisine = world.recipes.cuisine(*region);
        let top = top_contributors(&world.flavor, &cuisine, 3, false);
        let rendered: Vec<String> = top
            .iter()
            .map(|c| format!("{} ({:+.2}%)", c.name, c.percent_change))
            .collect();
        println!("{:4}  {}", region.code(), rendered.join(", "));
    }

    section("Note");
    println!(
        "Ingredient names are synthetic (syn-<rank>-<category>); the paper's real names\n\
         require the proprietary CulinaryDB corpus. The *structure* matches Fig 5: each\n\
         cuisine has a small set of high-frequency ingredients whose removal shifts the\n\
         pairing score by several percent."
    );
}
