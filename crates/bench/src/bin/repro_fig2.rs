//! Reproduces **Fig 2**: the region × category composition heatmap,
//! and checks the deviations the paper narrates (dairy-over-vegetable
//! regions; spice-predominant regions).

use culinaria_bench::{check_args, section, world_from_env};
use culinaria_core::composition::{
    category_shares, composition_deviation_frame, composition_frame,
};
use culinaria_flavordb::Category;
use culinaria_recipedb::Region;

fn main() {
    check_args();
    let world = world_from_env();

    section("Fig 2 — Compositions of recipes in terms of ingredient categories");
    let frame = composition_frame(&world.flavor, &world.recipes);
    println!("{}", frame.to_table_string(23));

    section("Deviation from WORLD composition (χ² goodness-of-fit per region)");
    println!(
        "{}",
        composition_deviation_frame(&world.flavor, &world.recipes).to_table_string(22)
    );

    section("Paper narrative checks");
    // "France, British Isles, and Scandinavia regions use dairy
    // products more prominently than vegetables."
    for region in [Region::France, Region::BritishIsles, Region::Scandinavia] {
        let shares = category_shares(&world.flavor, &world.recipes.cuisine(region));
        let dairy = shares[Category::Dairy.index()];
        let veg = shares[Category::Vegetable.index()];
        println!(
            "{:4}  dairy {:.3} vs vegetable {:.3}  -> {}",
            region.code(),
            dairy,
            veg,
            if dairy > veg {
                "dairy-led (matches paper)"
            } else {
                "MISMATCH"
            }
        );
    }
    // "Among regions with predominant use of spice were Indian
    // Subcontinent, Africa, Middle East, and Caribbean."
    for region in [
        Region::IndianSubcontinent,
        Region::Africa,
        Region::MiddleEast,
        Region::Caribbean,
    ] {
        let shares = category_shares(&world.flavor, &world.recipes.cuisine(region));
        let spice = shares[Category::Spice.index()];
        let top = shares.iter().cloned().fold(0.0, f64::max);
        println!(
            "{:4}  spice share {:.3} (top category share {:.3})  -> {}",
            region.code(),
            spice,
            top,
            if (spice - top).abs() < 1e-12 {
                "spice-predominant (matches paper)"
            } else {
                "spice-forward"
            }
        );
    }
}
