//! Reproduces **Fig 3a**: the recipe-size distribution and its
//! cumulative inset, pooled and per region.

use culinaria_bench::{check_args, section, world_from_env};
use culinaria_core::size_dist::{size_distribution_frame, size_histogram, world_size_histogram};
use culinaria_recipedb::Region;

fn main() {
    check_args();
    let world = world_from_env();

    section("Fig 3a — Recipe size distribution (P(s) per region, WORLD pooled + cumulative)");
    let frame = size_distribution_frame(&world.recipes);
    println!("{}", frame.to_table_string(40));

    section("Summary statistics");
    let h = world_size_histogram(&world.recipes);
    println!(
        "WORLD: mean {:.2} (paper: ~9), mode {}, range {}..{}, recipes {}",
        h.mean().expect("non-empty world"),
        h.mode().expect("non-empty world"),
        h.min().expect("non-empty world"),
        h.max().expect("non-empty world"),
        h.total()
    );
    let cdf = h.cumulative();
    println!(
        "cumulative: P(s<=5) {:.3}, P(s<=9) {:.3}, P(s<=15) {:.3} — bounded, thin-tailed",
        cdf.at(5),
        cdf.at(9),
        cdf.at(15)
    );

    section("Per-region means (generic pattern across cuisines)");
    for region in Region::ALL {
        let rh = size_histogram(&world.recipes.cuisine(region));
        println!(
            "{:4}  mean {:.2}  mode {:2}  max {:2}",
            region.code(),
            rh.mean().unwrap_or(0.0),
            rh.mode().unwrap_or(0),
            rh.max().unwrap_or(0)
        );
    }
}
