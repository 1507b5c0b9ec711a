//! Reproduces **Fig 3b**: ingredient frequency-of-use (normalized by
//! the most popular ingredient) against popularity rank, with the
//! cumulative-share inset and the cross-region scaling consistency the
//! paper highlights.

use culinaria_bench::{check_args, section, world_from_env};
use culinaria_core::popularity::{
    popularity_frame, popularity_summary_frame, world_popularity_profiles,
};

fn main() {
    check_args();
    let world = world_from_env();
    let profiles = world_popularity_profiles(&world.recipes);

    section("Fig 3b — Normalized rank-frequency of ingredients per region (first 30 ranks)");
    let frame = popularity_frame(&profiles);
    println!("{}", frame.to_table_string(30));

    section("Scaling summary (inset + cross-region consistency)");
    println!("{}", popularity_summary_frame(&profiles));

    let exps: Vec<f64> = profiles.iter().filter_map(|p| p.zipf_exponent).collect();
    let mean = exps.iter().sum::<f64>() / exps.len() as f64;
    let spread = exps.iter().map(|e| (e - mean).abs()).fold(0.0f64, f64::max);
    println!("\nZipf exponents: mean {mean:.3}, max |deviation| {spread:.3} across 22 regions");
    println!(
        "-> {} (paper: \"exceptionally consistent scaling phenomenon\")",
        if spread < 0.5 {
            "consistent scaling across all cuisines"
        } else {
            "scaling varies more than expected"
        }
    );
}
