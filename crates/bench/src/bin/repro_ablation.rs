//! Ablation study of the world generator's design choices (DESIGN.md
//! §5): how the Fig 4 reproduction responds to the two mechanisms that
//! create pairing structure —
//!
//! * `popularity_similarity_bias` (α) — similarity-aware popularity
//!   ranking, the carrier of the paper's "frequency explains pairing"
//!   finding;
//! * `pairing_bias` (β) — residual best/worst-of-K co-selection, the
//!   part the Frequency null cannot reproduce.
//!
//! For each configuration the harness reports the Fig 4 sign agreement
//! and the Frequency model's median |z| ratio. Expected shape: without
//! α the negative regions disappear (sign agreement drops to ~16/22);
//! without β the Frequency model reproduces pairing *exactly* (ratio →
//! ~0); with both, the paper's pattern emerges.

use culinaria_core::z_analysis::analyze_world;
use culinaria_core::{MonteCarloConfig, NullModel};
use culinaria_datagen::{generate_world, WorldConfig};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        f64::NAN
    } else {
        xs[xs.len() / 2]
    }
}

fn main() {
    culinaria_bench::check_args();
    // Ablations run at reduced scale: the effects are large.
    let scale = 0.05;
    let mc = MonteCarloConfig {
        n_recipes: 20_000,
        seed: 2018,
        n_threads: 0,
    };

    println!(
        "{:>6} {:>6} {:>14} {:>18} {:>18}",
        "alpha", "beta", "sign_agreement", "freq_median_ratio", "cat_median_ratio"
    );
    for &(alpha, beta) in &[
        (0.0, 0.0),  // no mechanism at all
        (1.4, 0.0),  // ranking only
        (0.0, 0.35), // co-selection only
        (1.4, 0.35), // the shipped configuration
        (1.4, 0.75), // heavy co-selection
        (2.8, 0.35), // extreme ranking
    ] {
        let mut cfg = WorldConfig::paper();
        cfg.recipe_scale = scale;
        cfg.popularity_similarity_bias = alpha;
        cfg.pairing_bias = beta;
        let world = generate_world(&cfg);
        let analyses = analyze_world(
            &world.flavor,
            &world.recipes,
            &[NullModel::Random, NullModel::Frequency, NullModel::Category],
            &mc,
        );
        let agreement = analyses
            .iter()
            .filter(|a| (a.z_random().unwrap_or(0.0) > 0.0) == a.region.paper_positive_pairing())
            .count();
        let ratio = |model: NullModel| -> f64 {
            median(
                analyses
                    .iter()
                    .filter_map(|a| {
                        let zr = a.against(NullModel::Random)?.z?;
                        let zm = a.against(model)?.z?;
                        (zr != 0.0).then(|| (zm / zr).abs())
                    })
                    .collect(),
            )
        };
        println!(
            "{:>6.1} {:>6.2} {:>11}/22 {:>18.3} {:>18.3}",
            alpha,
            beta,
            agreement,
            ratio(NullModel::Frequency),
            ratio(NullModel::Category)
        );
    }
    println!(
        "\nreading: alpha drives the sign pattern (and lets Frequency explain it);\n\
         beta adds the residual that keeps the Frequency match imperfect, as the\n\
         paper's \"to a large extent\" phrasing implies."
    );
}
