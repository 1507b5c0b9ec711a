//! Reproduces **Fig 4**: the food-pairing z-score of each of the 22
//! cuisines against the four null models (Random, Ingredient Frequency,
//! Ingredient Category, Frequency + Category), 100,000 randomized
//! recipes per model.
//!
//! Expected shape (the paper's headline results):
//! * every cuisine deviates from Random (|Z| ≫ 0) — none is
//!   indistinguishable;
//! * 16 regions positive (uniform pairing), 6 negative (contrasting):
//!   SCND, JPN, DACH, BRI, KOR, EE;
//! * the Frequency model collapses |Z| (frequency largely accounts for
//!   pairing); the Category model does not.

use culinaria_bench::{mc_config_from_env, metrics_from_env, section, world_from_env};
use culinaria_core::z_analysis::{analyses_to_frame, analyze_world_observed};
use culinaria_core::NullModel;

fn main() {
    let sink = metrics_from_env();
    let world = world_from_env();
    let cfg = mc_config_from_env();
    eprintln!(
        "monte carlo: {} recipes per model, 4 models, 22 regions",
        cfg.n_recipes
    );

    let t = std::time::Instant::now();
    let analyses = analyze_world_observed(
        &world.flavor,
        &world.recipes,
        &NullModel::ALL,
        &cfg,
        &sink.metrics,
    );
    eprintln!("analysis finished in {:.1?}", t.elapsed());

    section("Fig 4 — Food pairing z-scores per cuisine and null model");
    println!("{}", analyses_to_frame(&analyses).to_table_string(22));

    section("Sign pattern vs paper");
    let mut agree = 0;
    for a in &analyses {
        let z = a.z_random().unwrap_or(0.0);
        let observed_positive = z > 0.0;
        let paper_positive = a.region.paper_positive_pairing();
        let ok = observed_positive == paper_positive;
        if ok {
            agree += 1;
        }
        println!(
            "{:4}  z_random {:>10.1}  verdict {:11}  paper {:11}  {}",
            a.region.code(),
            z,
            a.verdict().to_string(),
            if paper_positive {
                "uniform"
            } else {
                "contrasting"
            },
            if ok { "match" } else { "MISMATCH" }
        );
    }
    println!("\nsign agreement with paper: {agree}/22");

    section("Model explanatory power (paper: frequency explains pairing; category does not)");
    // A model "reproduces" a cuisine's pairing when it removes most of
    // the deviation: |z_model| / |z_random| well below 1.
    let ratios = |model: NullModel| -> Vec<f64> {
        analyses
            .iter()
            .filter_map(|a| {
                let zr = a.against(NullModel::Random)?.z?;
                let zm = a.against(model)?.z?;
                (zr != 0.0).then(|| (zm / zr).abs())
            })
            .collect()
    };
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    for model in [
        NullModel::Frequency,
        NullModel::Category,
        NullModel::FrequencyCategory,
    ] {
        let rs = ratios(model);
        let collapsed = rs.iter().filter(|&&r| r < 0.3).count();
        println!(
            "{:22}  median |z|/|z_random| = {:.3}   reproduces pairing (<0.3) in {}/{} regions",
            model.name(),
            median(rs.clone()),
            collapsed,
            rs.len()
        );
    }
    println!(
        "\nexpected shape: Frequency (and Frequency+Category) collapse the deviation in\n\
         nearly all regions; Category alone does not."
    );
    sink.dump();
}
