//! Ingredient-popularity scaling (Fig 3b).
//!
//! For each cuisine the paper plots the frequency of use of every
//! ingredient, normalized by the most popular one, against popularity
//! rank, and finds an "exceptionally consistent scaling phenomenon"
//! across all 22 regions. We expose the per-region normalized
//! rank-frequency series, the cumulative-share inset, and the fitted
//! Zipf exponent used to compare regions quantitatively.

use culinaria_recipedb::{Cuisine, RecipeStore, Region};
use culinaria_stats::powerlaw::{cumulative_share, rank_frequency, zipf_exponent};
use culinaria_tabular::{Column, Frame};

/// The popularity profile of one cuisine.
#[derive(Debug, Clone, PartialEq)]
pub struct PopularityProfile {
    /// The region.
    pub region: Region,
    /// Normalized rank-frequency series (rank 1 first, value 1.0).
    pub rank_frequency: Vec<f64>,
    /// Cumulative share of usage covered by the top-k ranks.
    pub cumulative_share: Vec<f64>,
    /// Fitted Zipf exponent (log-log OLS); `None` for degenerate
    /// cuisines.
    pub zipf_exponent: Option<f64>,
}

/// Compute the popularity profile of a cuisine.
pub fn popularity_profile(cuisine: &Cuisine<'_>) -> PopularityProfile {
    let freqs: Vec<u64> = cuisine.frequencies().into_values().collect();
    PopularityProfile {
        region: cuisine.region(),
        rank_frequency: rank_frequency(&freqs),
        cumulative_share: cumulative_share(&freqs),
        zipf_exponent: zipf_exponent(&freqs).map(|(s, _)| s),
    }
}

/// Profiles for every populated region.
pub fn world_popularity_profiles(store: &RecipeStore) -> Vec<PopularityProfile> {
    store
        .regions()
        .into_iter()
        .map(|r| popularity_profile(&store.cuisine(r)))
        .collect()
}

/// Fig 3b as a frame: `rank` plus one normalized-frequency column per
/// region (rows truncated to the shortest region's rank count so the
/// frame is rectangular; the paper's plot is log-log over shared
/// ranks).
pub fn popularity_frame(profiles: &[PopularityProfile]) -> Frame {
    let n_ranks = profiles
        .iter()
        .map(|p| p.rank_frequency.len())
        .min()
        .unwrap_or(0);
    let mut f = Frame::new();
    let ranks: Vec<i64> = (1..=n_ranks as i64).collect();
    f.add_column("rank", Column::from_i64s(&ranks))
        .expect("fresh frame");
    for p in profiles {
        f.add_column(
            p.region.code(),
            Column::from_f64s(&p.rank_frequency[..n_ranks]),
        )
        .expect("region codes unique");
    }
    f
}

/// Summary frame: per-region Zipf exponent and top-10 cumulative share.
pub fn popularity_summary_frame(profiles: &[PopularityProfile]) -> Frame {
    let mut f = Frame::new();
    let codes: Vec<&str> = profiles.iter().map(|p| p.region.code()).collect();
    f.add_column("region", Column::from_strs(&codes))
        .expect("fresh frame");
    let zipf: Vec<Option<f64>> = profiles.iter().map(|p| p.zipf_exponent).collect();
    f.add_column("zipf_exponent", Column::Float(zipf))
        .expect("fresh column");
    let top10: Vec<Option<f64>> = profiles
        .iter()
        .map(|p| {
            let k = 10.min(p.cumulative_share.len());
            (k > 0).then(|| p.cumulative_share[k - 1])
        })
        .collect();
    f.add_column("top10_share", Column::Float(top10))
        .expect("fresh column");
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_datagen::{generate_world, WorldConfig};

    #[test]
    fn profiles_normalized_and_monotone() {
        let w = generate_world(&WorldConfig::tiny());
        for p in world_popularity_profiles(&w.recipes) {
            assert_eq!(p.rank_frequency[0], 1.0, "{}", p.region);
            for pair in p.rank_frequency.windows(2) {
                assert!(pair[0] >= pair[1], "{} not sorted", p.region);
            }
            let last = *p.cumulative_share.last().unwrap();
            assert!((last - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scaling_is_consistent_across_regions() {
        // The paper's Fig 3b point: every region shows the same scaling.
        let w = generate_world(&WorldConfig::tiny());
        let exps: Vec<f64> = world_popularity_profiles(&w.recipes)
            .iter()
            .filter_map(|p| p.zipf_exponent)
            .collect();
        assert_eq!(exps.len(), 22);
        let mean = exps.iter().sum::<f64>() / exps.len() as f64;
        for e in &exps {
            assert!(
                (e - mean).abs() < 0.5,
                "exponent {e} far from cross-region mean {mean}"
            );
        }
        assert!(
            mean > 0.3,
            "rank curves should decay (mean exponent {mean})"
        );
    }

    #[test]
    fn frames_are_rectangular() {
        let w = generate_world(&WorldConfig::tiny());
        let profiles = world_popularity_profiles(&w.recipes);
        let f = popularity_frame(&profiles);
        assert_eq!(f.n_cols(), 23); // rank + 22 regions
        assert!(f.n_rows() > 0);
        let s = popularity_summary_frame(&profiles);
        assert_eq!(s.n_rows(), 22);
        assert!(s.column("zipf_exponent").is_ok());
    }

    #[test]
    fn empty_profiles_give_empty_frame() {
        let f = popularity_frame(&[]);
        assert_eq!(f.n_rows(), 0);
    }
}
