//! Ingredient contribution to a cuisine's flavor sharing (Fig 5).
//!
//! The paper measures each ingredient's contribution as the *percentage
//! change in the cuisine's food-pairing score* when the ingredient is
//! removed from the cuisine: every recipe drops the ingredient, and
//! recipes left with fewer than two ingredients stop contributing.
//!
//! The naive computation rescoring the full cuisine per ingredient is
//! O(|pool| × Σ n_R²); this implementation only rescores the recipes
//! that actually contain the ingredient (via the cuisine's recipe list)
//! and reuses the [`OverlapCache`], bringing the sweep to
//! O(Σ_{i} Σ_{R ∋ i} n_R²) cache lookups.

use culinaria_flavordb::{FlavorDb, IngredientId};
use culinaria_recipedb::Cuisine;
use culinaria_tabular::{Column, Frame};

use crate::pairing::OverlapCache;

/// Contribution of one ingredient.
#[derive(Debug, Clone, PartialEq)]
pub struct Contribution {
    /// The ingredient.
    pub ingredient: IngredientId,
    /// Canonical name.
    pub name: String,
    /// Percentage change of ⟨N_s⟩ caused by *removing* the ingredient,
    /// sign-flipped so that a positive value means the ingredient
    /// *raises* the cuisine's flavor sharing:
    /// `100 · (⟨N_s⟩_with − ⟨N_s⟩_without) / ⟨N_s⟩_with`.
    pub percent_change: f64,
    /// Number of recipes using the ingredient.
    pub n_recipes: usize,
}

/// Compute contributions for every ingredient of the cuisine.
///
/// Returns an empty vector when the cuisine mean is zero (no pairing
/// signal to perturb).
pub fn ingredient_contributions(db: &FlavorDb, cuisine: &Cuisine<'_>) -> Vec<Contribution> {
    let cache = OverlapCache::for_cuisine(db, cuisine);
    // Per-recipe local-index lists and scores for the full cuisine.
    let mut recipe_locals: Vec<Vec<u32>> = Vec::new();
    for r in cuisine.recipes() {
        if r.size() < 2 {
            continue;
        }
        let locals: Vec<u32> = r
            .ingredients()
            .iter()
            .map(|&id| cache.local_index(id).expect("pool covers cuisine"))
            .collect();
        recipe_locals.push(locals);
    }
    let n_scored = recipe_locals.len();
    if n_scored == 0 {
        return Vec::new();
    }
    let scores: Vec<f64> = recipe_locals.iter().map(|l| cache.score_local(l)).collect();
    let total: f64 = scores.iter().sum();
    let base_mean = total / n_scored as f64;
    if base_mean == 0.0 {
        return Vec::new();
    }

    // Recipes containing each pool ingredient (by local index).
    let mut containing: Vec<Vec<u32>> = vec![Vec::new(); cache.len()];
    for (ri, locals) in recipe_locals.iter().enumerate() {
        for &l in locals {
            containing[l as usize].push(ri as u32);
        }
    }

    let mut out = Vec::with_capacity(cache.len());
    let mut scratch: Vec<u32> = Vec::new();
    for (local, recipes) in containing.iter().enumerate() {
        let ingredient = cache.pool()[local];
        // Rescore only affected recipes with the ingredient dropped.
        let mut new_total = total;
        let mut new_count = n_scored;
        for &ri in recipes {
            let locals = &recipe_locals[ri as usize];
            scratch.clear();
            scratch.extend(locals.iter().copied().filter(|&l| l != local as u32));
            new_total -= scores[ri as usize];
            if scratch.len() >= 2 {
                new_total += cache.score_local(&scratch);
            } else {
                new_count -= 1;
            }
        }
        let without_mean = if new_count == 0 {
            0.0
        } else {
            new_total / new_count as f64
        };
        let percent_change = 100.0 * (base_mean - without_mean) / base_mean;
        out.push(Contribution {
            ingredient,
            name: db
                .ingredient(ingredient)
                .expect("live ingredient")
                .name
                .clone(),
            percent_change,
            n_recipes: recipes.len(),
        });
    }
    out
}

/// The top `k` contributors. With `to_positive = true`, the ingredients
/// whose removal most *decreases* flavor sharing (Fig 5a, the pillars of
/// uniform pairing); with `false`, those whose removal most *increases*
/// it (Fig 5b, the pillars of contrasting pairing).
pub fn top_contributors(
    db: &FlavorDb,
    cuisine: &Cuisine<'_>,
    k: usize,
    to_positive: bool,
) -> Vec<Contribution> {
    let mut all = ingredient_contributions(db, cuisine);
    all.sort_by(|a, b| {
        let ord = a.percent_change.total_cmp(&b.percent_change);
        if to_positive {
            ord.reverse()
        } else {
            ord
        }
    });
    all.truncate(k);
    all
}

/// Render contributions as a frame (`ingredient`, `percent_change`,
/// `n_recipes`).
pub fn contributions_to_frame(contributions: &[Contribution]) -> Frame {
    let mut f = Frame::new();
    let names: Vec<&str> = contributions.iter().map(|c| c.name.as_str()).collect();
    f.add_column("ingredient", Column::from_strs(&names))
        .expect("fresh frame");
    f.add_column(
        "percent_change",
        Column::from_f64s(
            &contributions
                .iter()
                .map(|c| c.percent_change)
                .collect::<Vec<_>>(),
        ),
    )
    .expect("fresh column");
    f.add_column(
        "n_recipes",
        Column::from_i64s(
            &contributions
                .iter()
                .map(|c| c.n_recipes as i64)
                .collect::<Vec<_>>(),
        ),
    )
    .expect("fresh column");
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::mean_cuisine_score;
    use culinaria_flavordb::{Category, MoleculeId};
    use culinaria_recipedb::{RecipeStore, Region, Source};

    /// glue (id 0) shares molecules with everything; loners share
    /// nothing with anything.
    fn fixture() -> (FlavorDb, RecipeStore) {
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(40);
        db.add_ingredient("glue", Category::Spice, (0..10).map(MoleculeId).collect())
            .unwrap();
        for i in 0..4u32 {
            // Each loner: molecule 0 (shared with glue) + private ones.
            let mut mols = vec![MoleculeId(i % 10)];
            mols.extend((10 + i * 5..10 + i * 5 + 4).map(MoleculeId));
            db.add_ingredient(&format!("loner{i}"), Category::Vegetable, mols)
                .unwrap();
        }
        let mut store = RecipeStore::new();
        let ing = |i: u32| IngredientId(i);
        store
            .add_recipe(
                "a",
                Region::Italy,
                Source::Synthetic,
                vec![ing(0), ing(1), ing(2)],
            )
            .unwrap();
        store
            .add_recipe(
                "b",
                Region::Italy,
                Source::Synthetic,
                vec![ing(0), ing(3), ing(4)],
            )
            .unwrap();
        store
            .add_recipe("c", Region::Italy, Source::Synthetic, vec![ing(1), ing(3)])
            .unwrap();
        (db, store)
    }

    #[test]
    fn glue_ingredient_has_largest_positive_contribution() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let contributions = ingredient_contributions(&db, &cuisine);
        assert_eq!(contributions.len(), 5);
        let glue = contributions
            .iter()
            .find(|c| c.name == "glue")
            .expect("glue present");
        // Removing the high-overlap hub must reduce the mean: positive
        // percent_change under our sign convention.
        assert!(glue.percent_change > 0.0);
        // And it should be the top positive contributor.
        let top = top_contributors(&db, &cuisine, 1, true);
        assert_eq!(top[0].name, "glue");
        assert_eq!(top[0].n_recipes, 2);
    }

    #[test]
    fn contributions_match_brute_force() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let base = mean_cuisine_score(&db, &cuisine);
        for c in ingredient_contributions(&db, &cuisine) {
            // Brute force: rebuild the cuisine without the ingredient.
            let mut without = RecipeStore::new();
            for r in cuisine.recipes() {
                let ings: Vec<IngredientId> = r
                    .ingredients()
                    .iter()
                    .copied()
                    .filter(|&i| i != c.ingredient)
                    .collect();
                if !ings.is_empty() {
                    without
                        .add_recipe(&r.name, r.region, r.source, ings)
                        .unwrap();
                }
            }
            // Brute-force mean over recipes of size ≥ 2.
            let wc = without.cuisine(Region::Italy);
            let mut total = 0.0;
            let mut n = 0;
            for r in wc.recipes() {
                if r.size() >= 2 {
                    total += crate::pairing::recipe_pairing_score(&db, r.ingredients());
                    n += 1;
                }
            }
            let without_mean = if n == 0 { 0.0 } else { total / n as f64 };
            let expected = 100.0 * (base - without_mean) / base;
            assert!(
                (c.percent_change - expected).abs() < 1e-9,
                "{}: {} vs {}",
                c.name,
                c.percent_change,
                expected
            );
        }
    }

    #[test]
    fn negative_direction_sorting() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let neg = top_contributors(&db, &cuisine, 5, false);
        let pos = top_contributors(&db, &cuisine, 5, true);
        assert_eq!(neg.len(), 5);
        // Opposite orderings (compare values: ties make names ambiguous).
        assert_eq!(
            neg.first().unwrap().percent_change,
            pos.last().unwrap().percent_change
        );
        // k truncation.
        assert_eq!(top_contributors(&db, &cuisine, 2, true).len(), 2);
    }

    #[test]
    fn empty_cuisine_yields_empty() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Japan);
        assert!(ingredient_contributions(&db, &cuisine).is_empty());
    }

    #[test]
    fn frame_rendering() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let f = contributions_to_frame(&top_contributors(&db, &cuisine, 3, true));
        assert_eq!(f.n_rows(), 3);
        assert!(f.column("ingredient").is_ok());
        assert!(f.column("percent_change").is_ok());
    }
}
