//! Reproduces **Table 1**: recipes and unique ingredients per region,
//! plus the aggregate totals the paper quotes in the text.

use culinaria_bench::{check_args, section, world_from_env};
use culinaria_recipedb::Region;
use culinaria_tabular::{Column, Frame};

fn main() {
    check_args();
    let world = world_from_env();

    section("Table 1 — Statistics of recipes and ingredients across world cuisines");
    let mut names = Vec::new();
    let mut codes = Vec::new();
    let mut recipes = Vec::new();
    let mut ingredients = Vec::new();
    let mut paper_recipes = Vec::new();
    let mut paper_ingredients = Vec::new();
    for region in Region::ALL {
        let cuisine = world.recipes.cuisine(region);
        names.push(region.name());
        codes.push(region.code());
        recipes.push(cuisine.n_recipes() as i64);
        ingredients.push(cuisine.ingredient_set().len() as i64);
        paper_recipes.push(region.paper_recipe_count() as i64);
        paper_ingredients.push(region.paper_ingredient_count() as i64);
    }
    let frame = Frame::from_columns(vec![
        ("region", Column::from_strs(&names)),
        ("code", Column::from_strs(&codes)),
        ("recipes", Column::from_i64s(&recipes)),
        ("ingredients", Column::from_i64s(&ingredients)),
        ("paper_recipes", Column::from_i64s(&paper_recipes)),
        ("paper_ingredients", Column::from_i64s(&paper_ingredients)),
    ])
    .expect("static frame construction");
    println!("{frame}");

    section("Aggregate");
    let total: i64 = recipes.iter().sum();
    let distinct = world.recipes.n_distinct_ingredients();
    let mean_ing = ingredients.iter().sum::<i64>() as f64 / 22.0;
    println!("total recipes (22 regions): {total}");
    println!("paper total (22 regions):   45565 (45772 incl. 207 minor-region recipes)");
    println!("distinct ingredients used:  {distinct}");
    println!("mean unique ingredients per region: {mean_ing:.1} (paper: 321)");
    let min = Region::ALL
        .iter()
        .min_by_key(|r| world.recipes.n_region_recipes(**r))
        .expect("22 regions");
    let max = Region::ALL
        .iter()
        .max_by_key(|r| world.recipes.n_region_recipes(**r))
        .expect("22 regions");
    println!(
        "smallest cuisine: {} ({} recipes; paper: Korea, 301)",
        min.code(),
        world.recipes.n_region_recipes(*min)
    );
    println!(
        "largest cuisine:  {} ({} recipes; paper: USA, 16118)",
        max.code(),
        world.recipes.n_region_recipes(*max)
    );
}
