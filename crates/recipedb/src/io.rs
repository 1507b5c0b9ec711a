//! CSV export of a [`RecipeStore`]: the human-readable companion of
//! the CRDB2 artifact ([`crate::artifact`]) that `culinaria generate`
//! writes beside it.

use crate::store::RecipeStore;

/// Export the store as CSV: `recipe_id,name,region,source,ingredients`
/// with ingredient ids `;`-joined.
pub fn to_csv(store: &RecipeStore) -> String {
    let mut out = String::from("recipe_id,name,region,source,ingredients\n");
    for r in store.recipes() {
        let ings: Vec<String> = r.ingredients().iter().map(|i| i.0.to_string()).collect();
        let name = if r.name.contains(',') || r.name.contains('"') {
            format!("\"{}\"", r.name.replace('"', "\"\""))
        } else {
            r.name.clone()
        };
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            r.id.0,
            name,
            r.region.code(),
            r.source.name(),
            ings.join(";")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::IngredientId;

    use crate::recipe::Source;
    use crate::region::Region;

    fn ing(id: u32) -> IngredientId {
        IngredientId(id)
    }

    fn store() -> RecipeStore {
        let mut s = RecipeStore::new();
        s.add_recipe(
            "pasta, fresh",
            Region::Italy,
            Source::Epicurious,
            vec![ing(0), ing(1)],
        )
        .unwrap();
        s.add_recipe(
            "sushi",
            Region::Japan,
            Source::AllRecipes,
            vec![ing(2), ing(3), ing(4)],
        )
        .unwrap();
        s
    }

    #[test]
    fn csv_export_shape() {
        let csv = to_csv(&store());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "recipe_id,name,region,source,ingredients");
        assert!(lines[1].contains("\"pasta, fresh\""));
        assert!(lines[1].contains("ITA"));
        assert!(lines[2].contains("2;3;4"));
    }
}
