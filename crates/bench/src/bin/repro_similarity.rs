//! Supplementary analysis: culinary fingerprints and cuisine
//! similarity — the paper's "regional cuisines are like languages"
//! analogy made quantitative. Computes the pairwise cosine-similarity
//! matrix over ingredient-usage fingerprints and an average-linkage
//! clustering of the 22 cuisines.

use culinaria_bench::{check_args, section, world_from_env};
use culinaria_core::fingerprint::{
    agglomerate, cosine_similarity, similarity_matrix, world_fingerprints,
};

fn main() {
    check_args();
    let world = world_from_env();
    let fingerprints = world_fingerprints(&world.flavor, &world.recipes, 0);

    section("Cuisine similarity matrix (cosine over ingredient-usage fingerprints)");
    println!("{}", similarity_matrix(&fingerprints).to_table_string(22));

    section("Nearest neighbour per cuisine");
    for (i, fa) in fingerprints.iter().enumerate() {
        let mut best: Option<(f64, &str)> = None;
        for (j, fb) in fingerprints.iter().enumerate() {
            if i == j {
                continue;
            }
            let s = cosine_similarity(fa, fb);
            if best.is_none_or(|(b, _)| s > b) {
                best = Some((s, fb.region.code()));
            }
        }
        let (s, code) = best.expect("22 regions");
        println!("{:4} -> {:4}  ({s:.3})", fa.region.code(), code);
    }

    section("Average-linkage clustering (merge order, most similar first)");
    for (k, m) in agglomerate(&fingerprints).iter().enumerate() {
        let left: Vec<&str> = m.left.iter().map(|r| r.code()).collect();
        let right: Vec<&str> = m.right.iter().map(|r| r.code()).collect();
        println!(
            "{:>2}. [{}] + [{}]  @ {:.3}",
            k + 1,
            left.join(","),
            right.join(","),
            m.similarity
        );
    }
}
