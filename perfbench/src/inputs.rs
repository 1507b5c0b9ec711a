//! Workload inputs, made from the workload seed alone (plus, for the
//! serve workloads, the dataset the same seed generates). The program
//! under test only ever sees these inputs and its flags.

use std::collections::HashSet;

use culinaria::analysis::{FlavorViewRef, RecipesViewRef};
use culinaria::flavordb::FlavorDb;
use culinaria::recipedb::{RawRecipe, Region, Source};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Draws ranks `0..n` with Zipf(1) popularity.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        Zipf(
            (1..=n)
                .map(|k| {
                    acc += 1.0 / k as f64;
                    acc
                })
                .collect(),
        )
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let total = self.0.last().copied().unwrap_or(0.0);
        let u = rng.unit() * total;
        self.0.partition_point(|&c| c <= u).min(self.0.len() - 1)
    }
}

/// What the serve request generators need to know about the dataset.
#[derive(Debug, Clone)]
pub struct ServeWorld {
    /// Regions with at least eight ingredients: (region, ingredient-id
    /// pool, names of the pool's ingredients).
    pub regions: Vec<(Region, Vec<u32>, Vec<String>)>,
}

impl ServeWorld {
    pub fn from_views(flavor: FlavorViewRef<'_>, recipes: RecipesViewRef<'_>) -> ServeWorld {
        let regions = recipes
            .regions()
            .into_iter()
            .filter_map(|r| {
                let pool = recipes.cuisine(r).ingredient_set();
                let names: Vec<String> = pool
                    .iter()
                    .filter_map(|&id| flavor.ingredient_name(id).map(str::to_owned))
                    .collect();
                (pool.len() >= 8 && names.len() == pool.len())
                    .then(|| (r, pool.iter().map(|id| id.0).collect(), names))
            })
            .collect();
        ServeWorld { regions }
    }

    /// The warm-up pass: one `ZPROF` and one `TOPK` per region, so every
    /// lazy shard build, candidate list and ZPROF Monte-Carlo run
    /// happens before load starts.
    pub fn warmup(&self) -> Vec<String> {
        self.regions
            .iter()
            .flat_map(|(r, _, _)| {
                [
                    format!("ZPROF {}", r.code()),
                    format!("TOPK {} 10", r.code()),
                ]
            })
            .collect()
    }

    fn pair(&self, rng: &mut Rng, global: bool) -> String {
        let (region, pool, _) = &self.regions[rng.below(self.regions.len())];
        let n = 2 + rng.below(7);
        let mut ids: Vec<u32> = (0..n).map(|_| pool[rng.below(pool.len())]).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() < 2 {
            ids = pool[..2].to_vec();
        }
        let ids: Vec<String> = ids.iter().map(u32::to_string).collect();
        let code = if global { "-" } else { region.code() };
        format!("PAIR {code} {}", ids.join(","))
    }

    fn score(&self, rng: &mut Rng) -> String {
        let (region, _, names) = &self.regions[rng.below(self.regions.len())];
        let n = 3 + rng.below(5);
        let lines: Vec<String> = (0..n)
            .map(|_| noisy_line(&names[rng.below(names.len())], rng))
            .collect();
        format!("SCORE {}\n{}", region.code(), lines.join("\n"))
    }

    /// Zipf-popular requests over a catalogue of a few hundred
    /// distinct requests (240 PAIR, 44 TOPK, every ZPROF, 12 SCORE), so
    /// nearly every lookup after the first touch hits the cache. SCORE
    /// is never cached, so it is kept to 3% of the traffic.
    pub fn hot_requests(&self, seed: u64) -> Requests<'_> {
        let mut rng = Rng::new(seed, 0x407);
        let pairs: Vec<String> = (0..240).map(|i| self.pair(&mut rng, i % 10 == 0)).collect();
        let topk: Vec<String> = (0..44)
            .map(|i| {
                let (r, _, _) = &self.regions[i % self.regions.len()];
                format!("TOPK {} {}", r.code(), [10, 5, 20][i % 3])
            })
            .collect();
        let zprof: Vec<String> = self
            .regions
            .iter()
            .map(|(r, _, _)| format!("ZPROF {}", r.code()))
            .collect();
        let score: Vec<String> = (0..12).map(|_| self.score(&mut rng)).collect();
        let catalogue = vec![(pairs, 72), (topk, 15), (zprof, 10), (score, 3)];
        let zipfs = catalogue.iter().map(|(c, _)| Zipf::new(c.len())).collect();
        Requests {
            world: self,
            rng,
            kind: Kind::Hot { catalogue, zipfs },
        }
    }

    /// Requests that miss the response cache: fresh PAIR id sets, TOPK
    /// over a shuffled cycle of every (region, k ≤ 100) key, so a key
    /// recurs only long after the cache evicted it, and SCORE over
    /// varied free text. No two PAIR or SCORE requests are equal.
    pub fn cold_requests(&self, seed: u64) -> Requests<'_> {
        let mut rng = Rng::new(seed, 0xc01d);
        let mut topk: Vec<String> = self
            .regions
            .iter()
            .flat_map(|(r, _, _)| (1..=100).map(move |k| format!("TOPK {} {k}", r.code())))
            .collect();
        for i in (1..topk.len()).rev() {
            topk.swap(i, rng.below(i + 1));
        }
        Requests {
            world: self,
            rng,
            kind: Kind::Cold {
                topk,
                next_topk: 0,
                seen: HashSet::new(),
            },
        }
    }
}

enum Kind {
    Hot {
        /// (distinct requests, share of traffic in %).
        catalogue: Vec<(Vec<String>, u32)>,
        zipfs: Vec<Zipf>,
    },
    Cold {
        topk: Vec<String>,
        next_topk: usize,
        seen: HashSet<String>,
    },
}

/// An endless, seed-determined request stream.
pub struct Requests<'w> {
    world: &'w ServeWorld,
    rng: Rng,
    kind: Kind,
}

impl Requests<'_> {
    /// The next `n` request bodies (everything after the id).
    pub fn take(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.next_request()).collect()
    }

    fn next_request(&mut self) -> String {
        let rng = &mut self.rng;
        match &mut self.kind {
            Kind::Hot { catalogue, zipfs } => {
                let mut roll = rng.below(100) as u32;
                let mut kind = 0;
                while roll >= catalogue[kind].1 {
                    roll -= catalogue[kind].1;
                    kind += 1;
                }
                catalogue[kind].0[zipfs[kind].draw(rng)].clone()
            }
            Kind::Cold {
                topk,
                next_topk,
                seen,
            } => loop {
                let roll = rng.below(100);
                let req = if roll < 65 {
                    self.world.pair(rng, false)
                } else if roll < 75 {
                    self.world.pair(rng, true)
                } else if roll < 85 {
                    *next_topk += 1;
                    return topk[(*next_topk - 1) % topk.len()].clone();
                } else {
                    self.world.score(rng)
                };
                if seen.insert(req.clone()) {
                    return req;
                }
            },
        }
    }
}

const TEMPLATES: &[(&str, &str)] = &[
    ("2 cups ", ", chopped"),
    ("1 tbsp ", ""),
    ("3 ripe ", ", peeled and diced"),
    ("250g ", ", whisked until smooth"),
    ("a generous pinch of ", " to taste"),
    ("1 (15 ounce) can ", ", drained and rinsed"),
    ("freshly ground ", ""),
    ("", " for garnish"),
];

fn pluralize(name: &str) -> String {
    if name.ends_with('o') || name.ends_with("ch") || name.ends_with('x') {
        format!("{name}es")
    } else if name.ends_with('s') {
        name.to_owned()
    } else {
        format!("{name}s")
    }
}

/// Swap two adjacent interior characters: a typo the fuzzy pass must
/// catch.
fn transpose(name: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = name.chars().collect();
    if chars.len() < 5 {
        return name.to_owned();
    }
    let i = 1 + rng.below(chars.len() - 3);
    chars.swap(i, i + 1);
    chars.into_iter().collect()
}

fn junk_word(rng: &mut Rng) -> String {
    let len = 4 + rng.below(7);
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// One free-text ingredient line around `term`: a quantity template
/// plus a plural, a typo, a junk word or nothing.
fn noisy_line(term: &str, rng: &mut Rng) -> String {
    let (prefix, suffix) = TEMPLATES[rng.below(TEMPLATES.len())];
    let surface = match rng.below(5) {
        0 => pluralize(term),
        1 => transpose(term, rng),
        2 => format!("{term} and {}", junk_word(rng)),
        _ => term.to_owned(),
    };
    format!("{prefix}{surface}{suffix}")
}

/// The ingest corpus: `n_batches` batches of `per_batch` free-text
/// recipes over the curated lexicon (names and synonyms), regions
/// weighted by the paper's recipe counts. About 4% of recipes carry
/// only junk lines and cannot resolve (the importer tombstones them).
pub fn ingest_batches(
    db: &FlavorDb,
    seed: u64,
    n_batches: usize,
    per_batch: usize,
) -> Vec<Vec<RawRecipe>> {
    let mut rng = Rng::new(seed, 0x1a6e57);
    let mut terms: Vec<String> = db.ingredients().map(|i| i.name.clone()).collect();
    terms.extend(db.synonyms().map(|(s, _)| s.to_owned()));
    let weights: Vec<u32> = Region::ALL.iter().map(|r| r.paper_recipe_count()).collect();
    let total: u32 = weights.iter().sum();
    let region = |rng: &mut Rng| {
        let mut roll = rng.below(total as usize) as u32;
        let mut i = 0;
        while roll >= weights[i] {
            roll -= weights[i];
            i += 1;
        }
        Region::ALL[i]
    };
    (0..n_batches)
        .map(|b| {
            (0..per_batch)
                .map(|i| {
                    let n = 3 + rng.below(8);
                    let junk = rng.chance(0.04);
                    let lines = (0..n)
                        .map(|_| {
                            if junk {
                                format!("2 cups {} {}", junk_word(&mut rng), junk_word(&mut rng))
                            } else {
                                noisy_line(&terms[rng.below(terms.len())], &mut rng)
                            }
                        })
                        .collect();
                    RawRecipe {
                        name: format!("recipe {b}-{i}"),
                        region: region(&mut rng),
                        source: Source::Synthetic,
                        ingredient_lines: lines,
                    }
                })
                .collect()
        })
        .collect()
}

/// Render recipes in the `culinaria import`/`ingest` text format:
/// blank-line-separated blocks of `name | REGION` then one ingredient
/// line per line.
pub fn render_recipes(recipes: &[RawRecipe]) -> String {
    let mut out = String::new();
    for r in recipes {
        out.push_str(&format!("{} | {}\n", r.name, r.region.code()));
        for line in &r.ingredient_lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}
