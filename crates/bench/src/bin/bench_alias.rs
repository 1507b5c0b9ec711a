//! Performance harness for the ingredient-aliasing hot path.
//!
//! Times the interned-token trie resolver (`culinaria_text::alias`)
//! against the frozen string-join matcher (`culinaria_text::legacy`) on
//! a synthetic ingredient-line corpus built from the curated flavor
//! database, and the parallel batch importer against the serial one.
//! Writes a machine-readable summary to `BENCH_alias.json`.
//!
//! Every corpus line is resolved by both engines in an untimed sweep
//! and the `Resolution`s asserted byte-identical, and the batch
//! importer is asserted bit-identical to the serial importer at 1, 2,
//! and 8 threads — the speedup carries no behavior drift by
//! construction. Both checks run before any timing. Every timing
//! reports min, median and MAD over `TIME_REPS` interleaved repeats:
//! on a 1-core box the adaptive importer and the serial path run
//! identical code, so a single-shot ratio is timer noise.
//!
//! Knobs: `CULINARIA_ALIAS_LINES` (default 200000), `CULINARIA_SEED`
//! (default 2018), `CULINARIA_THREADS` (default 0 = available
//! parallelism), `CULINARIA_BENCH_OUT` (default `BENCH_alias.json`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use culinaria_bench::harness::{self, Run};
use culinaria_bench::{check_args, env_or};
use culinaria_flavordb::curated::curated_db;
use culinaria_flavordb::FlavorDb;
use culinaria_obs::Metrics;
use culinaria_recipedb::import::{Importer, RawRecipe};
use culinaria_recipedb::{RecipeStore, Region, Source};
use culinaria_text::alias::{AliasResolver, ResolveScratch};
use culinaria_text::legacy::LegacyAliasResolver;

/// Naive pluralizer for corpus synthesis (the resolver's singularizer
/// must undo these, which is part of what's being exercised).
fn pluralize(name: &str) -> String {
    if name.ends_with('o') || name.ends_with("ch") || name.ends_with('x') {
        format!("{name}es")
    } else if name.ends_with('s') {
        name.to_owned()
    } else {
        format!("{name}s")
    }
}

/// Swap two adjacent characters at a random interior position — the
/// classic transposition typo the fuzzy pass must catch.
fn transpose(name: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = name.chars().collect();
    if chars.len() < 4 {
        return name.to_owned();
    }
    let i = rng.random_range(1..chars.len() - 2);
    let mut out = chars.clone();
    out.swap(i, i + 1);
    out.into_iter().collect()
}

/// A pseudo-word of lowercase letters (unknown-token noise).
fn junk_word(rng: &mut StdRng) -> String {
    let len = rng.random_range(4..11usize);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
        .collect()
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

/// Build a pool of distinct synthetic ingredient lines over the
/// database's names and synonyms: plain, pluralized, transposed
/// (fuzzy-matchable), and junk-laced variants.
fn build_line_pool(db: &FlavorDb, rng: &mut StdRng) -> Vec<String> {
    let mut terms: Vec<String> = db.ingredients().map(|i| i.name.clone()).collect();
    terms.extend(db.synonyms().map(|(s, _)| s.to_owned()));
    let mut pool = Vec::new();
    for term in &terms {
        for (k, (prefix, suffix)) in TEMPLATES.iter().enumerate() {
            let surface = match k % 4 {
                0 => pluralize(term),
                1 => transpose(term, rng),
                2 => format!("{term} and {}", junk_word(rng)),
                _ => term.clone(),
            };
            pool.push(format!("{prefix}{surface}{suffix}"));
        }
    }
    // Pure-noise lines: nothing resolves, everything lands in the
    // unresolved list.
    for _ in 0..terms.len() {
        pool.push(format!("2 cups {} {}", junk_word(rng), junk_word(rng)));
    }
    pool
}

/// Zipf-ish corpus: quadratically skewed draws from the pool, so a few
/// lines repeat very often (real scraped corpora are duplicate-heavy —
/// this is what the memo cache exploits).
fn sample_corpus(pool: &[String], n_lines: usize, rng: &mut StdRng) -> Vec<String> {
    (0..n_lines)
        .map(|_| {
            let u: f64 = rng.random();
            let idx = ((u * u) * pool.len() as f64) as usize;
            pool[idx.min(pool.len() - 1)].clone()
        })
        .collect()
}

/// Group corpus lines into raw recipes of ~6 lines for import timing.
fn corpus_recipes(corpus: &[String]) -> Vec<RawRecipe> {
    corpus
        .chunks(6)
        .enumerate()
        .map(|(i, lines)| RawRecipe {
            name: format!("synthetic {i}"),
            region: Region::from_index(i % 22).expect("index < 22"),
            source: Source::from_index(i % 5).expect("index < 5"),
            ingredient_lines: lines.to_vec(),
        })
        .collect()
}

/// Timed repeats per path.
const TIME_REPS: usize = 9;

fn main() {
    check_args();
    let n_lines: usize = env_or("CULINARIA_ALIAS_LINES", 200_000);
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let n_threads: usize = env_or("CULINARIA_THREADS", 0);

    let db = curated_db();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool_lines = build_line_pool(&db, &mut rng);
    let corpus = sample_corpus(&pool_lines, n_lines, &mut rng);
    eprintln!(
        "corpus: {} lines over {} distinct ({} lexicon entries)",
        corpus.len(),
        pool_lines.len(),
        db.n_ingredients()
    );

    // Both engines primed with the identical lexicon sequence.
    let mut trie = AliasResolver::new();
    let mut legacy = LegacyAliasResolver::new();
    for ing in db.ingredients() {
        trie.add_canonical(&ing.name);
        legacy.add_canonical(&ing.name);
    }
    for (syn, id) in db.synonyms() {
        if let Ok(target) = db.ingredient(id) {
            trie.add_synonym(syn, &target.name);
            legacy.add_synonym(syn, &target.name);
        }
    }

    // Parity sweep: every corpus line, byte-identical output.
    eprintln!("parity sweep: trie vs legacy on full corpus");
    let mut scratch = ResolveScratch::new();
    for line in &corpus {
        let expected = legacy.resolve(line);
        let got_plain = trie.resolve(line);
        assert_eq!(
            got_plain, expected,
            "trie resolve diverged from legacy on {line:?}"
        );
        let got_memo = trie.resolve_with(line, &mut scratch);
        assert_eq!(
            got_memo, expected,
            "memoized resolve diverged from legacy on {line:?}"
        );
    }

    // The three timed resolve passes: legacy string-join matcher; trie
    // with scratch reuse, memo disabled; trie with the memo cache
    // (duplicate-heavy corpus). Each counts the matches it found.
    let legacy_pass = || -> usize { corpus.iter().map(|l| legacy.resolve(l).matches.len()).sum() };
    let trie_pass = |new_scratch: fn() -> ResolveScratch| -> usize {
        let mut scratch = new_scratch();
        corpus
            .iter()
            .map(|l| trie.resolve_with(l, &mut scratch).matches.len())
            .sum()
    };
    let no_memo = || ResolveScratch::with_memo_capacity(0);
    let legacy_matches = legacy_pass();
    assert_eq!(legacy_matches, trie_pass(no_memo), "match counts diverged");
    assert_eq!(
        legacy_matches,
        trie_pass(ResolveScratch::new),
        "memoized match counts diverged"
    );

    // Batch import: serial vs adaptive fan-out, asserted bit-identical
    // at every thread count.
    let raws = corpus_recipes(&corpus);
    let importer = Importer::from_flavor_db(&db);
    let mut serial_store = RecipeStore::new();
    let serial_stats = importer
        .import_batch(&db, &mut serial_store, &raws, 1)
        .expect("serial import");
    let mut batch_store = RecipeStore::new();
    let batch_metrics = Metrics::enabled();
    let batch_stats = importer
        .import_batch_observed(&db, &mut batch_store, &raws, n_threads, &batch_metrics)
        .expect("batch import");
    assert_eq!(batch_stats, serial_stats, "batch import stats diverged");
    let import_mode = match batch_metrics.snapshot().counter("import.mode.pooled") {
        Some(_) => "pooled",
        None => "serial",
    };

    for threads in [1usize, 2, 8] {
        let mut store = RecipeStore::new();
        let stats = importer
            .import_batch(&db, &mut store, &raws, threads)
            .expect("batch import");
        assert_eq!(
            stats, serial_stats,
            "import stats diverged at {threads} threads"
        );
        assert_eq!(store.n_recipes(), serial_store.n_recipes());
        for (a, b) in store.recipes().zip(serial_store.recipes()) {
            assert_eq!(a, b, "imported recipe diverged at {threads} threads");
        }
    }

    let [legacy_t, trie_t, memo_t] = harness::time_ms(
        TIME_REPS,
        [
            &mut || legacy_pass(),
            &mut || trie_pass(no_memo),
            &mut || trie_pass(ResolveScratch::new),
        ],
    );
    let (legacy_ms, trie_ms, memo_ms) = (legacy_t.min(), trie_t.min(), memo_t.min());
    let speedup_trie = legacy_ms / trie_ms;
    let speedup_memo = legacy_ms / memo_ms;
    eprintln!(
        "resolve: legacy {legacy_ms:.0} ms, trie {trie_ms:.0} ms ({speedup_trie:.2}x), \
         trie+memo {memo_ms:.0} ms ({speedup_memo:.2}x)"
    );

    // Each timed import returns its store, which the harness drops
    // after the clock stops: a store kept alive across reps grows the
    // heap under every later run and skews the comparison (~2x on this
    // corpus). Every timed import must reproduce the reference stats.
    let [import_serial, import_batch] = harness::time_ms(
        TIME_REPS,
        [
            &mut || {
                let mut store = RecipeStore::new();
                let stats = importer.import_batch(&db, &mut store, &raws, 1);
                assert_eq!(stats.as_ref(), Ok(&serial_stats));
                store
            },
            &mut || {
                let mut store = RecipeStore::new();
                let stats = importer.import_batch(&db, &mut store, &raws, n_threads);
                assert_eq!(stats.as_ref(), Ok(&batch_stats));
                store
            },
        ],
    );
    let import_speedup = import_serial.min() / import_batch.min();
    eprintln!(
        "import: serial {:.0} ms vs batch {:.0} ms -> {import_speedup:.2}x; \
         {} recipes stored",
        import_serial.min(),
        import_batch.min(),
        batch_store.n_recipes()
    );

    let lines_per_s = |ms: f64| corpus.len() as f64 / (ms / 1e3);
    let run = Run {
        seed,
        scale: None,
        threads: n_threads,
        reps: TIME_REPS,
    };
    harness::summary("alias_resolution", run)
        .set("n_lines", n_lines)
        .set("n_distinct_lines", pool_lines.len())
        .set("n_lexicon", trie.n_canonical())
        .set("n_synonyms", trie.n_synonyms())
        .set("n_threads_requested", n_threads)
        .stat("legacy_resolve_ms", &legacy_t)
        .stat("trie_resolve_ms", &trie_t)
        .stat("trie_memo_resolve_ms", &memo_t)
        .set("legacy_lines_per_s", lines_per_s(legacy_ms).round())
        .set("trie_lines_per_s", lines_per_s(trie_ms).round())
        .set("trie_memo_lines_per_s", lines_per_s(memo_ms).round())
        .set("speedup_trie", speedup_trie)
        .set("speedup_trie_memo", speedup_memo)
        .stat("import_serial_ms", &import_serial)
        .stat("import_batch_ms", &import_batch)
        .set("import_speedup", import_speedup)
        .set("import_mode", import_mode)
        .set("import_reps", TIME_REPS)
        .set("parity", "byte-identical")
        .write("BENCH_alias.json");
}
