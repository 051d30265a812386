//! Seeds, the trained model, and each workload's inputs.
//!
//! The run seed splits into a training seed and a held-out input seed;
//! the two must differ, so no workload input comes from the training
//! corpus' generator stream.

use crate::stats::splitmix;
use recipe_core::pipeline::TrainedPipeline;
use recipe_corpus::{CorpusSpec, Recipe, RecipeCorpus, Site};
use recipe_serve::{entry_json, ServeModel};
use recipe_text::Preprocessor;
use serde_json::json;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Recipes in the training corpus (the repository's experiment scale).
const TRAIN_RECIPES: usize = 1000;

/// Training phrases that feed the `.rma` drift reference, as
/// `recipe-mine compile` does.
const DRIFT_REFERENCE_PHRASES: usize = 256;

/// Distinct phrases in the `serve_hot` pool.
const HOT_POOL: usize = 48;

/// Unseen recipes in the `batch_mine` batch.
const BATCH_RECIPES: usize = 1000;

/// The two seeds derived from one run seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub train: u64,
    pub input: u64,
}

impl Seeds {
    pub fn from_run(seed: u64) -> Seeds {
        let s = Seeds {
            train: splitmix(seed ^ 0x7472_6169_6e00_0000),
            input: splitmix(seed ^ 0x696e_7075_7400_0000),
        };
        assert_ne!(
            s.train, s.input,
            "held-out input seed equals the training seed"
        );
        s
    }
}

/// The deployable model files written for a run.
pub struct Models {
    pub rma: PathBuf,
    pub json: PathBuf,
    /// Preprocessed training phrases (for the input-overlap report).
    pub train_phrases: HashSet<Vec<String>>,
}

/// Train from `seeds.train` and write `model.rma` (with a drift
/// reference, as `recipe-mine compile` writes it) and `model.json`.
pub fn train_and_write(seeds: Seeds, dir: &Path) -> Models {
    let scale = recipe_bench::ExperimentScale::for_total(TRAIN_RECIPES, seeds.train);
    let corpus = RecipeCorpus::generate(&scale.corpus);
    let pipeline = TrainedPipeline::train(&corpus, &scale.pipeline);
    let drift_phrases: Vec<String> = corpus
        .phrases(Site::AllRecipes)
        .iter()
        .take(DRIFT_REFERENCE_PHRASES)
        .map(|p| p.text())
        .collect();
    let reference = recipe_core::artifact::capture_drift_reference(&pipeline, &drift_phrases);
    let bytes = recipe_core::artifact::artifact_bytes_with_reference(&pipeline, Some(&reference))
        .expect("serialize .rma artifact");
    let rma = dir.join("model.rma");
    std::fs::write(&rma, bytes).expect("write model.rma");
    let pre = Preprocessor::default();
    let train_phrases = corpus
        .recipes
        .iter()
        .flat_map(|r| r.ingredient_lines())
        .map(|l| pre.preprocess(&l))
        .collect();
    let json = dir.join("model.json");
    pipeline.save(&json).expect("write model.json");
    Models {
        rma,
        json,
        train_phrases,
    }
}

/// Unseen recipes for `batch_mine`, from the held-out seed.
pub fn batch_recipes(input_seed: u64) -> Vec<Recipe> {
    RecipeCorpus::generate(&CorpusSpec::scaled(BATCH_RECIPES, input_seed)).recipes
}

/// One `/extract` request: its phrases and wire body.
#[derive(Clone)]
pub struct Request {
    pub phrases: Vec<String>,
    pub body: Vec<u8>,
}

impl Request {
    fn new(phrases: Vec<String>) -> Request {
        let body = serde_json::to_string(&json!({ "phrases": phrases }))
            .expect("render request body")
            .into_bytes();
        Request { phrases, body }
    }

    /// The response body the server must send: the same rows the CLI
    /// renders through `entry_json(ServeModel::extract_ingredient(..))`.
    pub fn expected_body(&self, oracle: &ServeModel) -> Vec<u8> {
        let rows: Vec<serde_json::Value> = self
            .phrases
            .iter()
            .map(|p| json!({ "phrase": p, "entry": entry_json(&oracle.extract_ingredient(p)) }))
            .collect();
        let text = serde_json::to_string_pretty(&json!({ "results": rows }))
            .expect("render expected body");
        format!("{text}\n").into_bytes()
    }
}

/// A seeded stream of held-out ingredient lists, one per recipe.
struct RecipeStream {
    seed: u64,
    chunk: u64,
    buf: std::vec::IntoIter<Recipe>,
}

impl RecipeStream {
    fn new(seed: u64) -> Self {
        RecipeStream {
            seed,
            chunk: 0,
            buf: Vec::new().into_iter(),
        }
    }
}

impl Iterator for RecipeStream {
    type Item = Vec<String>;
    fn next(&mut self) -> Option<Vec<String>> {
        loop {
            if let Some(r) = self.buf.next() {
                return Some(r.ingredient_lines());
            }
            let spec = CorpusSpec::scaled(1000, splitmix(self.seed ^ self.chunk));
            self.chunk += 1;
            self.buf = RecipeCorpus::generate(&spec).recipes.into_iter();
        }
    }
}

/// Requests of one serving run, by phase.
pub struct ServeInputs {
    pub warm: Vec<Request>,
    pub lo: Vec<Request>,
    pub hi: Vec<Request>,
    pub cap: Vec<Request>,
}

/// `serve_hot`: one phrase per request, drawn uniformly from a small
/// fixed pool of distinct phrases; the warm-up sends each pool phrase
/// once, so every later decode can be a cache hit.
pub fn hot_inputs(input_seed: u64, n_lo: usize, n_hi: usize, n_cap: usize) -> ServeInputs {
    let pre = Preprocessor::default();
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(HOT_POOL);
    for line in RecipeStream::new(input_seed).flatten() {
        if seen.insert(pre.preprocess(&line)) {
            pool.push(line);
            if pool.len() == HOT_POOL {
                break;
            }
        }
    }
    let mut state = splitmix(input_seed ^ 0x0068_6f74);
    let mut draw = |n: usize| -> Vec<Request> {
        (0..n)
            .map(|_| {
                state = splitmix(state);
                Request::new(vec![pool[(state % HOT_POOL as u64) as usize].clone()])
            })
            .collect()
    };
    let lo = draw(n_lo);
    let hi = draw(n_hi);
    let cap = draw(n_cap);
    ServeInputs {
        warm: pool.iter().map(|p| Request::new(vec![p.clone()])).collect(),
        lo,
        hi,
        cap,
    }
}

/// `serve_cold`: each request is one unseen recipe's full ingredient
/// list. A recipe is skipped when any of its phrases preprocesses to
/// tokens already used in the run, so no phrase (and no phrase-cache
/// key) repeats anywhere.
pub fn cold_inputs(
    input_seed: u64,
    n_warm: usize,
    n_lo: usize,
    n_hi: usize,
    n_cap: usize,
) -> ServeInputs {
    let pre = Preprocessor::default();
    let mut seen: HashSet<Vec<String>> = HashSet::new();
    let mut stream = RecipeStream::new(input_seed);
    let mut take = |n: usize| -> Vec<Request> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let lines = stream.next().expect("endless recipe stream");
            let keys: Vec<Vec<String>> = lines.iter().map(|l| pre.preprocess(l)).collect();
            let distinct: HashSet<&Vec<String>> = keys.iter().collect();
            if lines.is_empty()
                || distinct.len() != keys.len()
                || keys.iter().any(|k| seen.contains(k))
            {
                continue;
            }
            seen.extend(keys);
            out.push(Request::new(lines));
        }
        out
    };
    let warm = take(n_warm);
    let lo = take(n_lo);
    let hi = take(n_hi);
    let cap = take(n_cap);
    ServeInputs { warm, lo, hi, cap }
}

/// Measured properties of a workload's inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputProps {
    pub phrases_per_op: f64,
    pub tokens_per_phrase: f64,
    /// Distinct preprocessed phrases over phrases sent.
    pub unique_phrase_frac: f64,
    /// Phrases whose preprocessed tokens repeat an earlier phrase.
    pub repeated_phrases: f64,
    /// Share of phrases whose preprocessed tokens occur in training.
    pub train_overlap_frac: f64,
}

/// Measure [`InputProps`] over `ops`, each a list of raw phrases.
pub fn input_props<'a>(
    ops: impl Iterator<Item = &'a [String]>,
    train: &HashSet<Vec<String>>,
) -> InputProps {
    let pre = Preprocessor::default();
    let mut n_ops = 0usize;
    let mut phrases = 0usize;
    let mut tokens = 0usize;
    let mut overlap = 0usize;
    let mut seen = HashSet::new();
    for op in ops {
        n_ops += 1;
        for p in op {
            let key = pre.preprocess(p);
            phrases += 1;
            tokens += key.len();
            overlap += usize::from(train.contains(&key));
            seen.insert(key);
        }
    }
    let per = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    InputProps {
        phrases_per_op: per(phrases, n_ops),
        tokens_per_phrase: per(tokens, phrases),
        unique_phrase_frac: per(seen.len(), phrases),
        repeated_phrases: (phrases - seen.len()) as f64,
        train_overlap_frac: per(overlap, phrases),
    }
}
