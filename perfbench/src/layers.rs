//! Replays of workload inputs through the layers' public functions,
//! with a span around each call.
//!
//! The phrase cache hides which calls decode: after each
//! `Inference::ingredient_entry` (or sentence-event) call the replay
//! checks the cache's miss counter, and on a miss re-runs the layers the
//! call used internally as probe spans (`ner.decode`,
//! `core.entry_assembly`, `tagger.tag`, `ner.instruction_decode`,
//! `parser.parse`). A caller's self time is its span minus the probes
//! that reproduce its work.

use crate::trace::Tracer;
use recipe_core::infer::NerBackend;
use recipe_core::pipeline::{entry_from_tagged, TrainedPipeline};
use recipe_core::{Inference, IngredientEntry, RecipeModel};
use recipe_corpus::Recipe;
use recipe_ner::{DecodeScratch, IngredientTag};
use recipe_text::Preprocessor;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Decode one phrase with the ingredient NER backend (CSR model or
/// `.rma` view) and map label ids to tags.
fn decode_tags(
    backend: &NerBackend,
    words: &[String],
    scratch: &mut DecodeScratch,
    ids: &mut Vec<usize>,
) -> Vec<IngredientTag> {
    match backend {
        NerBackend::Compiled(m) => m.predict_ids_into(words, scratch, ids),
        NerBackend::Artifact(v) => v.predict_ids_into(words, scratch, ids),
    }
    let labels = backend.labels();
    ids.iter()
        .map(|&id| IngredientTag::parse(labels.name(id)).unwrap_or(IngredientTag::O))
        .collect()
}

/// Cache miss counters of one inference bundle.
struct Misses {
    ingredient: Arc<recipe_obs::Counter>,
    events: Arc<recipe_obs::Counter>,
}

impl Misses {
    fn of(inf: &Inference) -> Self {
        let reg = inf.metrics_registry();
        Misses {
            ingredient: reg.counter("cache.ingredient.misses"),
            events: reg.counter("cache.events.misses"),
        }
    }
}

/// Ingredient-phrase replay state: preprocessing, the cached entry
/// call, and on a miss the decode and assembly probes.
pub struct PhraseReplay<'a> {
    pre: &'a Preprocessor,
    inf: &'a Inference,
    misses: Misses,
    scratch: DecodeScratch,
    ids: Vec<usize>,
    /// Tokens decoded by NER probes (cache misses only).
    pub tokens: u64,
}

impl<'a> PhraseReplay<'a> {
    pub fn new(pre: &'a Preprocessor, inf: &'a Inference) -> Self {
        PhraseReplay {
            pre,
            inf,
            misses: Misses::of(inf),
            scratch: DecodeScratch::new(),
            ids: Vec::new(),
            tokens: 0,
        }
    }

    pub fn phrase(&mut self, tr: &mut Tracer, req: u64, phrase: &str) -> IngredientEntry {
        let words = tr.span("text.preprocess", req, |_| self.pre.preprocess(phrase));
        let before = self.misses.ingredient.get();
        let entry = tr.span("core.ingredient_entry", req, |_| {
            self.inf.ingredient_entry(&words)
        });
        if self.misses.ingredient.get() > before {
            self.tokens += words.len() as u64;
            let backend = self.inf.ingredient_backend();
            let (scratch, ids) = (&mut self.scratch, &mut self.ids);
            let tags = tr.span("ner.decode", req, |_| {
                decode_tags(backend, &words, scratch, ids)
            });
            black_box(tr.span("core.entry_assembly", req, |_| {
                entry_from_tagged(&words, &tags)
            }));
        }
        entry
    }
}

/// Replay `requests` (each a list of phrases) under a `serve.request`
/// root span per request. Returns the entries and the wall time.
pub fn replay_phrases(
    replay: &mut PhraseReplay<'_>,
    tr: &mut Tracer,
    requests: &[&[String]],
) -> (Vec<IngredientEntry>, f64) {
    let t0 = Instant::now();
    let mut out = Vec::new();
    for (i, phrases) in requests.iter().enumerate() {
        tr.span("serve.request", i as u64, |tr| {
            for p in phrases.iter() {
                out.push(replay.phrase(tr, i as u64, p));
            }
        });
    }
    (out, t0.elapsed().as_secs_f64())
}

/// Replay `model_recipe` for each recipe through its public parts under
/// a `mine.recipe` root span; returns the models, the wall time and the
/// tokens the NER probes decoded.
pub fn replay_recipes(
    p: &TrainedPipeline,
    tr: &mut Tracer,
    recipes: &[Recipe],
) -> (Vec<RecipeModel>, f64, u64) {
    let mut phrases = PhraseReplay::new(&p.pre, &p.inference);
    let mut instr_tokens = 0u64;
    let t0 = Instant::now();
    let models = recipes
        .iter()
        .map(|r| {
            tr.span("mine.recipe", r.id, |tr| {
                let ingredients = r
                    .ingredient_lines()
                    .iter()
                    .map(|line| phrases.phrase(tr, r.id, line))
                    .collect();
                let mut events = Vec::new();
                for (step, sentences) in r.steps().iter().enumerate() {
                    for s in sentences {
                        let words = s.words();
                        let before = phrases.misses.events.get();
                        events.extend(tr.span("core.sentence_events", r.id, |_| {
                            recipe_core::events::extract_sentence_events(p, &words, step)
                        }));
                        if phrases.misses.events.get() > before {
                            instr_tokens += words.len() as u64;
                            let pos = tr.span("tagger.tag", r.id, |_| p.inference.pos_tag(&words));
                            black_box(tr.span("ner.instruction_decode", r.id, |_| {
                                p.inference.tag_instruction(&words)
                            }));
                            black_box(
                                tr.span("parser.parse", r.id, |_| p.parser.parse(&words, &pos)),
                            );
                        }
                    }
                }
                RecipeModel {
                    id: r.id,
                    title: r.title.clone(),
                    cuisine: r.cuisine.clone(),
                    ingredients,
                    events,
                    num_steps: r.num_steps(),
                }
            })
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    (models, wall, phrases.tokens + instr_tokens)
}

/// Total and self nanoseconds of the spans named `name` in `agg`.
pub fn ns(
    agg: &std::collections::BTreeMap<&'static str, crate::trace::Agg>,
    name: &str,
) -> (f64, f64) {
    agg.get(name)
        .map(|a| (a.total_ns as f64, a.self_ns as f64))
        .unwrap_or((0.0, 0.0))
}
