//! The compiled inference layer: frozen models plus a bounded,
//! deterministic phrase-level memoization cache.
//!
//! An [`Inference`] bundle holds the ingredient NER, the instruction NER
//! and the POS tagger in one of two frozen forms: compiled in memory
//! into sparse CSR tables (a trained or JSON-loaded
//! [`crate::pipeline::TrainedPipeline`]), or zero-copy views over `.rma`
//! artifact bytes ([`crate::artifact::ArtifactPipeline`]). Both forms
//! decode through one kernel per model family — `recipe_ner::compiled`
//! for Viterbi, `recipe_tagger::compiled::tag_into` for POS — so they
//! differ only in how table entries are read. The bundle fronts the two
//! hottest per-phrase computations with memoization caches:
//!
//! * **ingredient cache** — preprocessed ingredient phrase → parsed
//!   [`IngredientEntry`]. Keys are the preprocessed (lowercased,
//!   lemmatized) tokens, so `"2 Cups Flour"` and `"2 cups flour"` share an
//!   entry — the same case/width normalization the tokenizer applies.
//! * **event cache** — raw instruction sentence → its [`CookingEvent`]s.
//!   Keys are the verbatim tokens (the analysis pipeline is
//!   case-sensitive); the step index is patched on retrieval since it is
//!   the only step-dependent field.
//!
//! Cached values are pure functions of their keys and every model is
//! frozen, so results are **identical** with the cache on or off, at any
//! thread count, with any eviction history — the cache can only change
//! *when* a value is computed, never *what* it is. Capacity is bounded by
//! refusing inserts once a shard is full (no eviction), which keeps memory
//! flat on adversarial corpora while keeping behavior trivially
//! deterministic. Hit/miss/rejected-insert counters live on a
//! per-[`Inference`] `recipe_obs::Registry` (instance-local so concurrent
//! pipelines never share counts) and are surfaced in the CLI extract/mine
//! output, the `--metrics-out` telemetry, and the `inference_throughput`
//! bench.
//!
//! Decode scratch (Viterbi buffers, feature-id buffers, tag rows) lives in
//! thread-locals: the deterministic runtime's workers have no init hook,
//! and a thread-local arena gives exactly the once-per-worker reuse the
//! decode kernels are designed for. One NER scratch serves both NER
//! models (different label counts) and both backends; the kernel resizes
//! every buffer per call, so sharing it never changes a decode.

use crate::model::{CookingEvent, IngredientEntry};
use crate::pipeline::entry_from_tagged;
use recipe_ner::{
    CompiledSequenceModel, DecodeScratch, IngredientTag, InstructionTag, LabelSet, NerView,
    SequenceModel,
};
use recipe_tagger::{tag_into, CompiledPosTagger, PennTag, PosTagger, PosView, TagScratch};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of independently locked cache shards. A power of two keeps the
/// shard pick a cheap mask; 16 shards keep contention negligible at the
/// runtime's worker counts.
const CACHE_SHARDS: usize = 16;

/// Default per-cache capacity (entries across all shards).
const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// Separator for joining tokens into cache keys. A control character that
/// the tokenizer never emits inside a token, so distinct token sequences
/// never collide.
const KEY_SEP: char = '\u{1f}';

/// Join tokens into a cache key.
fn cache_key(words: &[String]) -> String {
    let mut key = String::with_capacity(words.iter().map(|w| w.len() + 1).sum());
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            key.push(KEY_SEP);
        }
        key.push_str(w);
    }
    key
}

/// Monitoring counters for one memoization cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Combine two counters (for reporting totals across caches).
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
        }
    }
}

/// A bounded, sharded memoization cache shared across runtime workers.
///
/// Inserts are refused once a shard reaches its capacity slice — values
/// are pure functions of keys, so dropping an insert only costs a future
/// recompute and can never change results. Hit/miss/rejected counters are
/// `recipe_obs` counters resolved from the owning [`Inference`]'s
/// instance-local registry: monitoring data, never part of any decoded
/// output, and they count whether or not tracing is enabled because the
/// CLI's `cache` block reports them unconditionally.
#[derive(Debug)]
struct ShardedCache<V> {
    shards: Vec<Mutex<HashMap<String, V>>>,
    per_shard_capacity: usize,
    hits: Arc<recipe_obs::Counter>,
    misses: Arc<recipe_obs::Counter>,
    rejected: Arc<recipe_obs::Counter>,
    entries_gauge: Arc<recipe_obs::Gauge>,
}

impl<V: Clone> ShardedCache<V> {
    fn new(capacity: usize, registry: &recipe_obs::Registry, prefix: &str) -> Self {
        ShardedCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(CACHE_SHARDS).max(1),
            hits: registry.counter(&format!("{prefix}.hits")),
            misses: registry.counter(&format!("{prefix}.misses")),
            rejected: registry.counter(&format!("{prefix}.rejected_inserts")),
            entries_gauge: registry.gauge(&format!("{prefix}.entries")),
        }
    }

    fn shard_of(&self, key: &str) -> usize {
        // DefaultHasher::new() is seed-free: shard placement is identical
        // across runs and across threads.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) & (CACHE_SHARDS - 1)
    }

    fn get(&self, key: &str) -> Option<V> {
        let shard = self.shards[self.shard_of(key)].lock().expect("cache lock");
        match shard.get(key) {
            Some(v) => {
                self.hits.inc();
                Some(v.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    fn insert(&self, key: String, value: V) {
        let mut shard = self.shards[self.shard_of(&key)].lock().expect("cache lock");
        if shard.len() < self.per_shard_capacity {
            shard.insert(key, value);
        } else {
            self.rejected.inc();
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").len())
            .sum()
    }

    fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("cache lock").clear();
        }
        self.hits.reset();
        self.misses.reset();
        self.rejected.reset();
        self.entries_gauge.reset();
    }

    /// Counter snapshot. Also refreshes the registry's `entries` gauge so
    /// exported telemetry carries the current fill level.
    fn stats(&self) -> CacheStats {
        let entries = self.len();
        self.entries_gauge.set(entries as f64);
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries,
        }
    }
}

thread_local! {
    /// Per-worker NER decode scratch: Viterbi buffers, feature ids, the
    /// label-id output row and the mapped tag row.
    static NER_SCRATCH: RefCell<(DecodeScratch, Vec<usize>, Vec<IngredientTag>, Vec<InstructionTag>)> =
        RefCell::new((DecodeScratch::new(), Vec::new(), Vec::new(), Vec::new()));
    /// Per-worker POS tagging scratch and tag output row.
    static POS_SCRATCH: RefCell<(TagScratch, Vec<PennTag>)> =
        RefCell::new((TagScratch::new(), Vec::new()));
}

/// A frozen sequence model behind [`Inference`]: either compiled
/// in-process from trained parameters, or a zero-copy view over loaded
/// artifact bytes. Both decode through the same scratch arenas and are
/// byte-identical on the f64 path.
pub enum NerBackend {
    /// In-process compiled CSR model.
    Compiled(CompiledSequenceModel),
    /// Zero-copy view over `.rma` artifact bytes (possibly quantized).
    Artifact(NerView),
}

impl NerBackend {
    /// The model's label inventory.
    pub fn labels(&self) -> &LabelSet {
        match self {
            NerBackend::Compiled(m) => m.labels(),
            NerBackend::Artifact(v) => v.labels(),
        }
    }

    /// Predict dense label ids into `out`, reusing `scratch`.
    ///
    /// Pure dispatch: both arms run the same decode kernel, which holds
    /// the provenance hooks (the span is opened by each
    /// `predict_ids_into`); external callers go through [`Inference`].
    pub(crate) fn predict_ids(
        &self,
        tokens: &[String],
        scratch: &mut DecodeScratch,
        out: &mut Vec<usize>,
    ) {
        match self {
            NerBackend::Compiled(m) => m.predict_ids_into(tokens, scratch, out),
            NerBackend::Artifact(v) => v.predict_ids_into(tokens, scratch, out),
        }
    }
}

impl std::fmt::Debug for NerBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NerBackend::Compiled(_) => f.write_str("NerBackend::Compiled"),
            NerBackend::Artifact(v) => {
                write!(f, "NerBackend::Artifact {{ quantized: {} }}", v.quantized())
            }
        }
    }
}

/// The POS tagger behind [`Inference`]: compiled in-process or served
/// from artifact bytes. Tags are identical either way.
pub enum PosBackend {
    /// In-process compiled CSR tagger.
    Compiled(CompiledPosTagger),
    /// Zero-copy view over `.rma` artifact bytes.
    Artifact(PosView),
}

impl PosBackend {
    /// Tag a tokenized sentence into `out`, reusing `scratch`.
    ///
    /// Pure dispatch: the span lives in the tag kernel this delegates
    /// to; external callers go through [`Inference`].
    pub(crate) fn tag(&self, words: &[String], scratch: &mut TagScratch, out: &mut Vec<PennTag>) {
        match self {
            PosBackend::Compiled(t) => tag_into(t, words, scratch, out),
            PosBackend::Artifact(v) => tag_into(v, words, scratch, out),
        }
    }
}

impl std::fmt::Debug for PosBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PosBackend::Compiled(_) => f.write_str("PosBackend::Compiled"),
            PosBackend::Artifact(_) => f.write_str("PosBackend::Artifact"),
        }
    }
}

/// Compiled models plus phrase caches — the serving half of a trained
/// pipeline. Frozen at construction: retraining or mutating the source
/// models requires rebuilding (see
/// [`crate::pipeline::TrainedPipeline::recompile`]).
#[derive(Debug)]
pub struct Inference {
    ingredient: NerBackend,
    /// Label id → ingredient tag, mirroring `predict` + `parse` exactly.
    ingredient_tag_of: Vec<IngredientTag>,
    instruction: NerBackend,
    /// Label id → instruction tag.
    instruction_tag_of: Vec<InstructionTag>,
    pos: PosBackend,
    ingredient_cache: ShardedCache<IngredientEntry>,
    event_cache: ShardedCache<Vec<CookingEvent>>,
    cache_enabled: AtomicBool,
    /// Instance-local metrics registry: cache counters and per-phrase
    /// latency histograms. Instance-local (not the process-global
    /// registry) so concurrently live pipelines — e.g. parallel tests —
    /// never mix counts.
    registry: Arc<recipe_obs::Registry>,
    /// Per-phrase ingredient-parse latency (cache hits included); only
    /// recorded while tracing is enabled.
    lat_ingredient: Arc<recipe_obs::Histogram>,
    /// Per-sentence event-extraction latency (cache hits included); only
    /// recorded while tracing is enabled.
    lat_events: Arc<recipe_obs::Histogram>,
}

impl Inference {
    /// Freeze the trained models into their compiled forms with empty
    /// caches (enabled by default).
    pub fn compile(
        pos: &PosTagger,
        ingredient_ner: &SequenceModel,
        instruction_ner: &SequenceModel,
    ) -> Self {
        Self::from_backends(
            NerBackend::Compiled(CompiledSequenceModel::compile(ingredient_ner)),
            NerBackend::Compiled(CompiledSequenceModel::compile(instruction_ner)),
            PosBackend::Compiled(CompiledPosTagger::compile(pos)),
        )
    }

    /// Build an inference bundle from zero-copy artifact views (see
    /// `recipe_core::artifact`). Whether decoding uses the quantized i16
    /// kernels was fixed when the views were opened.
    pub fn from_views(pos: PosView, ingredient: NerView, instruction: NerView) -> Self {
        Self::from_backends(
            NerBackend::Artifact(ingredient),
            NerBackend::Artifact(instruction),
            PosBackend::Artifact(pos),
        )
    }

    fn from_backends(ingredient: NerBackend, instruction: NerBackend, pos: PosBackend) -> Self {
        let ingredient_tag_of = (0..ingredient.labels().len())
            .map(|id| {
                IngredientTag::parse(ingredient.labels().name(id)).unwrap_or(IngredientTag::O)
            })
            .collect();
        let instruction_tag_of = (0..instruction.labels().len())
            .map(|id| {
                InstructionTag::parse(instruction.labels().name(id)).unwrap_or(InstructionTag::O)
            })
            .collect();
        let registry = Arc::new(recipe_obs::Registry::new());
        Inference {
            ingredient,
            ingredient_tag_of,
            instruction,
            instruction_tag_of,
            pos,
            ingredient_cache: ShardedCache::new(
                DEFAULT_CACHE_CAPACITY,
                &registry,
                "cache.ingredient",
            ),
            event_cache: ShardedCache::new(DEFAULT_CACHE_CAPACITY, &registry, "cache.events"),
            cache_enabled: AtomicBool::new(true),
            lat_ingredient: registry.latency_histogram("latency.ingredient_phrase_s"),
            lat_events: registry.latency_histogram("latency.event_sentence_s"),
            registry,
        }
    }

    /// This inference bundle's instance-local metrics registry (cache
    /// counters, per-phrase latency histograms). Cache `entries` gauges
    /// are refreshed first so a snapshot taken from the returned registry
    /// is current.
    pub fn metrics_registry(&self) -> &recipe_obs::Registry {
        self.ingredient_cache.stats();
        self.event_cache.stats();
        &self.registry
    }

    /// The ingredient NER backend (compiled model or artifact view).
    pub fn ingredient_backend(&self) -> &NerBackend {
        &self.ingredient
    }

    /// The in-process compiled ingredient NER model, when this bundle
    /// was built by [`Inference::compile`] (artifact-backed bundles
    /// return `None`).
    pub fn ingredient_model(&self) -> Option<&CompiledSequenceModel> {
        match &self.ingredient {
            NerBackend::Compiled(m) => Some(m),
            NerBackend::Artifact(_) => None,
        }
    }

    /// The in-process compiled instruction NER model, when present.
    pub fn instruction_model(&self) -> Option<&CompiledSequenceModel> {
        match &self.instruction {
            NerBackend::Compiled(m) => Some(m),
            NerBackend::Artifact(_) => None,
        }
    }

    /// The in-process compiled POS tagger, when present.
    pub fn pos_model(&self) -> Option<&CompiledPosTagger> {
        match &self.pos {
            PosBackend::Compiled(t) => Some(t),
            PosBackend::Artifact(_) => None,
        }
    }

    /// Enable or disable both phrase caches. Results are identical either
    /// way; disabling exists for benchmarking and the `--no-cache` CLI
    /// flag.
    pub fn set_cache_enabled(&self, enabled: bool) {
        self.cache_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the phrase caches are consulted.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled.load(Ordering::Relaxed)
    }

    /// Drop all cached entries and reset the counters.
    pub fn clear_caches(&self) {
        self.ingredient_cache.clear();
        self.event_cache.clear();
    }

    /// Counters for the ingredient-phrase cache.
    pub fn ingredient_cache_stats(&self) -> CacheStats {
        self.ingredient_cache.stats()
    }

    /// Counters for the instruction-sentence event cache.
    pub fn event_cache_stats(&self) -> CacheStats {
        self.event_cache.stats()
    }

    /// Combined counters over both caches.
    pub fn cache_stats(&self) -> CacheStats {
        self.ingredient_cache_stats()
            .merged(&self.event_cache_stats())
    }

    /// Parse one *preprocessed* ingredient phrase into an entry via the
    /// compiled NER model, memoized on the preprocessed tokens.
    pub fn ingredient_entry(&self, words: &[String]) -> IngredientEntry {
        if recipe_obs::enabled() {
            let t0 = Instant::now();
            let entry = self.ingredient_entry_memo(words);
            self.lat_ingredient.record(t0.elapsed().as_secs_f64());
            entry
        } else {
            self.ingredient_entry_memo(words)
        }
    }

    fn ingredient_entry_memo(&self, words: &[String]) -> IngredientEntry {
        if self.cache_enabled() {
            let key = cache_key(words);
            if let Some(entry) = self.ingredient_cache.get(&key) {
                record_cache_provenance("cache.ingredient", words, "hit");
                return entry;
            }
            record_cache_provenance("cache.ingredient", words, "miss");
            let entry = self.ingredient_entry_uncached(words);
            self.ingredient_cache.insert(key, entry.clone());
            entry
        } else {
            record_cache_provenance("cache.ingredient", words, "bypass");
            self.ingredient_entry_uncached(words)
        }
    }

    fn ingredient_entry_uncached(&self, words: &[String]) -> IngredientEntry {
        NER_SCRATCH.with(|cell| {
            let (scratch, ids, tags, _) = &mut *cell.borrow_mut();
            self.ingredient.predict_ids(words, scratch, ids);
            record_viterbi_provenance("ner.ingredient", &self.ingredient, words, ids, scratch);
            tags.clear();
            tags.extend(ids.iter().map(|&id| self.ingredient_tag_of[id]));
            entry_from_tagged(words, tags)
        })
    }

    /// Instruction NER tags for a sentence via the compiled model
    /// (identical to `tag_instruction` on the source model).
    pub fn tag_instruction(&self, words: &[String]) -> Vec<InstructionTag> {
        NER_SCRATCH.with(|cell| {
            let (scratch, ids, _, tags) = &mut *cell.borrow_mut();
            self.instruction.predict_ids(words, scratch, ids);
            record_viterbi_provenance("ner.instruction", &self.instruction, words, ids, scratch);
            tags.clear();
            tags.extend(ids.iter().map(|&id| self.instruction_tag_of[id]));
            tags.clone()
        })
    }

    /// POS tags for a sentence via the compiled tagger (identical to
    /// [`PosTagger::tag`] on the source tagger).
    pub fn pos_tag(&self, words: &[String]) -> Vec<PennTag> {
        POS_SCRATCH.with(|cell| {
            let (scratch, tags) = &mut *cell.borrow_mut();
            self.pos.tag(words, scratch, tags);
            tags.clone()
        })
    }

    /// Cached events for a sentence: `compute` runs on a miss. The cached
    /// value's `step` field is patched on every hit — it is the only
    /// step-dependent field of an event.
    pub(crate) fn events_for_sentence(
        &self,
        words: &[String],
        step: usize,
        compute: impl FnOnce() -> Vec<CookingEvent>,
    ) -> Vec<CookingEvent> {
        if recipe_obs::enabled() {
            let t0 = Instant::now();
            let events = self.events_for_sentence_memo(words, step, compute);
            self.lat_events.record(t0.elapsed().as_secs_f64());
            events
        } else {
            self.events_for_sentence_memo(words, step, compute)
        }
    }

    fn events_for_sentence_memo(
        &self,
        words: &[String],
        step: usize,
        compute: impl FnOnce() -> Vec<CookingEvent>,
    ) -> Vec<CookingEvent> {
        if !self.cache_enabled() {
            record_cache_provenance("cache.events", words, "bypass");
            return compute();
        }
        let key = cache_key(words);
        if let Some(mut events) = self.event_cache.get(&key) {
            record_cache_provenance("cache.events", words, "hit");
            for e in &mut events {
                e.step = step;
            }
            return events;
        }
        record_cache_provenance("cache.events", words, "miss");
        let events = compute();
        self.event_cache.insert(key, events.clone());
        events
    }
}

/// Record one `cache.lookup` provenance decision (hit/miss/bypass) for
/// a phrase or sentence. One relaxed load when `--explain` is off.
fn record_cache_provenance(site: &'static str, words: &[String], decision: &str) {
    if !recipe_obs::provenance::enabled() {
        return;
    }
    recipe_obs::provenance::record(recipe_obs::provenance::Record {
        kind: "cache.lookup",
        site,
        subject: words.join(" "),
        decision: decision.to_string(),
        detail: String::new(),
        index: 0,
        margin: None,
    });
}

/// Record per-token `viterbi.margin` provenance for a decoded phrase:
/// the predicted label plus the δ-row margin the decode left in
/// `scratch` (filled only while provenance is enabled). One relaxed
/// load when `--explain` is off.
fn record_viterbi_provenance(
    site: &'static str,
    model: &NerBackend,
    words: &[String],
    ids: &[usize],
    scratch: &DecodeScratch,
) {
    if !recipe_obs::provenance::enabled() {
        return;
    }
    let margins = scratch.margins();
    for (i, (&id, word)) in ids.iter().zip(words).enumerate() {
        recipe_obs::provenance::record(recipe_obs::provenance::Record {
            kind: "viterbi.margin",
            site,
            subject: word.clone(),
            decision: model.labels().name(id).to_string(),
            detail: String::new(),
            index: i,
            margin: margins.get(i).copied().filter(|m| m.is_finite()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_is_injective_on_token_boundaries() {
        let a = cache_key(&["ab".to_string(), "c".to_string()]);
        let b = cache_key(&["a".to_string(), "bc".to_string()]);
        let c = cache_key(&["ab c".to_string()]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(cache_key(&[]), "");
    }

    #[test]
    fn sharded_cache_bounds_capacity_and_counts() {
        let reg = recipe_obs::Registry::new();
        let cache: ShardedCache<usize> = ShardedCache::new(CACHE_SHARDS * 2, &reg, "cache.test");
        assert_eq!(cache.per_shard_capacity, 2);
        for i in 0..200 {
            let key = format!("key-{i}");
            if cache.get(&key).is_none() {
                cache.insert(key, i);
            }
        }
        let stats = cache.stats();
        assert!(stats.entries <= CACHE_SHARDS * 2, "{}", stats.entries);
        assert_eq!(stats.misses, 200);
        // Full shards refuse inserts; stored values stay correct.
        for i in 0..200 {
            if let Some(v) = cache.get(&format!("key-{i}")) {
                assert_eq!(v, i);
            }
        }
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 0));
    }

    #[test]
    fn cache_stats_hit_rate() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let merged = s.merged(&CacheStats {
            hits: 1,
            misses: 3,
            entries: 2,
        });
        assert_eq!((merged.hits, merged.misses, merged.entries), (4, 4, 3));
    }
}
