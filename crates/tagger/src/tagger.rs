//! Averaged-perceptron POS tagger (NLTK `PerceptronTagger` family) with
//! recipe-aware surface features.
//!
//! Decoding is greedy left-to-right: each position is classified from its
//! surface context plus the two previously *predicted* tags, exactly like
//! the reference implementation. A single-tag dictionary short-circuits
//! unambiguous frequent words, which both speeds tagging up and stabilizes
//! the context features.

use crate::perceptron::AveragedPerceptron;
use crate::tagset::{PennTag, NUM_TAGS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A training sentence: parallel word and tag sequences.
pub type TaggedSentence = (Vec<String>, Vec<PennTag>);

/// Frequency threshold above which an unambiguous word enters the tag
/// dictionary (NLTK uses 20 with a 0.97 purity bound; our corpus is cleaner
/// so a purity of 1.0 with a small count works well).
const TAGDICT_MIN_COUNT: usize = 10;

/// Sentinel context words for positions before/after the sentence.
pub(crate) const START: [&str; 2] = ["-START-", "-START2-"];
pub(crate) const END: [&str; 2] = ["-END-", "-END2-"];

/// Averaged-perceptron POS tagger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PosTagger {
    model: AveragedPerceptron,
    /// Words that always carry the same tag in training data.
    tagdict: HashMap<String, PennTag>,
}

/// Normalize a word for feature extraction: digits collapse so the model
/// generalizes over quantities.
pub(crate) fn normalize(word: &str) -> String {
    let mut out = String::new();
    normalize_into(word, &mut out);
    out
}

/// Write the normalized form of `word` into `out` (cleared first).
/// Produces exactly the same string as [`normalize`]; the ASCII fast path
/// avoids the `to_lowercase` allocation on the compiled tagging path.
pub(crate) fn normalize_into(word: &str, out: &mut String) {
    out.clear();
    if word.bytes().all(|b| b.is_ascii_digit()) {
        out.push_str("!DIGITS");
    } else if word.bytes().any(|b| b.is_ascii_digit()) {
        if word.contains('/') {
            out.push_str("!FRACTION");
        } else if word.contains('-') {
            out.push_str("!RANGE");
        } else {
            out.push_str("!NUM");
        }
    } else if word.is_ascii() {
        for b in word.bytes() {
            out.push(b.to_ascii_lowercase() as char);
        }
    } else {
        out.push_str(&word.to_lowercase());
    }
}

// `suffix`, `prefix` and `perceptron::argmax` are `#[inline]` because
// the generic tag kernel (`compiled::tag_into`) is instantiated in the
// crates that call it, where only inline-marked helpers can be inlined.
#[inline]
pub(crate) fn suffix(word: &str, n: usize) -> &str {
    let len = word.len();
    if len <= n {
        word
    } else {
        // Find a char boundary at or after len - n.
        let mut cut = len - n;
        while !word.is_char_boundary(cut) {
            cut += 1;
        }
        &word[cut..]
    }
}

#[inline]
pub(crate) fn prefix(word: &str, n: usize) -> &str {
    let mut cut = n.min(word.len());
    while cut < word.len() && !word.is_char_boundary(cut) {
        cut += 1;
    }
    &word[..cut]
}

/// Stream the feature set for position `i` through `f`, reusing `scratch`
/// as the format buffer so no per-feature `String` is ever allocated.
///
/// `context` is the normalized word sequence padded with two START and two
/// END sentinels, so `context[i + 2]` is the current (normalized) word.
pub(crate) fn for_each_feature<F: FnMut(&str)>(
    i: usize,
    context: &[String],
    prev: &str,
    prev2: &str,
    scratch: &mut String,
    mut f: F,
) {
    let ci = i + 2;
    let word = context[ci].as_str();
    let buf = scratch;
    let mut emit = |buf: &mut String, parts: &[&str]| {
        buf.clear();
        for p in parts {
            buf.push_str(p);
        }
        f(buf);
    };
    emit(buf, &["bias"]);
    emit(buf, &["i suffix=", suffix(word, 3)]);
    emit(buf, &["i pref1=", prefix(word, 1)]);
    emit(buf, &["i-1 tag=", prev]);
    emit(buf, &["i-2 tag=", prev2]);
    emit(buf, &["i tag+i-2 tag=", prev, " ", prev2]);
    emit(buf, &["i word=", word]);
    emit(buf, &["i-1 tag+i word=", prev, " ", word]);
    emit(buf, &["i-1 word=", &context[ci - 1]]);
    emit(buf, &["i-1 suffix=", suffix(&context[ci - 1], 3)]);
    emit(buf, &["i-2 word=", &context[ci - 2]]);
    emit(buf, &["i+1 word=", &context[ci + 1]]);
    emit(buf, &["i+1 suffix=", suffix(&context[ci + 1], 3)]);
    emit(buf, &["i+2 word=", &context[ci + 2]]);
    if word.contains('-') {
        emit(buf, &["i hyphen"]);
    }
    if word.ends_with("ly") {
        emit(buf, &["i ly"]);
    }
    if word.ends_with("ing") {
        emit(buf, &["i ing"]);
    }
    if word.ends_with("ed") {
        emit(buf, &["i ed"]);
    }
}

pub(crate) fn make_context(words: &[String]) -> Vec<String> {
    let mut context = Vec::with_capacity(words.len() + 4);
    context.push(START[0].to_string());
    context.push(START[1].to_string());
    context.extend(words.iter().map(|w| normalize(w)));
    context.push(END[0].to_string());
    context.push(END[1].to_string());
    context
}

impl PosTagger {
    /// Train a tagger on `(words, tags)` sentences for `epochs` passes.
    ///
    /// Training shuffles the sentence order each epoch with a deterministic
    /// RNG seeded by `seed`, then applies weight averaging.
    ///
    /// # Panics
    /// Panics if any sentence has mismatched word/tag lengths.
    pub fn train(sentences: &[TaggedSentence], epochs: usize, seed: u64) -> Self {
        for (words, tags) in sentences {
            assert_eq!(words.len(), tags.len(), "words/tags length mismatch");
        }
        let tagdict = build_tagdict(sentences);
        let mut model = AveragedPerceptron::new(NUM_TAGS);
        let mut order: Vec<usize> = (0..sentences.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);

        let mut scratch = String::new();
        let mut ids: Vec<u32> = Vec::with_capacity(20);
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            for &si in &order {
                let (words, tags) = &sentences[si];
                let context = make_context(words);
                let mut prev: &str = START[0];
                let mut prev2: &str = START[1];
                for i in 0..words.len() {
                    let gold = tags[i];
                    // context[i + 2] is the already-normalized word.
                    let norm = context[i + 2].as_str();
                    let guess = if let Some(&tag) = tagdict.get(norm) {
                        tag
                    } else {
                        ids.clear();
                        for_each_feature(i, &context, prev, prev2, &mut scratch, |feat| {
                            ids.push(model.intern(feat));
                        });
                        let g = model.predict_ids(&ids);
                        model.update_ids(gold.index(), g, &ids);
                        PennTag::from_index(g)
                    };
                    prev2 = prev;
                    // Condition context on the *guess* during training so
                    // decode-time and train-time distributions match.
                    prev = guess.as_str();
                }
            }
        }
        model.finalize_averaging();
        PosTagger { model, tagdict }
    }

    /// Tag a tokenized sentence. Feature strings are streamed through a
    /// reusable scratch buffer and looked up as interned ids, so tagging
    /// allocates nothing per feature.
    pub fn tag(&self, words: &[String]) -> Vec<PennTag> {
        let context = make_context(words);
        let mut tags = Vec::with_capacity(words.len());
        let mut prev: &str = START[0];
        let mut prev2: &str = START[1];
        let mut scratch = String::new();
        let mut ids: Vec<u32> = Vec::with_capacity(20);
        for i in 0..words.len() {
            let norm = context[i + 2].as_str();
            let tag = if let Some(&t) = self.tagdict.get(norm) {
                t
            } else {
                ids.clear();
                for_each_feature(i, &context, prev, prev2, &mut scratch, |feat| {
                    if let Some(id) = self.model.feature_id(feat) {
                        ids.push(id);
                    }
                });
                PennTag::from_index(self.model.predict_ids(&ids))
            };
            tags.push(tag);
            prev2 = prev;
            prev = tag.as_str();
        }
        tags
    }

    /// Tag `&str` slices (convenience for tests and examples).
    pub fn tag_strs(&self, words: &[&str]) -> Vec<PennTag> {
        let owned: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        self.tag(&owned)
    }

    /// Token-level accuracy over a gold-tagged evaluation set.
    pub fn accuracy(&self, sentences: &[TaggedSentence]) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (words, gold) in sentences {
            let pred = self.tag(words);
            total += gold.len();
            correct += pred.iter().zip(gold).filter(|(p, g)| p == g).count();
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Number of features in the underlying perceptron.
    pub fn num_features(&self) -> usize {
        self.model.num_features()
    }

    /// The underlying averaged-perceptron classifier.
    pub fn model(&self) -> &AveragedPerceptron {
        &self.model
    }

    /// Mutable model access (lint-test fault injection).
    #[doc(hidden)]
    pub fn model_mut(&mut self) -> &mut AveragedPerceptron {
        &mut self.model
    }

    /// Iterate the unambiguous-word tag dictionary.
    pub fn tagdict(&self) -> impl Iterator<Item = (&str, PennTag)> {
        self.tagdict.iter().map(|(w, &t)| (w.as_str(), t))
    }

    /// Size of the unambiguous-word dictionary.
    pub fn tagdict_len(&self) -> usize {
        self.tagdict.len()
    }
}

/// Build the unambiguous-word dictionary from training counts.
fn build_tagdict(sentences: &[TaggedSentence]) -> HashMap<String, PennTag> {
    let mut counts: BTreeMap<String, [usize; NUM_TAGS]> = BTreeMap::new();
    for (words, tags) in sentences {
        for (w, t) in words.iter().zip(tags) {
            counts.entry(normalize(w)).or_insert([0; NUM_TAGS])[t.index()] += 1;
        }
    }
    let mut dict = HashMap::new();
    for (word, row) in counts {
        let total: usize = row.iter().sum();
        let (best_idx, &best) = row
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .expect("non-empty row");
        if total >= TAGDICT_MIN_COUNT && best == total {
            dict.insert(word, PennTag::from_index(best_idx));
        }
    }
    dict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(words: &[&str], tags: &[PennTag]) -> TaggedSentence {
        (words.iter().map(|w| w.to_string()).collect(), tags.to_vec())
    }

    fn toy_corpus() -> Vec<TaggedSentence> {
        use PennTag::*;
        let mut c = Vec::new();
        for _ in 0..12 {
            c.push(s(&["2", "cups", "flour"], &[CD, NNS, NN]));
            c.push(s(&["1", "cup", "sugar"], &[CD, NN, NN]));
            c.push(s(&["1/2", "teaspoon", "salt"], &[CD, NN, NN]));
            c.push(s(&["boil", "the", "water"], &[VB, DT, NN]));
            c.push(s(&["finely", "chopped", "onion"], &[RB, VBN, NN]));
            c.push(s(&["fresh", "thyme"], &[JJ, NN]));
            c.push(s(&["2-3", "large", "eggs"], &[CD, JJ, NNS]));
        }
        c
    }

    #[test]
    fn memorizes_training_corpus() {
        let corpus = toy_corpus();
        let tagger = PosTagger::train(&corpus, 8, 7);
        let acc = tagger.accuracy(&corpus);
        assert!(acc > 0.99, "training accuracy {acc}");
    }

    #[test]
    fn generalizes_over_digits() {
        let corpus = toy_corpus();
        let tagger = PosTagger::train(&corpus, 8, 7);
        // "7" never appears in training but normalizes to !DIGITS.
        let tags = tagger.tag_strs(&["7", "cups", "sugar"]);
        assert_eq!(tags[0], PennTag::CD);
    }

    #[test]
    fn fraction_and_range_normalization() {
        assert_eq!(normalize("1/2"), "!FRACTION");
        assert_eq!(normalize("2-3"), "!RANGE");
        assert_eq!(normalize("42"), "!DIGITS");
        assert_eq!(normalize("8oz"), "!NUM");
        assert_eq!(normalize("Flour"), "flour");
    }

    #[test]
    fn suffix_prefix_respect_char_boundaries() {
        // Suffix lengths are in bytes; multi-byte chars shorten the suffix
        // rather than splitting it ("ño" is 3 bytes).
        assert_eq!(suffix("jalapeño", 3), "ño");
        assert_eq!(prefix("jalapeño", 1), "j");
        assert_eq!(suffix("ab", 3), "ab");
        assert_eq!(prefix("ab", 5), "ab");
    }

    #[test]
    fn tagdict_only_keeps_unambiguous_frequent_words() {
        let corpus = toy_corpus();
        let dict = build_tagdict(&corpus);
        assert_eq!(dict.get("flour"), Some(&PennTag::NN));
        // "cup"/"cups" are distinct normalized words, both unambiguous.
        assert_eq!(dict.get("cups"), Some(&PennTag::NNS));
        // A rare word (seen < threshold) must not enter the dictionary.
        assert!(!dict.contains_key("thyme") || corpus.len() >= TAGDICT_MIN_COUNT);
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = toy_corpus();
        let t1 = PosTagger::train(&corpus, 5, 99);
        let t2 = PosTagger::train(&corpus, 5, 99);
        let sent = ["3".to_string(), "small".to_string(), "onions".to_string()];
        assert_eq!(t1.tag(&sent), t2.tag(&sent));
    }

    #[test]
    fn empty_sentence_is_fine() {
        let tagger = PosTagger::train(&toy_corpus(), 2, 1);
        assert!(tagger.tag(&[]).is_empty());
        assert_eq!(tagger.accuracy(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let bad = vec![(vec!["a".to_string()], vec![])];
        PosTagger::train(&bad, 1, 0);
    }
}
