#![warn(missing_docs)]

//! Part-of-speech tagging substrate.
//!
//! The paper POS-tags every ingredient phrase with the Stanford *Twitter*
//! POS model — chosen because ingredient phrases are not grammatical
//! sentences and resemble tweets — and represents each phrase as a **1×36
//! vector of Penn Treebank tag frequencies** (§II.D). Those vectors feed
//! the K-Means clustering that drives training-set selection.
//!
//! This crate provides:
//!
//! * [`tagset::PennTag`] — the 36-tag Penn Treebank tagset;
//! * [`tagger::PosTagger`] — an averaged-perceptron sequence tagger
//!   (the same model family as NLTK's `PerceptronTagger`) with
//!   recipe-aware surface features;
//! * [`vectorize`] — the phrase → 1×36 frequency-vector encoding.
//!
//! # Example
//!
//! ```
//! use recipe_tagger::{PosTagger, PennTag};
//!
//! // Train on a toy corpus of (words, tags) pairs.
//! let corpus = vec![
//!     (vec!["2".into(), "cups".into(), "flour".into()],
//!      vec![PennTag::CD, PennTag::NNS, PennTag::NN]),
//!     (vec!["1".into(), "cup".into(), "sugar".into()],
//!      vec![PennTag::CD, PennTag::NN, PennTag::NN]),
//! ];
//! let tagger = PosTagger::train(&corpus, 5, 42);
//! let tags = tagger.tag(&["3".into(), "cups".into(), "sugar".into()]);
//! assert_eq!(tags[0], PennTag::CD);
//! ```

pub mod artifact;
pub mod compiled;
pub mod perceptron;
pub mod tagger;
pub mod tagset;
pub mod vectorize;

pub use artifact::PosView;
pub use compiled::{tag_into, CompiledPosTagger, TagScratch};
pub use tagger::PosTagger;
pub use tagset::PennTag;
pub use vectorize::{pos_frequency_vector, POS_VECTOR_DIM};

#[cfg(test)]
/// Provenance recording is process-global, so the unit tests that
/// run the tag kernel serialize on this lock: one test's enabled window
/// must never capture (or perturb) another test's decode.
pub(crate) fn provenance_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
