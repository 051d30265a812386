#![warn(missing_docs)]

//! Named Entity Recognition substrate: linear-chain CRF and structured
//! averaged perceptron with Stanford-NER-style features.
//!
//! The paper trains the Stanford NER tagger — a linear-chain Conditional
//! Random Field over lexical, shape and context features — twice:
//!
//! * on ingredient phrases with the seven attribute tags of Table II
//!   ([`labels::IngredientTag`]);
//! * on instruction sentences with process/utensil/ingredient tags
//!   ([`labels::InstructionTag`], Table V).
//!
//! This crate implements the same model family from scratch:
//!
//! * [`features::FeatureExtractor`] — feature templates (word identity,
//!   shape, prefixes/suffixes, context window);
//! * [`crf::LinearChainCrf`] — exact forward–backward training with
//!   AdaGrad and L2 regularization, Viterbi decoding;
//! * [`perceptron::StructuredPerceptron`] — a fast averaged structured
//!   perceptron over the identical parameterization (ablation baseline);
//! * [`model::SequenceModel`] / [`model::TrainConfig`] — a common training
//!   and prediction interface over both.
//!
//! # Example
//!
//! ```
//! use recipe_ner::labels::LabelSet;
//! use recipe_ner::model::{SequenceModel, TrainConfig, Trainer};
//!
//! let labels = LabelSet::new(&["O", "NAME", "QUANTITY"]);
//! let train: Vec<(Vec<String>, Vec<String>)> = vec![
//!     (vec!["2".into(), "cups".into(), "flour".into()],
//!      vec!["QUANTITY".into(), "O".into(), "NAME".into()]),
//!     (vec!["1".into(), "pinch".into(), "salt".into()],
//!      vec!["QUANTITY".into(), "O".into(), "NAME".into()]),
//! ];
//! let cfg = TrainConfig { trainer: Trainer::Perceptron, epochs: 10, seed: 1, ..TrainConfig::default() };
//! let model = SequenceModel::train(&labels, &train, &cfg);
//! let pred = model.predict(&["3".into(), "cups".into(), "sugar".into()]);
//! assert_eq!(pred, ["QUANTITY", "O", "NAME"]);
//! ```

pub mod artifact;
pub mod compiled;
pub mod crf;
pub mod decode;
pub mod encode;
pub mod features;
pub mod labels;
pub mod lbfgs;
pub mod model;
pub mod perceptron;
pub mod scheme;

pub use artifact::NerView;
pub use compiled::{CompiledParams, CompiledSequenceModel, DecodeScratch};
pub use labels::{IngredientTag, InstructionTag, LabelSet};
pub use model::{SequenceModel, TrainConfig, Trainer};

#[cfg(test)]
/// Provenance recording is process-global, so the unit tests that
/// read decode margins serialize on this lock: one test's enabled window
/// must never capture (or perturb) another test's decode.
pub(crate) fn provenance_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
