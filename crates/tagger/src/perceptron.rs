//! Averaged multiclass perceptron over sparse string features.
//!
//! The classifier behind both the POS tagger and the dependency parser's
//! transition classifier. Weights are kept per feature as a dense row over
//! the (small) class inventory; averaging uses the lazy totals/timestamps
//! trick so training stays O(active features) per update.
//!
//! Feature strings are interned to dense `u32` ids: the rows live in a
//! `Vec` indexed by id, and the hot paths ([`AveragedPerceptron::scores_ids`],
//! [`AveragedPerceptron::update_ids`]) never touch a string. Callers that
//! stream features through a scratch buffer (the POS tagger) pay one hash
//! lookup per feature and zero per-feature allocations; the string-slice
//! API remains for callers that already hold feature vectors.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-feature weight row with the bookkeeping needed for lazy averaging.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Row {
    /// Current weights, one per class.
    w: Vec<f64>,
    /// Accumulated `w * steps` totals, one per class.
    totals: Vec<f64>,
    /// Step at which each class weight last changed.
    stamps: Vec<u64>,
}

impl Row {
    fn new(classes: usize) -> Self {
        Row {
            w: vec![0.0; classes],
            totals: vec![0.0; classes],
            stamps: vec![0; classes],
        }
    }
}

/// Averaged multiclass perceptron.
///
/// Classes are dense `usize` ids in `0..num_classes`; features are interned
/// strings. Scoring sums the weight rows of the active features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AveragedPerceptron {
    /// Feature string → dense row id.
    ids: HashMap<String, u32>,
    /// Weight rows, indexed by feature id.
    rows: Vec<Row>,
    num_classes: usize,
    /// Global update counter (number of `update` calls so far).
    steps: u64,
    /// Whether `finalize_averaging` has run.
    averaged: bool,
}

impl AveragedPerceptron {
    /// Create an empty model for `num_classes` classes.
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes > 0, "need at least one class");
        AveragedPerceptron {
            ids: HashMap::new(),
            rows: Vec::new(),
            num_classes,
            steps: 0,
            averaged: false,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of distinct features seen.
    pub fn num_features(&self) -> usize {
        self.rows.len()
    }

    /// Dense id of a known feature (`None` for unseen features, which
    /// carry zero weight anyway).
    pub fn feature_id(&self, feature: &str) -> Option<u32> {
        self.ids.get(feature).copied()
    }

    /// Id for `feature`, allocating a fresh zero row on first sight.
    pub fn intern(&mut self, feature: &str) -> u32 {
        if let Some(&id) = self.ids.get(feature) {
            return id;
        }
        let id = self.rows.len() as u32;
        self.ids.insert(feature.to_string(), id);
        self.rows.push(Row::new(self.num_classes));
        id
    }

    /// Iterate `(feature, current weights)` rows, in arbitrary order.
    pub fn weight_rows(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.ids
            .iter()
            .map(|(f, &id)| (f.as_str(), self.rows[id as usize].w.as_slice()))
    }

    /// Overwrite one weight, creating the feature row if absent. Exists
    /// for fault injection in artifact-lint tests; not a training API.
    #[doc(hidden)]
    pub fn inject_weight(&mut self, feature: &str, class: usize, value: f64) {
        let id = self.intern(feature);
        self.rows[id as usize].w[class] = value;
    }

    /// Score every class for the given active feature ids.
    pub fn scores_ids(&self, ids: &[u32]) -> Vec<f64> {
        let mut s = vec![0.0; self.num_classes];
        for &id in ids {
            for (acc, w) in s.iter_mut().zip(&self.rows[id as usize].w) {
                *acc += *w;
            }
        }
        s
    }

    /// Highest-scoring class for the given active feature ids.
    pub fn predict_ids(&self, ids: &[u32]) -> usize {
        argmax(&self.scores_ids(ids))
    }

    /// Score every class for the given active features. Unknown features
    /// are skipped (zero weight).
    pub fn scores(&self, features: &[String]) -> Vec<f64> {
        let mut s = vec![0.0; self.num_classes];
        for f in features {
            if let Some(&id) = self.ids.get(f) {
                for (acc, w) in s.iter_mut().zip(&self.rows[id as usize].w) {
                    *acc += *w;
                }
            }
        }
        s
    }

    /// Highest-scoring class (ties break toward the lower class id, which
    /// keeps prediction deterministic).
    pub fn predict(&self, features: &[String]) -> usize {
        let s = self.scores(features);
        argmax(&s)
    }

    /// Highest-scoring class among `allowed` (used by constrained decoders).
    pub fn predict_constrained(&self, features: &[String], allowed: &[usize]) -> usize {
        debug_assert!(!allowed.is_empty());
        let s = self.scores(features);
        let mut best = allowed[0];
        for &c in &allowed[1..] {
            if s[c] > s[best] {
                best = c;
            }
        }
        best
    }

    /// Perceptron update on interned feature ids: promote `truth`, demote
    /// `guess` (no-op when they agree, except for the step counter).
    pub fn update_ids(&mut self, truth: usize, guess: usize, ids: &[u32]) {
        assert!(
            !self.averaged,
            "cannot keep training after finalize_averaging"
        );
        self.steps += 1;
        if truth == guess {
            return;
        }
        let steps = self.steps;
        for &id in ids {
            let row = &mut self.rows[id as usize];
            for (c, delta) in [(truth, 1.0), (guess, -1.0)] {
                let elapsed = steps - row.stamps[c];
                row.totals[c] += elapsed as f64 * row.w[c];
                row.w[c] += delta;
                row.stamps[c] = steps;
            }
        }
    }

    /// Perceptron update on feature strings, interning as needed.
    pub fn update(&mut self, truth: usize, guess: usize, features: &[String]) {
        assert!(
            !self.averaged,
            "cannot keep training after finalize_averaging"
        );
        if truth == guess {
            self.steps += 1;
            return;
        }
        let ids: Vec<u32> = features.iter().map(|f| self.intern(f)).collect();
        self.update_ids(truth, guess, &ids);
    }

    /// Replace each weight with its average over all training steps.
    /// Call exactly once, after the last `update`.
    pub fn finalize_averaging(&mut self) {
        if self.averaged || self.steps == 0 {
            self.averaged = true;
            return;
        }
        let steps = self.steps;
        for row in &mut self.rows {
            for c in 0..self.num_classes {
                let elapsed = steps - row.stamps[c];
                row.totals[c] += elapsed as f64 * row.w[c];
                row.w[c] = row.totals[c] / steps as f64;
                row.stamps[c] = steps;
            }
        }
        self.averaged = true;
        // Drop all-zero rows (they cost memory and change nothing),
        // compacting surviving ids densely in old-id order.
        let keep: Vec<bool> = self
            .rows
            .iter()
            .map(|row| row.w.iter().any(|&w| w != 0.0))
            .collect();
        let mut remap: Vec<Option<u32>> = Vec::with_capacity(keep.len());
        let mut next = 0u32;
        for &k in &keep {
            if k {
                remap.push(Some(next));
                next += 1;
            } else {
                remap.push(None);
            }
        }
        let mut i = 0;
        self.rows.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        self.ids.retain(|_, id| match remap[*id as usize] {
            Some(new) => {
                *id = new;
                true
            }
            None => false,
        });
    }
}

/// Index of the maximum value (first on ties). Panics on empty input.
#[inline]
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feats(fs: &[&str]) -> Vec<String> {
        fs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn learns_a_separable_problem() {
        let mut p = AveragedPerceptron::new(2);
        let a = feats(&["bias", "w=red"]);
        let b = feats(&["bias", "w=blue"]);
        for _ in 0..10 {
            let g = p.predict(&a);
            p.update(0, g, &a);
            let g = p.predict(&b);
            p.update(1, g, &b);
        }
        p.finalize_averaging();
        assert_eq!(p.predict(&a), 0);
        assert_eq!(p.predict(&b), 1);
    }

    #[test]
    fn correct_prediction_changes_nothing_but_steps() {
        let mut p = AveragedPerceptron::new(3);
        let f = feats(&["x"]);
        p.update(1, 0, &f); // creates the row
        let before = p.scores(&f);
        p.update(1, 1, &f); // truth == guess
        assert_eq!(p.scores(&f), before);
    }

    #[test]
    fn averaging_matches_manual_computation() {
        // One feature, two classes, two updates at steps 1 and 2, finalize
        // after 4 steps total.
        let mut p = AveragedPerceptron::new(2);
        let f = feats(&["f"]);
        p.update(0, 1, &f); // step1: w0=+1,w1=-1
        p.update(0, 1, &f); // step2: w0=+2,w1=-2
        p.update(0, 0, &f); // step3: no weight change
        p.update(0, 0, &f); // step4
        p.finalize_averaging();
        // Lazy averaging integrates the weight value over the interval it
        // was in force: w0 = 1 for one step (between updates 1 and 2) and
        // 2 for two steps (update 2 → finalize) -> (1*1 + 2*2) / 4 = 5/4.
        let s = p.scores(&f);
        assert!((s[0] - 5.0 / 4.0).abs() < 1e-12, "{s:?}");
        assert!((s[1] + 5.0 / 4.0).abs() < 1e-12, "{s:?}");
    }

    #[test]
    fn unseen_features_score_zero() {
        let p = AveragedPerceptron::new(4);
        assert_eq!(p.scores(&feats(&["nope"])), vec![0.0; 4]);
        assert_eq!(p.predict(&feats(&["nope"])), 0);
    }

    #[test]
    fn constrained_prediction_respects_allowed_set() {
        let mut p = AveragedPerceptron::new(3);
        let f = feats(&["f"]);
        for _ in 0..5 {
            let g = p.predict(&f);
            p.update(2, g, &f);
        }
        p.finalize_averaging();
        assert_eq!(p.predict(&f), 2);
        assert_eq!(
            p.predict_constrained(&f, &[0, 1]),
            argmax(&p.scores(&f)[..2])
        );
    }

    #[test]
    #[should_panic(expected = "cannot keep training")]
    fn training_after_averaging_panics() {
        let mut p = AveragedPerceptron::new(2);
        p.finalize_averaging();
        p.update(0, 1, &feats(&["f"]));
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
    }

    #[test]
    fn id_api_matches_string_api() {
        let mut p = AveragedPerceptron::new(3);
        let fs = feats(&["bias", "w=hot", "sh=x"]);
        // Train via the string API.
        for _ in 0..6 {
            let g = p.predict(&fs);
            p.update(2, g, &fs);
        }
        let ids: Vec<u32> = fs.iter().map(|f| p.feature_id(f).unwrap()).collect();
        assert_eq!(p.scores_ids(&ids), p.scores(&fs));
        assert_eq!(p.predict_ids(&ids), p.predict(&fs));
        // Training via ids matches training via strings.
        let mut q = p.clone();
        p.update(2, 0, &fs);
        q.update_ids(2, 0, &ids);
        assert_eq!(p.scores(&fs), q.scores(&fs));
    }

    #[test]
    fn finalize_compacts_zero_rows_and_keeps_lookups_valid() {
        let mut p = AveragedPerceptron::new(2);
        // "dead" is interned but never pushed away from zero.
        p.intern("dead");
        let live = feats(&["live"]);
        p.update(0, 1, &live);
        p.update(0, 1, &live);
        p.finalize_averaging();
        assert_eq!(p.feature_id("dead"), None);
        assert_eq!(p.num_features(), 1);
        let id = p.feature_id("live").expect("live survives");
        assert_eq!(p.scores_ids(&[id]), p.scores(&live));
        assert!(p.scores(&live)[0] > 0.0);
    }

    #[test]
    fn intern_is_stable_and_dense() {
        let mut p = AveragedPerceptron::new(2);
        assert_eq!(p.intern("a"), 0);
        assert_eq!(p.intern("b"), 1);
        assert_eq!(p.intern("a"), 0);
        assert_eq!(p.num_features(), 2);
    }
}
