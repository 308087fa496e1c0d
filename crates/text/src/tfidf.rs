//! TF-IDF weighting over bag-of-words corpora.

use serde::{Deserialize, Serialize};

use crate::vocab::BagOfWords;

/// A TF-IDF model fit over a corpus of bag-of-words documents.
///
/// Uses smoothed inverse document frequency
/// `idf(w) = ln((1 + N) / (1 + df(w))) + 1` (the scikit-learn
/// formulation), so unseen words still get a finite weight and no word
/// gets zero weight. Term frequency is raw count; vectors can be
/// L2-normalized on demand.
///
/// # Example
///
/// ```
/// use alertops_text::{TfIdf, Tokenizer, Vocabulary};
///
/// let tokenizer = Tokenizer::new();
/// let mut vocab = Vocabulary::new();
/// let corpus: Vec<_> = [
///     "disk full on instance a",
///     "disk latency high",
///     "memory leak detected",
/// ]
/// .iter()
/// .map(|s| vocab.encode_and_update(&tokenizer.tokenize(s)))
/// .collect();
///
/// let model = TfIdf::fit(vocab.len(), &corpus);
/// let weights = model.transform(&corpus[0]);
/// // "disk" appears in 2 of 3 docs, so it is down-weighted vs "full".
/// let disk = vocab.id("disk").unwrap();
/// let full = vocab.id("full").unwrap();
/// let w = |id| weights.iter().find(|(i, _)| *i == id).unwrap().1;
/// assert!(w(disk) < w(full));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfIdf {
    idf: Vec<f64>,
    n_docs: usize,
}

impl TfIdf {
    /// Fits IDF weights over `corpus`, for a vocabulary of `vocab_size`
    /// words. Word ids in the corpus that exceed `vocab_size` are
    /// ignored.
    #[must_use]
    pub fn fit(vocab_size: usize, corpus: &[BagOfWords]) -> Self {
        let mut df = vec![0usize; vocab_size];
        for doc in corpus {
            for &(id, _) in doc {
                if let Some(slot) = df.get_mut(id) {
                    *slot += 1;
                }
            }
        }
        let n = corpus.len();
        let idf = df
            .into_iter()
            .map(|d| ((1 + n) as f64 / (1 + d) as f64).ln() + 1.0)
            .collect();
        Self { idf, n_docs: n }
    }

    /// The number of documents the model was fit on.
    #[must_use]
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// The IDF weight of word `id` (the smoothed out-of-vocabulary weight
    /// if `id` is out of range).
    #[must_use]
    pub fn idf(&self, id: usize) -> f64 {
        self.idf
            .get(id)
            .copied()
            .unwrap_or_else(|| ((1 + self.n_docs) as f64).ln() + 1.0)
    }

    /// Transforms a document into sparse TF-IDF weights (unnormalized).
    #[must_use]
    pub fn transform(&self, doc: &BagOfWords) -> Vec<(usize, f64)> {
        doc.iter()
            .map(|&(id, count)| (id, count as f64 * self.idf(id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<BagOfWords> {
        // word 0 in every doc, word 1 in one doc, word 2 in two docs.
        vec![
            vec![(0, 1), (1, 2)],
            vec![(0, 3), (2, 1)],
            vec![(0, 1), (2, 2)],
        ]
    }

    #[test]
    fn rarer_words_weigh_more() {
        let model = TfIdf::fit(3, &corpus());
        assert!(model.idf(1) > model.idf(2));
        assert!(model.idf(2) > model.idf(0));
    }

    #[test]
    fn ubiquitous_word_has_idf_one() {
        // df == n ⇒ ln(1) + 1 == 1.
        let model = TfIdf::fit(3, &corpus());
        assert!((model.idf(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_id_gets_max_weight() {
        let model = TfIdf::fit(3, &corpus());
        let oov = model.idf(99);
        assert!(oov >= model.idf(1));
    }

    #[test]
    fn transform_scales_by_count() {
        let model = TfIdf::fit(3, &corpus());
        let weights = model.transform(&vec![(1, 2)]);
        assert_eq!(weights.len(), 1);
        assert!((weights[0].1 - 2.0 * model.idf(1)).abs() < 1e-12);
    }

    #[test]
    fn empty_corpus_is_fine() {
        let model = TfIdf::fit(4, &[]);
        assert_eq!(model.n_docs(), 0);
        assert!((model.idf(0) - 1.0).abs() < 1e-12);
    }
}
