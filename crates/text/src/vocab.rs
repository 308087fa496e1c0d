//! Vocabulary and bag-of-words encoding.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::hash::FxBuildHasher;

/// A sparse bag-of-words document: `(word_id, count)` pairs sorted by
/// word id, with strictly positive counts and no duplicate ids.
pub type BagOfWords = Vec<(usize, u32)>;

/// A bidirectional word ↔ id mapping: R4's topic model reads alert text
/// through it.
///
/// Ids are assigned densely in first-seen order, so a vocabulary built
/// from the same token stream is always identical — a requirement for
/// reproducible topic models. Interning only ever *appends* ids, so
/// every id handed out earlier stays valid: the stable-id growth an
/// online topic model relies on when unseen words arrive mid-stream.
///
/// # Example
///
/// ```
/// use alertops_text::Vocabulary;
///
/// let mut vocab = Vocabulary::new();
/// let doc = vocab.encode_and_update(&["disk", "full", "disk"]);
/// assert_eq!(vocab.len(), 2);
/// assert_eq!(doc, vec![(0, 2), (1, 1)]);
/// assert_eq!(vocab.word(0), Some("disk"));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    /// Fx-hashed: every token of every alert probes this map once when
    /// interning. Lookup results feed ids, never iteration order — and
    /// the unkeyed hasher makes serialized map order reproducible
    /// across processes, which the keyed default never was.
    word_to_id: HashMap<String, usize, FxBuildHasher>,
    id_to_word: Vec<String>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of distinct words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.id_to_word.len()
    }

    /// Whether the vocabulary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.id_to_word.is_empty()
    }

    /// The id of `word`, if known.
    #[must_use]
    pub fn id(&self, word: &str) -> Option<usize> {
        self.word_to_id.get(word).copied()
    }

    /// The word with id `id`, if in range.
    #[must_use]
    pub fn word(&self, id: usize) -> Option<&str> {
        self.id_to_word.get(id).map(String::as_str)
    }

    /// Interns `word`, returning its (possibly new) id.
    pub fn intern(&mut self, word: &str) -> usize {
        if let Some(&id) = self.word_to_id.get(word) {
            return id;
        }
        let id = self.id_to_word.len();
        self.id_to_word.push(word.to_owned());
        self.word_to_id.insert(word.to_owned(), id);
        id
    }

    /// Encodes `tokens` into a sorted sparse bag-of-words, adding unseen
    /// words to the vocabulary.
    pub fn encode_and_update<S: AsRef<str>>(&mut self, tokens: &[S]) -> BagOfWords {
        let mut counts: HashMap<usize, u32> = HashMap::new();
        for token in tokens {
            let id = self.intern(token.as_ref());
            *counts.entry(id).or_insert(0) += 1;
        }
        let mut doc: BagOfWords = counts.into_iter().collect();
        doc.sort_unstable_by_key(|&(id, _)| id);
        doc
    }

    /// Counts one token into an under-construction document, interning
    /// it if unseen: the streaming counterpart of
    /// [`encode_and_update`](Self::encode_and_update). Calling this for
    /// each token of a document and then sorting `doc` by id (e.g.
    /// `doc.sort_unstable_by_key(|&(id, _)| id)`) produces a bag of
    /// words byte-identical to the batch encoder — same interning
    /// order, same counts — without materializing a `Vec<String>` of
    /// tokens or a per-document counting map. Documents here are alert
    /// titles (a handful of distinct words), so the linear scan beats a
    /// hash map on both allocation and lookup cost.
    pub fn count_token(&mut self, token: &str, doc: &mut BagOfWords) {
        let id = self.intern(token);
        match doc.iter_mut().find(|entry| entry.0 == id) {
            Some(entry) => entry.1 += 1,
            None => doc.push((id, 1)),
        }
    }

    /// Forgets every word with an id of `len` or more, returning the
    /// vocabulary to the moment it held `len` words: ids are dense and
    /// only ever appended, so the survivors keep their ids and the next
    /// word interned gets id `len` again. A no-op when it holds `len`
    /// words or fewer. Undoes the interning of a speculative pass.
    pub fn truncate(&mut self, len: usize) {
        for word in self.id_to_word.drain(len.min(self.id_to_word.len())..) {
            self.word_to_id.remove(&word);
        }
    }

    /// Iterates over `(id, word)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.id_to_word
            .iter()
            .enumerate()
            .map(|(id, w)| (id, w.as_str()))
    }
}

impl<S: AsRef<str>> FromIterator<S> for Vocabulary {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut vocab = Vocabulary::new();
        for word in iter {
            vocab.intern(word.as_ref());
        }
        vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("disk");
        let b = v.intern("disk");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_first_seen_order() {
        let v: Vocabulary = ["c", "a", "b", "a"].into_iter().collect();
        assert_eq!(v.id("c"), Some(0));
        assert_eq!(v.id("a"), Some(1));
        assert_eq!(v.id("b"), Some(2));
        assert_eq!(v.len(), 3);
        assert_eq!(v.word(1), Some("a"));
        assert_eq!(v.word(9), None);
    }

    #[test]
    fn encode_counts_and_sorts() {
        let mut v = Vocabulary::new();
        let doc = v.encode_and_update(&["b", "a", "b", "b"]);
        // "b" interned first (id 0), then "a" (id 1); output sorted by id.
        assert_eq!(doc, vec![(0, 3), (1, 1)]);
    }

    #[test]
    fn empty_inputs() {
        let mut v = Vocabulary::new();
        let doc = v.encode_and_update::<&str>(&[]);
        assert!(doc.is_empty());
        assert!(v.is_empty());
    }

    #[test]
    fn iter_yields_in_id_order() {
        let v: Vocabulary = ["x", "y"].into_iter().collect();
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }

    #[test]
    fn interning_only_appends_ids() {
        let mut v: Vocabulary = ["a", "b"].into_iter().collect();
        let before: Vec<usize> = ["a", "b"].iter().filter_map(|w| v.id(w)).collect();
        v.encode_and_update(&["c", "a", "d"]);
        let after: Vec<usize> = ["a", "b"].iter().filter_map(|w| v.id(w)).collect();
        assert_eq!(before, after, "existing ids must survive growth");
        assert_eq!(v.id("c"), Some(2));
        assert_eq!(v.id("d"), Some(3));
    }

    #[test]
    fn count_token_matches_batch_encoders() {
        let docs: &[&[&str]] = &[
            &["b", "a", "b", "b"],
            &["disk", "full", "disk"],
            &[],
            &["quota", "disk", "quota", "new"],
        ];
        let mut batch_vocab: Vocabulary = ["disk", "full"].into_iter().collect();
        let mut stream_vocab = batch_vocab.clone();
        for tokens in docs {
            let expected = batch_vocab.encode_and_update(tokens);
            let mut doc = BagOfWords::new();
            for token in *tokens {
                stream_vocab.count_token(token, &mut doc);
            }
            doc.sort_unstable_by_key(|&(id, _)| id);
            assert_eq!(doc, expected, "tokens {tokens:?}");
        }
        assert_eq!(stream_vocab.len(), batch_vocab.len());
    }

    #[test]
    fn truncate_forgets_the_newest_words_only() {
        let mut v: Vocabulary = ["a", "b", "c", "d"].into_iter().collect();
        v.truncate(2);
        assert_eq!(v.iter().collect::<Vec<_>>(), [(0, "a"), (1, "b")]);
        assert_eq!((v.id("c"), v.id("d")), (None, None));
        // The next word takes the first forgotten id.
        assert_eq!(v.intern("e"), 2);
        v.truncate(9);
        assert_eq!(v.len(), 3, "truncating past the end changes nothing");
    }
}
