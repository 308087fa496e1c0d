//! Tokenization of alert titles, descriptions, and log lines.

use std::collections::HashSet;

use crate::hash::FxBuildHasher;

/// Default English + operations stopwords stripped during tokenization.
///
/// The list is intentionally small: alert titles are short and most words
/// carry signal. Vague words like "abnormal" are *not* stopwords — the A1
/// detector needs to see them.
const DEFAULT_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "have", "in", "is",
    "it", "its", "of", "on", "or", "than", "that", "the", "then", "this", "to", "was", "were",
    "will", "with",
];

/// A deterministic, allocation-light tokenizer for alert text.
///
/// Pipeline:
/// 1. split on any non-alphanumeric byte (so `nginx_cpu_usage_over_80`
///    yields `nginx cpu usage over 80`);
/// 2. split camelCase boundaries (`HaProxyDown` → `ha proxy down`);
/// 3. lowercase;
/// 4. drop stopwords and empty fragments;
/// 5. optionally drop pure numbers (kept by default — thresholds like
///    `80` are informative in titles).
///
/// # Example
///
/// ```
/// use alertops_text::Tokenizer;
///
/// let t = Tokenizer::new();
/// assert_eq!(
///     t.tokenize("HaproxyProcessNumber warning"),
///     vec!["haproxy", "process", "number", "warning"],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Tokenizer {
    /// Fx-hashed: probed once per token on the emerging channel's hot
    /// path, and membership is the only operation — iteration order
    /// never matters.
    stopwords: HashSet<String, FxBuildHasher>,
    keep_numbers: bool,
}

impl Tokenizer {
    /// Creates a tokenizer with the default stopword list, keeping
    /// numeric tokens.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stopwords: DEFAULT_STOPWORDS.iter().map(|s| (*s).to_owned()).collect(),
            keep_numbers: true,
        }
    }

    /// Drops purely numeric tokens (useful for topic modelling, where
    /// instance numbers are noise).
    #[must_use]
    pub fn drop_numbers(mut self) -> Self {
        self.keep_numbers = false;
        self
    }

    /// Tokenizes `text` into lowercase tokens.
    ///
    /// The output never contains empty strings, and is deterministic for
    /// a given tokenizer configuration.
    #[must_use]
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut scratch = String::new();
        self.for_each_token(text, &mut scratch, |tok| tokens.push(tok.to_owned()));
        tokens
    }

    /// Streams the tokens of `text` into `f` without allocating per
    /// token: each token is lowercased into `scratch` (a caller-owned
    /// buffer, reused across calls) and handed to `f` as a borrowed
    /// `&str` valid only for that invocation.
    ///
    /// This visits exactly the tokens [`tokenize`](Self::tokenize) would
    /// return, in the same order — `tokenize` is implemented on top of
    /// this — so a consumer that interns the borrowed tokens observes a
    /// byte-identical stream to one that materializes the `Vec<String>`.
    /// Hot paths (the emerging-alert channel encodes every alert title
    /// every window) use this to skip the two allocations per token that
    /// `tokenize` pays (the lowercased `String` plus the `Vec` slot).
    pub fn for_each_token(&self, text: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
        for raw in text.split(|c: char| !c.is_alphanumeric()) {
            if raw.is_empty() {
                continue;
            }
            for_each_camel_piece(raw, |piece| {
                scratch.clear();
                for ch in piece.chars() {
                    scratch.push(ch.to_ascii_lowercase());
                }
                if self.stopwords.contains(scratch.as_str()) {
                    return;
                }
                if !self.keep_numbers && scratch.bytes().all(|b| b.is_ascii_digit()) {
                    return;
                }
                f(scratch);
            });
        }
    }
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self::new()
    }
}

/// Splits a single alphanumeric run on camelCase boundaries and
/// letter/digit boundaries: `"HAProxy2Down"` → `["HA", "Proxy", "2", "Down"]`
/// (approximately; consecutive uppercase letters stay together until a
/// lowercase letter follows).
#[cfg(test)]
fn split_camel_and_digits(s: &str) -> Vec<&str> {
    let mut pieces = Vec::new();
    for_each_camel_piece(s, |p| pieces.push(p));
    pieces
}

/// Internal-iterator form of [`split_camel_and_digits`]: visits each
/// non-empty piece without building a `Vec`. The boundary rules are the
/// tokenizer's contract; the `Vec` wrapper above exists only for tests
/// and callers that genuinely need the collection.
fn for_each_camel_piece<'a>(s: &'a str, mut f: impl FnMut(&'a str)) {
    let bytes = s.as_bytes();
    let mut start = 0;
    for i in 1..bytes.len() {
        let prev = bytes[i - 1] as char;
        let cur = bytes[i] as char;
        let boundary =
            // lower/digit → upper: fooBar, foo2Bar handled by digit rule
            (prev.is_ascii_lowercase() && cur.is_ascii_uppercase())
            // letter → digit or digit → letter
            || (prev.is_ascii_alphabetic() && cur.is_ascii_digit())
            || (prev.is_ascii_digit() && cur.is_ascii_alphabetic())
            // acronym end: "HTTPServer" → "HTTP" | "Server"
            || (prev.is_ascii_uppercase()
                && cur.is_ascii_uppercase()
                && bytes.get(i + 1).is_some_and(|b| (*b as char).is_ascii_lowercase()));
        if boundary {
            if start < i {
                f(&s[start..i]);
            }
            start = i;
        }
    }
    // Non-ASCII input skips boundary logic gracefully: the slice indices
    // above only fire on ASCII classes, and a trailing multi-byte char
    // simply stays inside its piece.
    if start < s.len() {
        f(&s[start..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_snake_case() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("nginx_cpu_usage_over_80"),
            vec!["nginx", "cpu", "usage", "over", "80"]
        );
    }

    #[test]
    fn splits_camel_case_and_acronyms() {
        assert_eq!(split_camel_and_digits("fooBar"), vec!["foo", "Bar"]);
        assert_eq!(split_camel_and_digits("HTTPServer"), vec!["HTTP", "Server"]);
        assert_eq!(
            split_camel_and_digits("proxy2down"),
            vec!["proxy", "2", "down"]
        );
        assert_eq!(split_camel_and_digits("x"), vec!["x"]);
    }

    #[test]
    fn lowercases_and_strips_stopwords() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("Failed to commit THE changes"),
            vec!["failed", "commit", "changes"]
        );
    }

    #[test]
    fn drop_numbers_removes_pure_numerics_only() {
        let t = Tokenizer::new().drop_numbers();
        assert_eq!(t.tokenize("disk 80 vm42"), vec!["disk", "vm"]);
    }

    #[test]
    fn no_empty_tokens_ever() {
        let t = Tokenizer::new();
        for text in ["", "   ", "___", "a__b", "!!!", "--x--"] {
            assert!(t.tokenize(text).iter().all(|tok| !tok.is_empty()));
        }
    }

    #[test]
    fn handles_non_ascii_without_panicking() {
        let t = Tokenizer::new();
        let tokens = t.tokenize("磁盘 full déjà vu");
        assert!(tokens.iter().any(|x| x == "full"));
    }

    #[test]
    fn for_each_token_matches_tokenize() {
        let configs = [Tokenizer::new(), Tokenizer::new().drop_numbers()];
        let texts = [
            "nginx_cpu_usage_over_80: CPU usage > 80%",
            "HaproxyProcessNumber warning",
            "Failed to commit THE changes",
            "磁盘 full déjà vu",
            "",
            "--x-- !!! a__b vm42 HTTPServer2Down",
        ];
        for t in &configs {
            for text in &texts {
                let mut streamed = Vec::new();
                let mut scratch = String::new();
                t.for_each_token(text, &mut scratch, |tok| streamed.push(tok.to_owned()));
                assert_eq!(streamed, t.tokenize(text), "mismatch on {text:?}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let t = Tokenizer::new();
        let a = t.tokenize("Instance x is abnormal");
        let b = t.tokenize("Instance x is abnormal");
        assert_eq!(a, b);
    }
}
