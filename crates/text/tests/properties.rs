//! Property-based tests over the text substrate.

use proptest::prelude::*;

use alertops_text::{title_report, Tokenizer, Vocabulary};

/// Alert-like text: arbitrary Unicode, camelCase and acronym runs,
/// digits glued to letters, and punctuation at either end.
fn alert_text() -> impl Strategy<Value = String> {
    prop_oneof![
        ".{0,40}",
        "[A-Za-z0-9]{0,24}",
        "[.,:;!?_()-]{0,2}([A-Z]{0,3}[a-z]{0,6}[0-9]{0,3}){1,4}[.,:;!?_()-]{0,2}",
        "[a-zé中]{0,6}[A-ZÉ]{0,3}[0-9]{0,2} ?[a-z]{0,6}",
    ]
}

proptest! {
    #[test]
    fn tokenizer_never_emits_empty_or_uppercase(s in ".{0,120}") {
        let tokens = Tokenizer::new().tokenize(&s);
        for token in &tokens {
            prop_assert!(!token.is_empty());
            prop_assert_eq!(token.to_ascii_lowercase(), token.clone());
        }
    }

    #[test]
    fn tokenizer_is_deterministic(s in ".{0,120}") {
        let t = Tokenizer::new();
        prop_assert_eq!(t.tokenize(&s), t.tokenize(&s));
    }

    /// The emerging channel tokenizes an alert's title and service
    /// separately instead of their `"{title} {service}"` join; the space
    /// is a split point, so the join's tokens are the title's followed
    /// by the service's — whatever either side ends or starts with.
    #[test]
    fn tokens_of_a_space_join_are_the_tokens_of_each_side(
        a in alert_text(),
        b in alert_text(),
        drop_numbers in any::<bool>(),
    ) {
        let t = if drop_numbers { Tokenizer::new().drop_numbers() } else { Tokenizer::new() };
        let mut scratch = String::new();
        let mut joined = Vec::new();
        t.for_each_token(&format!("{a} {b}"), &mut scratch, |tok| joined.push(tok.to_owned()));
        let mut separate = Vec::new();
        for side in [&a, &b] {
            t.for_each_token(side, &mut scratch, |tok| separate.push(tok.to_owned()));
        }
        prop_assert_eq!(joined, separate);
    }

    #[test]
    fn title_scores_are_bounded(s in ".{0,160}") {
        let score = title_report(&s).score;
        prop_assert!((0.0..=1.0).contains(&score), "score {}", score);
    }

    #[test]
    fn vocabulary_encode_preserves_token_count(
        tokens in prop::collection::vec("[a-z]{1,5}", 0..40),
    ) {
        let mut vocab = Vocabulary::new();
        let doc = vocab.encode_and_update(&tokens);
        let total: u32 = doc.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total as usize, tokens.len());
        // Ids are sorted and unique.
        for w in doc.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        // Re-encoding known tokens gives the same bag and interns
        // nothing.
        let len = vocab.len();
        prop_assert_eq!(vocab.encode_and_update(&tokens), doc);
        prop_assert_eq!(vocab.len(), len);
    }
}
