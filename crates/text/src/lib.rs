//! Text-analysis substrate for alert governance.
//!
//! Alert titles and descriptions are short, semi-structured strings
//! ("`Failed to allocate new blocks, disk full`",
//! "`nginx_cpu_usage_over_80`"). Several parts of the DSN'22 reproduction
//! need light-weight NLP over them:
//!
//! * the **A1 (unclear name or description)** detector, the QoA
//!   handleability criterion and the guideline linter score how
//!   informative a title is with one stateless function,
//!   [`title_report`] ([`lexicon`]);
//! * **emerging alert detection (R4)** feeds bag-of-words documents into
//!   an online LDA ([`Tokenizer`], [`Vocabulary`]).
//!
//! Everything is implemented from scratch — no external NLP dependencies —
//! which is both a supply-chain decision and a consequence of the thin
//! Rust NLP ecosystem the reproduction plan calls out.
//!
//! # Example
//!
//! ```
//! use alertops_text::{Tokenizer, Vocabulary};
//!
//! let tokenizer = Tokenizer::new();
//! let tokens = tokenizer.tokenize("nginx_cpu_usage_over_80: CPU usage > 80%");
//! assert!(tokens.iter().any(|t| t == "nginx"));
//! assert!(tokens.iter().any(|t| t == "cpu"));
//!
//! let mut vocab = Vocabulary::new();
//! let doc = vocab.encode_and_update(&tokens);
//! assert!(!doc.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod hash;
pub mod lexicon;

mod token;
mod vocab;

pub use hash::{FxBuildHasher, FxHasher};
pub use lexicon::{title_report, InformativenessReport};
pub use token::Tokenizer;
pub use vocab::{BagOfWords, Vocabulary};
