//! Topic models for emerging-alert detection.
//!
//! The paper's reaction **R4 — emerging alert detection** employs "the
//! adaptive online Latent Dirichlet Allocation" (its references 30 and 31) to
//! capture implicit dependencies between alerts that the manually
//! configured strategy-dependency rules miss, so that the few early
//! alerts of a gray failure can be flagged before they cascade.
//!
//! This crate implements that machinery from scratch:
//!
//! * [`math`] — the special function (digamma) and distribution
//!   utilities variational LDA needs;
//! * [`OnlineLda`] — online variational-Bayes LDA (Hoffman, Blei & Bach,
//!   NIPS 2010) fitted one window at a time: warm-started passes with a
//!   decaying learning rate and an early exit once the bound settles;
//! * [`AdaptiveOnlineLda`] — the AOLDA variant (Gao et al., ICSE 2018):
//!   one topic snapshot per time window, each window's prior adapted from
//!   the previous windows' topics, plus per-window *emerging topic*
//!   scoring by divergence from historical topics.
//!
//! # Example
//!
//! ```
//! use alertops_text::{Tokenizer, Vocabulary};
//! use alertops_topics::{LdaConfig, LdaWorkspace, OnlineLda};
//!
//! let tokenizer = Tokenizer::new();
//! let mut vocab = Vocabulary::new();
//! let docs: Vec<_> = [
//!     "disk full block allocation failed",
//!     "disk usage high block storage",
//!     "memory leak process restarting",
//!     "memory usage high oom killed",
//! ]
//! .iter()
//! .map(|s| vocab.encode_and_update(&tokenizer.tokenize(s)))
//! .collect();
//!
//! let mut lda = OnlineLda::new(LdaConfig {
//!     num_topics: 2,
//!     vocab_size: vocab.len(),
//!     ..LdaConfig::default()
//! });
//! // One bag per document: the identity index. At most 20 passes, with
//! // an early exit once the bound moves by under 1 %.
//! let mut workspace = LdaWorkspace::new();
//! let mixtures = lda.fit_window_with(&docs, &[0, 1, 2, 3], 20, 1e-2, &mut workspace);
//! assert_eq!(mixtures.len(), 4);
//! let sum: f64 = mixtures[0].iter().sum();
//! assert!((sum - 1.0).abs() < 1e-9);
//! assert_eq!(lda.topics().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod dense;
pub mod math;

mod aolda;
mod lda;

pub use aolda::{AdaptiveOnlineLda, AoldaConfig, PreparedWindow, TopicWindow, WindowTopic};
pub use lda::{LdaConfig, LdaWorkspace, OnlineLda};
