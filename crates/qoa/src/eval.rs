//! Evaluation metric for learned QoA models.

/// Area under the ROC curve, computed via the rank-sum (Mann–Whitney)
/// formulation with midrank tie handling. Returns `None` when either
/// class is absent, or when a score is not finite (NaN or infinite):
/// such a score has no rank.
#[must_use]
pub fn auc(scores: &[f64], truth: &[bool]) -> Option<f64> {
    assert_eq!(scores.len(), truth.len(), "length mismatch");
    let positives = truth.iter().filter(|&&t| t).count();
    let negatives = truth.len() - positives;
    if positives == 0 || negatives == 0 || !scores.iter().all(|s| s.is_finite()) {
        return None;
    }
    // Rank scores ascending with midranks for ties. The scores are
    // finite, so `total_cmp` is the `partial_cmp` order except that it
    // puts -0.0 just before 0.0; the tie scan below compares with `==`,
    // so the two still share one midrank.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &ix in &order[i..=j] {
            ranks[ix] = midrank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = ranks
        .iter()
        .zip(truth)
        .filter(|(_, &t)| t)
        .map(|(r, _)| r)
        .sum();
    let u = rank_sum_pos - positives as f64 * (positives as f64 + 1.0) / 2.0;
    Some(u / (positives as f64 * negatives as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_separation() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let truth = [false, false, true, true];
        assert_eq!(auc(&scores, &truth), Some(1.0));
        let inverted = [true, true, false, false];
        assert_eq!(auc(&scores, &inverted), Some(0.0));
    }

    #[test]
    fn auc_random_is_half() {
        // All scores tied: AUC must be exactly 0.5 via midranks.
        let scores = [0.5; 10];
        let truth = [
            true, false, true, false, true, false, true, false, true, false,
        ];
        let a = auc(&scores, &truth).unwrap();
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_of_a_non_finite_score_is_none() {
        let truth = [true, false, true];
        assert_eq!(auc(&[0.9, f64::NAN, 0.1], &truth), None);
        assert_eq!(auc(&[0.9, 0.2, f64::INFINITY], &truth), None);
        // Signed zeros tie: one midrank for both.
        assert_eq!(auc(&[0.0, -0.0, 1.0], &truth), Some(0.75));
    }

    #[test]
    fn auc_single_class_is_none() {
        assert_eq!(auc(&[0.1, 0.9], &[true, true]), None);
        assert_eq!(auc(&[0.1, 0.9], &[false, false]), None);
    }

    #[test]
    fn auc_partial_overlap() {
        // One inverted pair among four: AUC = 3/4.
        let scores = [0.1, 0.3, 0.45, 0.8];
        let truth = [false, true, false, true];
        let a = auc(&scores, &truth).unwrap();
        assert!((a - 0.75).abs() < 1e-12);
    }
}
