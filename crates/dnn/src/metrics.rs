//! Classification metrics: argmax and accuracy.

/// Index of the maximum score (first on ties).
///
/// # Panics
///
/// Panics if `scores` is empty.
#[must_use]
pub fn argmax(scores: &[u64]) -> usize {
    assert!(!scores.is_empty(), "argmax of empty scores");
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Fraction of `(predicted, actual)` pairs that agree.
#[must_use]
pub fn accuracy(pairs: &[(usize, usize)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let correct = pairs.iter().filter(|(p, a)| p == a).count() as f64;
    #[allow(clippy::cast_precision_loss)]
    {
        correct / pairs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[1, 9, 3]), 1);
        assert_eq!(argmax(&[7]), 0);
        // First index wins ties.
        assert_eq!(argmax(&[5, 5, 2]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_empty_panics() {
        let _ = argmax(&[]);
    }

    #[test]
    fn accuracy_fraction() {
        assert!((accuracy(&[(0, 0), (1, 2), (3, 3), (4, 4)]) - 0.75).abs() < 1e-12);
        assert_eq!(accuracy(&[]), 0.0);
    }
}
