//! The h-index operator at the heart of MPM (paper Fig. 2).
//!
//! Given the multiset `A` of the neighbors' current core-number estimates,
//! the operator returns `max { i : at least i elements of A are >= i }`.
//! MPM initializes each estimate to the degree and applies the operator until
//! a global fixpoint; the fixpoint is exactly the core number.

/// h-index of `values`: the largest `h` such that at least `h` values are
/// `>= h`. Runs in O(len) time and O(min(len, bound)+1) scratch space using
/// counting buckets; `scratch` is reused across calls to avoid allocation.
///
/// `bound` caps the answer (MPM uses the vertex's current estimate, since the
/// estimate never increases).
pub fn h_index_bounded(
    values: impl Iterator<Item = u32>,
    bound: u32,
    scratch: &mut Vec<u32>,
) -> u32 {
    let b = bound as usize;
    scratch.clear();
    scratch.resize(b + 1, 0);
    for v in values {
        let capped = (v as usize).min(b);
        scratch[capped] += 1;
    }
    // Scan from the top: h is the largest i with (count of values >= i) >= i.
    let mut at_least = 0u32;
    for i in (1..=b).rev() {
        at_least += scratch[i];
        if at_least as usize >= i {
            return i as u32;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// h-index of `values`, bounded by their count (never binding).
    fn h_index(values: &[u32]) -> u32 {
        h_index_bounded(values.iter().copied(), values.len() as u32, &mut Vec::new())
    }

    #[test]
    fn paper_example() {
        // Fig. 2: sorted estimates [5,5,3,3,2,2] -> h = 3.
        assert_eq!(h_index(&[5, 5, 3, 3, 2, 2]), 3);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(h_index(&[]), 0);
        assert_eq!(h_index(&[0]), 0);
        assert_eq!(h_index(&[1]), 1);
        assert_eq!(h_index(&[100]), 1);
        assert_eq!(h_index(&[1, 1, 1]), 1);
        assert_eq!(h_index(&[3, 3, 3]), 3);
        assert_eq!(h_index(&[4, 4, 4]), 3);
    }

    #[test]
    fn bound_caps_result() {
        let mut scratch = Vec::new();
        let vals = [9u32, 9, 9, 9, 9];
        assert_eq!(h_index_bounded(vals.iter().copied(), 3, &mut scratch), 3);
        assert_eq!(h_index_bounded(vals.iter().copied(), 10, &mut scratch), 5);
    }

    #[test]
    fn matches_sort_based_definition() {
        // Cross-check against the textbook sort-and-scan definition.
        let cases: Vec<Vec<u32>> = vec![
            vec![2, 0, 6, 1, 5],
            vec![7, 7, 7, 7, 7, 7, 7],
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            vec![0, 0, 0],
        ];
        for vals in cases {
            let mut sorted = vals.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let mut expect = 0u32;
            for (i, &v) in sorted.iter().enumerate() {
                if v as usize > i {
                    expect = (i + 1) as u32;
                }
            }
            assert_eq!(h_index(&vals), expect, "values {vals:?}");
        }
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let mut scratch = Vec::new();
        assert_eq!(h_index_bounded([5, 5, 5].into_iter(), 5, &mut scratch), 3);
        // A second call with smaller bound must not see stale counts.
        assert_eq!(h_index_bounded([1].into_iter(), 1, &mut scratch), 1);
        assert_eq!(h_index_bounded(std::iter::empty(), 0, &mut scratch), 0);
    }
}
