//! Delta debugging (ddmin, complements only): the vendored `proptest` does
//! not shrink a failing case.

/// Shrinks `items`, for which `fails` holds, to a sub-list for which it
/// still holds and which is 1-minimal: without any single item it passes.
/// Drops chunks of the list, halving the chunk size when none can go.
pub fn minimise<T: Clone>(mut items: Vec<T>, mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut chunks = 2;
    while items.len() > 1 {
        let size = items.len().div_ceil(chunks);
        let smaller = (0..items.len()).step_by(size).find_map(|start| {
            let rest = [&items[..start], &items[(start + size).min(items.len())..]].concat();
            fails(&rest).then_some(rest)
        });
        match smaller {
            Some(rest) => (items, chunks) = (rest, (chunks - 1).max(2)),
            None if size == 1 => break,
            None => chunks = (chunks * 2).min(items.len()),
        }
    }
    items
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_failing_history_shrinks_to_its_one_minimal_cause() {
        // Fails when a 7 comes before a 23 and a 31 is present anywhere.
        let fails = |ops: &[u32]| {
            ops.iter().skip_while(|&&op| op != 7).any(|&op| op == 23) && ops.contains(&31)
        };
        let history: Vec<u32> = (0..40).rev().chain(0..40).collect();
        assert!(fails(&history));
        let mut runs = 0;
        let minimal = super::minimise(history, |ops| {
            runs += 1;
            fails(ops)
        });
        assert_eq!(minimal.len(), 3, "{minimal:?}");
        for i in 0..3 {
            let without = [&minimal[..i], &minimal[i + 1..]].concat();
            assert!(
                fails(&minimal) && !fails(&without),
                "{minimal:?} is not 1-minimal"
            );
        }
        assert!(runs < 400, "{runs} runs");
    }
}
