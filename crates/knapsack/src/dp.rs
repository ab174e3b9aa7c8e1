//! Dynamic-programming ground truth: O(n·C) table, exact for the
//! capacities our tests use. Used only to validate the branch-and-bound
//! solvers (the paper's reference \[10\] catalogues both families).

use crate::instance::Instance;

/// Optimal value by DP over capacities `0..=C`.
///
/// Panics (via `assert!`) if the capacity is absurdly large for a
/// table (tests keep C·n under ~10^8).
pub fn solve(inst: &Instance) -> u64 {
    assert!(
        inst.capacity < 200_000_000,
        "DP capacity too large; use B&B"
    );
    let c = inst.capacity as usize;
    assert!(
        c.saturating_mul(inst.n().max(1)) < 200_000_000,
        "DP table too large; use B&B"
    );
    let mut table = vec![0u64; c + 1];
    for item in &inst.items {
        let w = item.weight as usize;
        if w > c {
            continue;
        }
        // Iterate downward so each item is used at most once.
        for cap in (w..=c).rev() {
            let candidate = table[cap - w] + item.profit;
            if candidate > table[cap] {
                table[cap] = candidate;
            }
        }
    }
    table[c]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Item;

    fn inst(items: Vec<(u64, u64)>, capacity: u64) -> Instance {
        Instance {
            items: items
                .into_iter()
                .map(|(weight, profit)| Item { weight, profit })
                .collect(),
            capacity,
            name: "t".into(),
        }
    }

    #[test]
    fn textbook_example() {
        // Classic: items (w,p): (2,3) (3,4) (4,5) (5,6), C=5 → best 7.
        let i = inst(vec![(2, 3), (3, 4), (4, 5), (5, 6)], 5);
        assert_eq!(solve(&i), 7);
    }

    #[test]
    fn each_item_used_once() {
        // One item of weight 1: capacity 10 must not count it 10 times.
        let i = inst(vec![(1, 5)], 10);
        assert_eq!(solve(&i), 5);
    }

    #[test]
    fn zero_capacity() {
        let i = inst(vec![(1, 100)], 0);
        assert_eq!(solve(&i), 0);
    }

    #[test]
    fn item_heavier_than_capacity_skipped() {
        let i = inst(vec![(100, 999), (2, 3)], 10);
        assert_eq!(solve(&i), 3);
    }

    #[test]
    fn all_fit() {
        let i = inst(vec![(1, 2), (2, 3), (3, 4)], 6);
        assert_eq!(solve(&i), 9);
    }
}
