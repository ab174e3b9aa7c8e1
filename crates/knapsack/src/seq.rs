//! Sequential stack-based branch-and-bound — the baseline the paper
//! runs on RWCP-Sun to compute speedups.

use crate::instance::Instance;
use crate::node::{branch_batch, BranchCounters, Node};

/// Whether and how to prune.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMode {
    /// No bound test: the entire space is traced (the paper's
    /// normalized configuration).
    Exhaustive,
    /// Bound test on. `sorted` asserts items are ratio-sorted so the
    /// greedy fractional bound applies.
    Prune { sorted: bool },
}

/// Solve sequentially; returns `(optimal value, counters)`.
pub fn solve(inst: &Instance, mode: SolveMode) -> (u64, BranchCounters) {
    let (prune, sorted) = match mode {
        SolveMode::Exhaustive => (false, false),
        SolveMode::Prune { sorted } => (true, sorted),
    };
    let mut stack = Vec::with_capacity(inst.n() + 1);
    stack.push(Node::root(inst));
    let mut best = 0u64;
    let mut counters = BranchCounters::default();
    branch_batch(
        inst,
        &mut stack,
        &mut best,
        &mut counters,
        prune,
        sorted,
        u64::MAX,
    );
    (best, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;

    #[test]
    fn exhaustive_traverses_full_tree_on_normalized_instance() {
        for n in [1usize, 4, 10, 14] {
            let inst = Instance::no_pruning(n);
            let (best, c) = solve(&inst, SolveMode::Exhaustive);
            assert_eq!(c.traversed, Instance::full_tree_nodes(n), "n={n}");
            assert_eq!(best, inst.total_profit(), "n={n}");
            assert_eq!(c.pruned, 0);
            assert_eq!(c.leaves, 1u64 << n);
        }
    }

    #[test]
    fn pruning_agrees_with_exhaustive() {
        for seed in 0..5 {
            let inst = Instance::uncorrelated(16, 40, seed).sorted_by_ratio();
            let (a, ca) = solve(&inst, SolveMode::Exhaustive);
            let (b, cb) = solve(&inst, SolveMode::Prune { sorted: true });
            assert_eq!(a, b, "seed {seed}");
            assert!(cb.traversed <= ca.traversed, "pruning should not add work");
        }
    }

    #[test]
    fn agrees_with_dp_ground_truth() {
        for seed in 0..8 {
            let inst = Instance::weakly_correlated(14, 25, seed).sorted_by_ratio();
            let dp_opt = dp::solve(&inst);
            let (bb_opt, _) = solve(&inst, SolveMode::Prune { sorted: true });
            assert_eq!(bb_opt, dp_opt, "seed {seed}");
        }
    }

    #[test]
    fn trivial_instances() {
        let empty = Instance {
            items: vec![],
            capacity: 10,
            name: "empty".into(),
        };
        assert_eq!(solve(&empty, SolveMode::Exhaustive).0, 0);

        let nothing_fits = Instance {
            items: vec![
                crate::instance::Item {
                    weight: 99,
                    profit: 5
                };
                4
            ],
            capacity: 1,
            name: "tight".into(),
        };
        assert_eq!(solve(&nothing_fits, SolveMode::Exhaustive).0, 0);
    }

    /// SplitMix64 — a local deterministic stream for randomized tests.
    fn test_rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// B&B (both modes) equals DP on random instances — the core
    /// correctness property.
    #[test]
    fn bb_equals_dp_on_random_instances() {
        let mut r = test_rng(0xb0b);
        for _ in 0..60 {
            let n = 1 + (r() % 11) as usize;
            let range = 1 + r() % 39;
            let seed = r();
            let inst = Instance::uncorrelated(n, range, seed).sorted_by_ratio();
            let truth = dp::solve(&inst);
            let (a, _) = solve(&inst, SolveMode::Exhaustive);
            let (b, _) = solve(&inst, SolveMode::Prune { sorted: true });
            assert_eq!(a, truth, "exhaustive vs dp on {}", inst.name);
            assert_eq!(b, truth, "pruned vs dp on {}", inst.name);
        }
    }
}
