//! 0-1 knapsack instances.
//!
//! Generators cover the classes of Martello & Toth (the paper's
//! reference \[10\]) plus the paper's own *normalized* instance: "we used
//! such data as no branches were pruned, meaning the entire search
//! space is traced by processes" (§4.4) — which makes total work
//! deterministic and lets the experiment isolate scheduling behaviour.

use netsim::SimRng;

/// One item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    pub weight: u64,
    pub profit: u64,
}

/// A 0-1 knapsack instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    pub items: Vec<Item>,
    pub capacity: u64,
    pub name: String,
}

impl Instance {
    pub fn n(&self) -> usize {
        self.items.len()
    }

    pub fn total_profit(&self) -> u64 {
        self.items.iter().map(|i| i.profit).sum()
    }

    /// The paper's normalized instance: every item fits (capacity =
    /// total weight), so with pruning disabled the full binary tree of
    /// `2^(n+1) - 1` nodes is traversed and the optimum is the total
    /// profit. The paper ran n = 50; scaled-down n keeps simulated
    /// runs tractable (documented in DESIGN.md §2.5).
    pub fn no_pruning(n: usize) -> Instance {
        let items = (0..n)
            .map(|i| Item {
                weight: 1,
                profit: 1 + (i as u64 % 7),
            })
            .collect::<Vec<_>>();
        let capacity = items.iter().map(|i| i.weight).sum();
        Instance {
            items,
            capacity,
            name: format!("no-pruning-{n}"),
        }
    }

    /// Expected traversed nodes for [`Instance::no_pruning`] with
    /// pruning disabled: the full binary tree.
    pub fn full_tree_nodes(n: usize) -> u64 {
        (1u64 << (n + 1)) - 1
    }

    /// Uncorrelated instance: weights and profits independent uniform
    /// in `[1, r]`, capacity = half the total weight.
    pub fn uncorrelated(n: usize, r: u64, seed: u64) -> Instance {
        let mut rng = SimRng::seed_from_u64(seed);
        let items = (0..n)
            .map(|_| Item {
                weight: rng.range_inclusive(1, r),
                profit: rng.range_inclusive(1, r),
            })
            .collect::<Vec<_>>();
        let capacity = items.iter().map(|i| i.weight).sum::<u64>() / 2;
        Instance {
            items,
            capacity,
            name: format!("uncorrelated-{n}-{r}-{seed}"),
        }
    }

    /// Weakly correlated: profit within ±`r/10` of weight.
    pub fn weakly_correlated(n: usize, r: u64, seed: u64) -> Instance {
        let mut rng = SimRng::seed_from_u64(seed);
        let spread = (r / 10).max(1);
        let items = (0..n)
            .map(|_| {
                let weight = rng.range_inclusive(1, r);
                let lo = weight.saturating_sub(spread).max(1);
                let hi = weight + spread;
                Item {
                    weight,
                    profit: rng.range_inclusive(lo, hi),
                }
            })
            .collect::<Vec<_>>();
        let capacity = items.iter().map(|i| i.weight).sum::<u64>() / 2;
        Instance {
            items,
            capacity,
            name: format!("weak-corr-{n}-{r}-{seed}"),
        }
    }

    /// Strongly correlated: profit = weight + `r/10` (hard for B&B).
    pub fn strongly_correlated(n: usize, r: u64, seed: u64) -> Instance {
        let mut rng = SimRng::seed_from_u64(seed);
        let bump = (r / 10).max(1);
        let items = (0..n)
            .map(|_| {
                let weight = rng.range_inclusive(1, r);
                Item {
                    weight,
                    profit: weight + bump,
                }
            })
            .collect::<Vec<_>>();
        let capacity = items.iter().map(|i| i.weight).sum::<u64>() / 2;
        Instance {
            items,
            capacity,
            name: format!("strong-corr-{n}-{r}-{seed}"),
        }
    }

    /// Sort items by profit/weight ratio descending — a precondition
    /// for the greedy upper bound to be valid AND tight.
    pub fn sorted_by_ratio(mut self) -> Instance {
        self.items.sort_by(|a, b| {
            (b.profit as u128 * a.weight as u128).cmp(&(a.profit as u128 * b.weight as u128))
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_pruning_everything_fits() {
        let inst = Instance::no_pruning(10);
        assert_eq!(inst.n(), 10);
        assert_eq!(inst.capacity, inst.items.iter().map(|i| i.weight).sum());
        assert_eq!(Instance::full_tree_nodes(10), 2047);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = Instance::uncorrelated(20, 100, 7);
        let b = Instance::uncorrelated(20, 100, 7);
        let c = Instance::uncorrelated(20, 100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn capacity_is_binding_for_random_instances() {
        for inst in [
            Instance::uncorrelated(30, 50, 1),
            Instance::weakly_correlated(30, 50, 1),
            Instance::strongly_correlated(30, 50, 1),
        ] {
            assert!(inst.capacity < inst.items.iter().map(|i| i.weight).sum());
            assert!(inst.capacity > 0);
            assert!(inst.items.iter().all(|i| i.weight >= 1 && i.profit >= 1));
        }
    }

    #[test]
    fn ratio_sort_is_descending() {
        let inst = Instance::uncorrelated(50, 100, 3).sorted_by_ratio();
        for w in inst.items.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                a.profit as u128 * b.weight as u128 >= b.profit as u128 * a.weight as u128,
                "{a:?} vs {b:?}"
            );
        }
    }
}
