//! Search-tree nodes and the branch loop.
//!
//! The paper (§4.3): "Each node of a search tree is represented by a
//! set of *index*, *value*, and *capacity*. Here, index is the index of
//! the first item which is not fixed yet, value is the sum of the
//! profits of items which are already fixed to 1 … The search tree is
//! represented by a stack onto which nodes are pushed."

use crate::instance::Instance;

/// A search-tree node. `capacity` is the *remaining* capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    pub index: u32,
    pub value: u64,
    pub capacity: u64,
}

impl Node {
    pub fn root(inst: &Instance) -> Node {
        Node {
            index: 0,
            value: 0,
            capacity: inst.capacity,
        }
    }

    /// Wire size of one node in the parallel protocol (3×u64 fields,
    /// big-endian — index widened for alignment).
    pub const WIRE_BYTES: u64 = 24;

    /// Greedy fractional upper bound on the best completion of this
    /// node. Requires items sorted by profit/weight ratio descending
    /// to be admissible *and* tight; on unsorted items it falls back
    /// to the (weaker, still admissible) remaining-profit sum.
    pub fn upper_bound(&self, inst: &Instance, sorted: bool) -> u64 {
        let mut bound = self.value;
        if !sorted {
            for it in &inst.items[self.index as usize..] {
                bound += it.profit;
            }
            return bound;
        }
        let mut cap = self.capacity;
        for it in &inst.items[self.index as usize..] {
            if it.weight <= cap {
                cap -= it.weight;
                bound += it.profit;
            } else {
                // Fractional fill of the critical item.
                bound += it.profit * cap / it.weight;
                break;
            }
        }
        bound
    }
}

/// Statistics of a branch run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BranchCounters {
    /// Nodes popped (the paper's "traversed nodes").
    pub traversed: u64,
    /// Nodes discarded by the bound test.
    pub pruned: u64,
    /// Complete assignments evaluated.
    pub leaves: u64,
}

/// The branch loop (§4.3): the branch operation up to `limit` times,
/// or until the stack drains; returns how many ran. `best` and
/// `counters` are updated in place. This is the only loop that
/// branches: the sequential solver runs it unbounded, a parallel rank
/// one `interval` per batch.
///
/// With `prune == false` the bound test is skipped — the paper's
/// normalized configuration where the entire space is traced.
pub(crate) fn branch_batch(
    inst: &Instance,
    stack: &mut Vec<Node>,
    best: &mut u64,
    counters: &mut BranchCounters,
    prune: bool,
    sorted: bool,
    limit: u64,
) -> u64 {
    if prune {
        batch::<true>(inst, stack, best, counters, sorted, limit)
    } else {
        batch::<false>(inst, stack, best, counters, sorted, limit)
    }
}

/// The batch with `prune` decided once, not per node, and the stack,
/// incumbent and counters in locals, so none of them goes through
/// memory per node.
#[inline(always)]
fn batch<const PRUNE: bool>(
    inst: &Instance,
    stack: &mut Vec<Node>,
    best: &mut u64,
    counters: &mut BranchCounters,
    sorted: bool,
    limit: u64,
) -> u64 {
    let mut local = std::mem::take(stack);
    let (mut b, mut c) = (*best, *counters);
    let mut ops = 0;
    while ops < limit && branch_once::<PRUNE>(inst, &mut local, &mut b, sorted, &mut c) {
        ops += 1;
    }
    (*stack, *best, *counters) = (local, b, c);
    ops
}

/// The branch operation: pop a node, check it, push its children.
/// Returns `false` if the stack was empty. Always inlined: called out
/// of line it costs the loop about twice its work per node.
#[inline(always)]
fn branch_once<const PRUNE: bool>(
    inst: &Instance,
    stack: &mut Vec<Node>,
    best: &mut u64,
    sorted: bool,
    counters: &mut BranchCounters,
) -> bool {
    let Some(node) = stack.pop() else {
        return false;
    };
    counters.traversed += 1;

    let n = inst.n() as u32;
    if node.index == n {
        counters.leaves += 1;
        if node.value > *best {
            *best = node.value;
        }
        return true;
    }
    if PRUNE {
        if node.value > *best {
            // A partial assignment is itself a feasible solution
            // (remaining items set to 0).
            *best = node.value;
        }
        if node.upper_bound(inst, sorted) <= *best {
            counters.pruned += 1;
            return true;
        }
    }
    let item = inst.items[node.index as usize];
    // Exclude-child first so the include-child is explored first
    // (LIFO), which finds good solutions early.
    stack.push(Node {
        index: node.index + 1,
        value: node.value,
        capacity: node.capacity,
    });
    if item.weight <= node.capacity {
        stack.push(Node {
            index: node.index + 1,
            value: node.value + item.profit,
            capacity: node.capacity - item.weight,
        });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_node() {
        let inst = Instance::no_pruning(5);
        let r = Node::root(&inst);
        assert_eq!(r.index, 0);
        assert_eq!(r.value, 0);
        assert_eq!(r.capacity, inst.capacity);
    }

    #[test]
    fn branch_generates_children() {
        let inst = Instance::no_pruning(3);
        let mut stack = vec![Node::root(&inst)];
        let mut best = 0;
        let mut c = BranchCounters::default();
        assert!(branch_once::<false>(
            &inst, &mut stack, &mut best, false, &mut c
        ));
        // Everything fits: two children.
        assert_eq!(stack.len(), 2);
        assert_eq!(c.traversed, 1);
        // Include-child on top.
        assert_eq!(stack.last().unwrap().value, inst.items[0].profit);
    }

    #[test]
    fn infeasible_include_is_not_pushed() {
        let inst = Instance {
            items: vec![crate::instance::Item {
                weight: 10,
                profit: 5,
            }],
            capacity: 3,
            name: "tight".into(),
        };
        let mut stack = vec![Node::root(&inst)];
        let mut best = 0;
        let mut c = BranchCounters::default();
        branch_once::<false>(&inst, &mut stack, &mut best, false, &mut c);
        assert_eq!(stack.len(), 1); // only the exclude child
    }

    #[test]
    fn empty_stack_returns_false() {
        let inst = Instance::no_pruning(2);
        let mut stack = Vec::new();
        let mut best = 0;
        let mut c = BranchCounters::default();
        assert!(!branch_once::<false>(
            &inst, &mut stack, &mut best, false, &mut c
        ));
        assert_eq!(
            branch_batch(&inst, &mut stack, &mut best, &mut c, true, false, 8),
            0
        );
        assert_eq!(c.traversed, 0);
    }

    type State = (Vec<Node>, u64, BranchCounters);

    /// The branch operation one node at a time, `prune` decided per call.
    fn step(inst: &Instance, s: &mut State, prune: bool, sorted: bool) -> bool {
        let (stack, best, c) = (&mut s.0, &mut s.1, &mut s.2);
        if prune {
            branch_once::<true>(inst, stack, best, sorted, c)
        } else {
            branch_once::<false>(inst, stack, best, sorted, c)
        }
    }

    /// A batch of k operations is k single steps: same stack, incumbent
    /// and counters after every batch, at every limit, pruned or not, on
    /// sorted and unsorted items. A batch short of its limit drained the
    /// stack, and every search ends with one.
    #[test]
    fn a_batch_is_its_steps() {
        let uncorrelated = Instance::uncorrelated(16, 40, 7);
        let instances = [
            (Instance::no_pruning(12), false),
            (Instance::no_pruning(12).sorted_by_ratio(), true),
            (uncorrelated.clone(), false),
            (uncorrelated.sorted_by_ratio(), true),
        ];
        let mut pruned = 0;
        for (inst, sorted) in &instances {
            for prune in [false, true] {
                for limit in [1, 3, 1024, u64::MAX] {
                    let case = format!("{} sorted={sorted} prune={prune} limit={limit}", inst.name);
                    let start: State = (vec![Node::root(inst)], 0, BranchCounters::default());
                    let (mut batched, mut stepped) = (start.clone(), start);
                    let mut total = 0;
                    loop {
                        let (stack, best, c) = (&mut batched.0, &mut batched.1, &mut batched.2);
                        let ops = branch_batch(inst, stack, best, c, prune, *sorted, limit);
                        assert!(ops <= limit, "{case}: {ops} operations");
                        for _ in 0..ops {
                            assert!(step(inst, &mut stepped, prune, *sorted), "{case}");
                        }
                        assert_eq!(batched, stepped, "{case} after {total} + {ops}");
                        total += ops;
                        if ops < limit {
                            assert!(batched.0.is_empty(), "{case}: short batch left work");
                            break;
                        }
                    }
                    assert_eq!(total, batched.2.traversed, "{case}");
                    pruned += batched.2.pruned;
                    assert!(!step(inst, &mut stepped, prune, *sorted), "{case}");
                    let mode = if prune {
                        crate::seq::SolveMode::Prune { sorted: *sorted }
                    } else {
                        crate::seq::SolveMode::Exhaustive
                    };
                    assert_eq!(
                        crate::seq::solve(inst, mode),
                        (batched.1, batched.2),
                        "{case}"
                    );
                }
            }
        }
        assert!(pruned > 0, "no case ran the bound test's discard");
    }

    #[test]
    fn bound_is_admissible_on_sorted_items() {
        // Upper bound at the root must be >= the optimum.
        let inst = Instance::uncorrelated(12, 30, 5).sorted_by_ratio();
        let root_bound = Node::root(&inst).upper_bound(&inst, true);
        let (opt, _) = crate::seq::solve(&inst, crate::seq::SolveMode::Prune { sorted: true });
        assert!(root_bound >= opt, "bound {root_bound} < opt {opt}");
    }

    #[test]
    fn leaf_updates_best() {
        let inst = Instance::no_pruning(1);
        let mut stack = vec![Node {
            index: 1,
            value: 42,
            capacity: 0,
        }];
        let mut best = 0;
        let mut c = BranchCounters::default();
        branch_once::<false>(&inst, &mut stack, &mut best, false, &mut c);
        assert_eq!(best, 42);
        assert_eq!(c.leaves, 1);
    }
}
