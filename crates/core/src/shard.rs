//! Row sharding by conflict-graph connectivity.
//!
//! Two tuples can only share a conflict edge when they agree on some FD's
//! left-hand side — i.e. when they fall into the same LHS *blocking class*
//! of at least one FD (the same classes the conflict-graph build hashes
//! up). Taking the union-find closure of those classes therefore
//! over-approximates conflict-graph connectivity: every conflict edge is
//! *intra-shard* by construction, so each shard's conflict subgraph can be
//! built independently ([`rt_constraints::ConflictGraph::build_for_rows`])
//! and the per-shard graphs merged back bit-identically
//! ([`rt_constraints::ConflictGraph::merge_shards`]).
//!
//! The plan is **canonical**: shards are ordered by their smallest global
//! row id and each shard lists its rows ascending. Connectivity closure is
//! a property of the data, not of traversal order, so the partition — and
//! with it every downstream merge — is independent of row insertion order
//! and thread count.
//!
//! Rows that share no blocking class with any other row can never carry an
//! edge; they are pooled into a single *residual* shard instead of a
//! million singletons, keeping the shard count (and the
//! `conflict_graph_builds == shard_count` accounting of sharded engines)
//! proportional to the actual conflict structure.

use rt_constraints::FdSet;
use rt_relation::{Code, CodeKey, Instance};
use std::collections::HashMap;

/// Union-find over row ids with path halving and union by size.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Union by size; ties keep the smaller root so the forest shape is
        // deterministic (the final plan re-canonicalizes anyway).
        let (big, small) =
            if self.size[ra] > self.size[rb] || (self.size[ra] == self.size[rb] && ra < rb) {
                (ra, rb)
            } else {
                (rb, ra)
            };
        self.parent[small] = big;
        self.size[big] += self.size[small];
    }
}

/// A canonical partition of an instance's rows into blocking-closed shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Each shard's rows, ascending; shards ordered by smallest row.
    shards: Vec<Vec<usize>>,
    /// `row_shard[row]` = index into `shards`.
    row_shard: Vec<u32>,
}

impl ShardPlan {
    /// Computes the shard plan of `(instance, fds)`: one linear pass per FD
    /// over the code columns, keyed exactly like the conflict-graph
    /// blocking phase (packed [`CodeKey`]s, charged to the same work
    /// counters), followed by the union-find closure.
    pub fn compute(instance: &Instance, fds: &FdSet) -> ShardPlan {
        let n = instance.len();
        let mut uf = UnionFind::new(n);
        for (_, fd) in fds.iter() {
            let lhs_cols: Vec<&[Code]> = fd.lhs.iter().map(|a| instance.codes(a)).collect();
            // First row seen per LHS class; later members union into it.
            let mut first_of_class: HashMap<CodeKey, usize> = HashMap::new();
            for row in 0..n {
                match first_of_class.entry(CodeKey::from_cols(&lhs_cols, row)) {
                    std::collections::hash_map::Entry::Occupied(e) => uf.union(*e.get(), row),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(row);
                    }
                }
            }
        }

        // Canonicalize: group rows by root in first-appearance order (rows
        // ascend, so every group comes out sorted), pool singleton
        // components into one residual shard, order shards by smallest row.
        let mut slot_of_root: Vec<usize> = vec![usize::MAX; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for row in 0..n {
            let root = uf.find(row);
            if slot_of_root[root] == usize::MAX {
                slot_of_root[root] = groups.len();
                groups.push(Vec::new());
            }
            groups[slot_of_root[root]].push(row);
        }
        let mut shards: Vec<Vec<usize>> = Vec::new();
        let mut residual: Vec<usize> = Vec::new();
        for rows in groups {
            if rows.len() >= 2 {
                shards.push(rows);
            } else {
                residual.extend(rows);
            }
        }
        if !residual.is_empty() {
            shards.push(residual);
        }
        shards.sort_by_key(|s| s[0]);
        let mut row_shard = vec![0u32; n];
        for (i, shard) in shards.iter().enumerate() {
            for &row in shard {
                row_shard[row] = i as u32;
            }
        }
        ShardPlan { shards, row_shard }
    }

    /// Number of shards (0 only for an empty instance).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards: each sorted ascending, ordered by smallest row.
    pub fn shards(&self) -> &[Vec<usize>] {
        &self.shards
    }

    /// The shard holding `row`.
    pub fn shard_of(&self, row: usize) -> usize {
        self.row_shard[row] as usize
    }

    /// Number of rows partitioned.
    pub fn row_count(&self) -> usize {
        self.row_shard.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_constraints::ConflictGraph;
    use rt_relation::{Instance, Schema, Tuple, Value};

    /// SplitMix64 — enough randomness for property tests, no dependencies.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random 4-column instance with small value domains (lots of
    /// blocking collisions) and the FDs A->B, C->D.
    fn random_case(seed: u64, rows: usize) -> (Instance, FdSet) {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let mut rng = Mix(seed);
        let mut inst = Instance::new(schema.clone());
        for _ in 0..rows {
            inst.push(Tuple::new(vec![
                Value::int(rng.below(8) as i64),
                Value::int(rng.below(5) as i64),
                Value::int(rng.below(8) as i64),
                Value::int(rng.below(5) as i64),
            ]))
            .unwrap();
        }
        let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
        (inst, fds)
    }

    fn canonical_partition(plan: &ShardPlan) -> Vec<Vec<usize>> {
        plan.shards().to_vec()
    }

    #[test]
    fn every_conflict_edge_is_intra_shard() {
        for seed in 0..8u64 {
            let (inst, fds) = random_case(seed, 60);
            let plan = ShardPlan::compute(&inst, &fds);
            let graph = ConflictGraph::build(&inst, &fds);
            for e in graph.edges() {
                assert_eq!(
                    plan.shard_of(e.rows.0),
                    plan.shard_of(e.rows.1),
                    "edge {:?} crosses shards (seed {seed})",
                    e.rows
                );
            }
        }
    }

    #[test]
    fn shards_form_an_exact_partition() {
        for seed in 0..8u64 {
            let (inst, fds) = random_case(seed, 45);
            let plan = ShardPlan::compute(&inst, &fds);
            assert_eq!(plan.row_count(), inst.len());
            let mut all: Vec<usize> = plan.shards().iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..inst.len()).collect::<Vec<_>>());
            // Consistent reverse index, shards sorted and canonically ordered.
            for (i, shard) in plan.shards().iter().enumerate() {
                assert!(shard.windows(2).all(|w| w[0] < w[1]));
                for &row in shard {
                    assert_eq!(plan.shard_of(row), i);
                }
            }
            for w in plan.shards().windows(2) {
                assert!(w[0][0] < w[1][0]);
            }
        }
    }

    #[test]
    fn plan_is_independent_of_row_insertion_order() {
        for seed in 0..6u64 {
            let (inst, fds) = random_case(seed, 40);
            let plan = ShardPlan::compute(&inst, &fds);

            // Re-insert the rows under a deterministic permutation.
            let n = inst.len();
            let mut perm: Vec<usize> = (0..n).collect();
            let mut rng = Mix(seed ^ 0xABCD);
            for i in (1..n).rev() {
                perm.swap(i, rng.below((i + 1) as u64) as usize);
            }
            let mut shuffled = Instance::new(inst.schema().clone());
            for &old in &perm {
                shuffled.push(inst.tuple(old).unwrap()).unwrap();
            }
            let shuffled_plan = ShardPlan::compute(&shuffled, &fds);

            // Map the shuffled plan back through the permutation
            // (shuffled row i holds original row perm[i]) and
            // re-canonicalize: the partitions must coincide.
            let mut mapped: Vec<Vec<usize>> = shuffled_plan
                .shards()
                .iter()
                .map(|shard| {
                    let mut rows: Vec<usize> = shard.iter().map(|&r| perm[r]).collect();
                    rows.sort_unstable();
                    rows
                })
                .collect();
            mapped.sort_by_key(|s| s[0]);
            assert_eq!(mapped, canonical_partition(&plan), "seed {seed}");
        }
    }

    #[test]
    fn residual_rows_pool_into_one_shard() {
        // Rows 0/1 collide on A; rows 2 and 3 share nothing with anyone.
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let inst = Instance::from_int_rows(
            schema.clone(),
            &[vec![1, 1], vec![1, 2], vec![7, 7], vec![8, 8]],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let plan = ShardPlan::compute(&inst, &fds);
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.shards()[0], vec![0, 1]);
        assert_eq!(plan.shards()[1], vec![2, 3]);
    }

    #[test]
    fn empty_instance_has_no_shards() {
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let inst = Instance::new(schema.clone());
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let plan = ShardPlan::compute(&inst, &fds);
        assert_eq!(plan.shard_count(), 0);
        assert_eq!(plan.row_count(), 0);
    }
}
