//! Row sharding by conflict-graph connectivity.
//!
//! Two tuples can only share a conflict edge when they agree on some FD's
//! left-hand side — i.e. when they fall into the same LHS *blocking class*
//! of at least one FD (the same classes the conflict-graph build groups
//! into runs by sorting the rows' dictionary codes,
//! [`rt_relation::sort_rows_by_codes`]). Taking the union-find closure of
//! those classes therefore over-approximates conflict-graph connectivity:
//! every conflict edge is *intra-shard* by construction, so each shard's
//! conflict subgraph can be built independently
//! ([`rt_constraints::ConflictGraph::build_for_rows`]) and the per-shard
//! graphs merged back bit-identically
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
//!
//! Both halves group rows by sorting their codes, never by hashing keys:
//! the plan takes one radix sort of all rows per distinct FD LHS, and each
//! shard's graph build sorts only the shard's rows, at a cost that follows
//! the shard's size, not its columns' code spaces. On the 1M-row warehouse
//! scenario (release build, 2-core x86-64 host, traced) the plan takes
//! 0.06–0.09 s and the 245 shard builds 0.03–0.08 s together, against
//! 0.22–0.23 s and 0.33–0.39 s when both hashed packed LHS keys.

use rt_constraints::{AttrSet, FdSet};
use rt_relation::{code_runs, row_u32, Code, Instance};

/// Union-find over `u32` row ids (4 bytes per row and buffer, the width
/// of the radix-sorted row ids) with path halving and union by size.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..row_u32(n)).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Union by size; ties keep the smaller root so the forest shape is
        // deterministic (the final plan re-canonicalizes anyway).
        let (sa, sb) = (self.size[ra as usize], self.size[rb as usize]);
        let (big, small) = if sa > sb || (sa == sb && ra < rb) {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
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
    /// Computes the shard plan of `(instance, fds)`: per FD, the rows
    /// sorted by their LHS codes ([`Instance::rows_sorted_by`], the same
    /// hash-free grouping as the conflict-graph blocking) put each LHS
    /// class in one run, and every row of a run is unioned with the run's
    /// first row; the union-find closure follows.
    pub fn compute(instance: &Instance, fds: &FdSet) -> ShardPlan {
        let n = instance.len();
        let mut uf = UnionFind::new(n);
        let mut lhs_seen: Vec<AttrSet> = Vec::new();
        for (_, fd) in fds.iter() {
            // FDs sharing an LHS share its classes: union them once.
            if lhs_seen.contains(&fd.lhs) {
                continue;
            }
            lhs_seen.push(fd.lhs);
            let lhs = fd.lhs.to_vec();
            let lhs_cols: Vec<&[Code]> = lhs.iter().map(|&a| instance.codes(a)).collect();
            let sorted = instance.rows_sorted_by(&lhs);
            for class in code_runs(&sorted, &lhs_cols) {
                for &row in &class[1..] {
                    uf.union(class[0], row);
                }
            }
        }

        // Canonicalize: group rows by root in first-appearance order (rows
        // ascend, so every group comes out sorted and groups are ordered by
        // smallest row), pool singleton components into one residual shard,
        // then put the residual shard in its place by smallest row.
        let mut slot_of_root: Vec<u32> = vec![u32::MAX; n];
        let mut shards: Vec<Vec<usize>> = Vec::new();
        let mut residual: Vec<usize> = Vec::new();
        for row in 0..row_u32(n) {
            let root = uf.find(row) as usize;
            if uf.size[root] < 2 {
                residual.push(row as usize);
                continue;
            }
            if slot_of_root[root] == u32::MAX {
                slot_of_root[root] = row_u32(shards.len());
                shards.push(Vec::new());
            }
            shards[slot_of_root[root] as usize].push(row as usize);
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
