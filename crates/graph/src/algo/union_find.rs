//! Disjoint-set forest with union by rank and path halving.

/// A union-find (disjoint-set) structure over `0..n`.
///
/// Used by generators that must stitch a sampled graph into a
/// connected one.
///
/// # Examples
///
/// ```
/// use ocd_graph::algo::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(uf.union(2, 3));
/// assert!(!uf.same(0, 2));
/// assert!(uf.union(1, 3));
/// assert!(uf.same(0, 2));
/// assert_eq!(uf.component_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of the set containing `x`, with path halving.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets containing `a` and `b`. Returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.rank[ra] < self.rank[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        if self.rank[ra] == self.rank[rb] {
            self.rank[ra] += 1;
        }
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of distinct sets remaining.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_sets_are_disjoint() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.component_count(), 3);
        assert!(!uf.same(0, 1));
        assert_eq!(uf.find(2), 2);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0), "repeat union is a no-op");
        assert_eq!(uf.component_count(), 4);
        uf.union(2, 3);
        uf.union(3, 4);
        assert_eq!(uf.component_count(), 2);
        assert!(uf.same(2, 4));
        uf.union(0, 4);
        assert_eq!(uf.component_count(), 1);
        for i in 0..5 {
            assert!(uf.same(0, i));
        }
    }

    #[test]
    fn empty_union_find() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
    }

    #[test]
    fn long_chain_flattens() {
        let mut uf = UnionFind::new(1000);
        for i in 0..999 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert!(uf.same(0, 999));
    }
}
