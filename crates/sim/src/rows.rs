//! Adjacency in compressed-row form.
//!
//! A graph over dense node indices stored as one offsets vector and one targets vector instead
//! of a `Vec` per node: the reference dependence graph's successor rows and the preflight's edge
//! rows are both built by [`Rows::by_source`]'s stable counting sort.

/// Adjacency in compressed-row form: the row of node `i` is `targets[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rows {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Rows {
    /// Groups `(from, to)` pairs into the rows of their `from` node with a stable counting
    /// sort: each row keeps its pairs' order, so pairs that arrive in ascending `to` give
    /// ascending rows. Repeats are kept.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below `nodes`, or if `nodes` does not fit in `u32`.
    pub fn by_source<I>(nodes: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: Clone,
    {
        assert!(
            u32::try_from(nodes).is_ok(),
            "{nodes} nodes do not fit in u32"
        );
        let pairs = pairs.into_iter();
        let mut offsets = vec![0u32; nodes + 1];
        for (from, to) in pairs.clone() {
            assert!(
                from < nodes && to < nodes,
                "edge ({from} -> {to}) leaves the {nodes}-node graph"
            );
            offsets[from + 1] += 1;
        }
        for i in 0..nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..nodes].to_vec();
        let mut targets = vec![0u32; offsets[nodes] as usize];
        for (from, to) in pairs {
            targets[cursor[from] as usize] = to as u32;
            cursor[from] += 1;
        }
        Rows { offsets, targets }
    }

    /// Number of nodes (rows).
    pub fn nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of edges over all rows.
    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    /// The row of `node`: its targets in row order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not below [`Rows::nodes`].
    pub fn row(&self, node: usize) -> &[u32] {
        &self.targets[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_each_sources_pairs_in_order_with_repeats() {
        let rows = Rows::by_source(4, [(2, 1), (0, 3), (2, 0), (0, 1), (2, 1)]);
        assert_eq!(rows.nodes(), 4);
        assert_eq!(rows.edges(), 5);
        assert_eq!(rows.row(0), &[3, 1]);
        assert_eq!(rows.row(1), &[] as &[u32]);
        assert_eq!(rows.row(2), &[1, 0, 1]);
        assert_eq!(rows.row(3), &[] as &[u32]);
        assert_eq!(Rows::by_source(0, []).nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "leaves the 2-node graph")]
    fn an_endpoint_outside_the_graph_panics() {
        Rows::by_source(2, [(0, 2)]);
    }
}
