//! Distributed base tables and the catalog.
//!
//! A [`DistributedTable`] holds its rows as batch fragments — the
//! `{X_0(v)}` partition of §2, at most one
//! [`RecordBatch`](crate::batch::RecordBatch) per node — and
//! nothing else: every node's batch views a range of one column list, and a
//! scan, or a clone of the catalog, copies the fragments' one batch vector
//! (a refcount bump per batch), never a row. Partitioning helpers write rows
//! straight into those buffers, for the placements the experiments
//! need: round-robin (uniform), hash-by-column (co-location), skewed (one
//! node holds a share `α`), and single-node (maximally lopsided).

use std::sync::Arc;

use tamp_core::sorting::valid_order;
use tamp_topology::{NodeId, Tree};

use crate::batch::{batch_rows, new_columns, starts, views, BatchFragments};
use crate::error::QueryError;
use crate::row::Row;
use crate::schema::Schema;

/// A named table partitioned across compute nodes.
#[derive(Clone, Debug)]
pub struct DistributedTable {
    /// Table name (catalog key).
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    // At most one batch per node id; routers and empty nodes hold none.
    batches: BatchFragments,
}

impl DistributedTable {
    /// Place row `i` of `rows` on node `place(i, row)`, writing the rows
    /// straight into one column list that every node's batch views a
    /// range of: one pass checks every row's width and counts each
    /// node's rows, then each row's cell is fixed and each column filled.
    fn partitioned(
        name: &str,
        schema: Schema,
        rows: Vec<Row>,
        tree: &Tree,
        place: impl Fn(usize, &Row) -> NodeId,
    ) -> Result<Self, QueryError> {
        let width = schema.width();
        let mut counts = vec![0usize; tree.num_nodes()];
        for (i, row) in rows.iter().enumerate() {
            if row.len() != width {
                return Err(QueryError::WidthMismatch {
                    expected: width,
                    actual: row.len(),
                });
            }
            counts[place(i, row).index()] += 1;
        }
        // Each row's cell: node `v`'s rows fill its range of every column,
        // node ranges in id order.
        let mut at = starts(counts.iter().copied());
        let cell = |(i, row)| {
            let v = place(i, row).index();
            at[v] += 1;
            at[v] - 1
        };
        let cells: Vec<usize> = rows.iter().enumerate().map(cell).collect();
        let cols = new_columns(width, rows.len(), |c, col| {
            rows.iter()
                .zip(&cells)
                .for_each(|(row, &at)| col[at] = row[c]);
        });
        let mut views = views(&cols, counts);
        let batches = BatchFragments::from_fn(tree.num_nodes(), |_| views.next().flatten());
        Ok(DistributedTable {
            name: name.to_string(),
            schema,
            batches,
        })
    }

    /// The table as batch fragments, shared: a refcount bump per batch.
    pub(crate) fn scan_batches(&self) -> BatchFragments {
        self.batches.clone()
    }

    /// Partition `rows` round-robin over the compute nodes.
    pub fn round_robin(name: &str, schema: Schema, rows: Vec<Row>, tree: &Tree) -> Self {
        let vc = tree.compute_nodes();
        Self::partitioned(name, schema, rows, tree, |i, _| vc[i % vc.len()])
            .expect("rows must match the schema")
    }

    /// Skewed placement: node `heavy` receives a fraction `alpha` of the
    /// rows, the rest round-robin over the other compute nodes.
    pub fn skewed(
        name: &str,
        schema: Schema,
        rows: Vec<Row>,
        tree: &Tree,
        heavy: NodeId,
        alpha: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let others: Vec<NodeId> = tree
            .compute_nodes()
            .iter()
            .copied()
            .filter(|&v| v != heavy)
            .collect();
        let cut = (rows.len() as f64 * alpha).round() as usize;
        Self::partitioned(name, schema, rows, tree, |i, _| {
            if i < cut || others.is_empty() {
                heavy
            } else {
                others[(i - cut) % others.len()]
            }
        })
        .expect("rows must match the schema")
    }

    /// All rows on a single node.
    pub fn single_node(name: &str, schema: Schema, rows: Vec<Row>, tree: &Tree, v: NodeId) -> Self {
        Self::skewed(name, schema, rows, tree, v, 1.0)
    }

    /// Total number of rows.
    pub fn num_rows(&self) -> usize {
        batch_rows(self.batches.batches())
    }

    /// All rows, concatenated in node-id order.
    pub(crate) fn all_rows(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.num_rows());
        for b in self.batches.batches() {
            b.append_rows(&mut rows);
        }
        rows
    }

    /// Per-node row counts (the `|X_0(v)|` statistics).
    pub(crate) fn row_counts(&self) -> Vec<u64> {
        self.batches.iter().map(|b| batch_rows(b) as u64).collect()
    }
}

/// A set of named tables bound to one topology.
#[derive(Clone, Debug)]
pub struct Catalog {
    tree: Tree,
    /// The tree's valid compute order, computed once: it depends on the
    /// tree's shape only, which no catalog mutation changes.
    order: Arc<[NodeId]>,
    tables: Vec<DistributedTable>,
}

impl Catalog {
    /// An empty catalog over `tree`.
    pub fn new(tree: Tree) -> Self {
        Catalog {
            order: valid_order(&tree).into(),
            tree,
            tables: Vec::new(),
        }
    }

    /// The topology this catalog's tables live on.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The tree's valid left-to-right compute order
    /// ([`tamp_core::sorting::valid_order`]), shared.
    pub(crate) fn order(&self) -> &Arc<[NodeId]> {
        &self.order
    }

    /// Re-weight edge `e` of the bound topology in place, dividing both
    /// directed bandwidths by `factor` — the degraded-link serving
    /// mutation. Table fragments are untouched (rows do not move when a
    /// link slows down); only subsequent plan pricing observes the new
    /// weights. Invalid targets (unknown edge, non-finite or non-positive
    /// factor) surface as
    /// [`RuntimeError::InvalidFaultTarget`](tamp_runtime::RuntimeError::InvalidFaultTarget).
    #[cfg(test)]
    pub(crate) fn scale_bandwidth(
        &mut self,
        e: tamp_topology::EdgeId,
        factor: f64,
    ) -> Result<(), QueryError> {
        self.tree.scale_bandwidth(e, factor).map_err(|err| {
            let fault = err.to_string();
            tamp_runtime::RuntimeError::InvalidFaultTarget { fault }.into()
        })
    }

    /// Register a table. Replaces any table with the same name.
    pub fn register(&mut self, table: DistributedTable) -> Result<(), QueryError> {
        if table.batches.len() != self.tree.num_nodes() {
            return Err(QueryError::Plan(format!(
                "table `{}` has {} fragments for a {}-node topology",
                table.name,
                table.batches.len(),
                self.tree.num_nodes()
            )));
        }
        for (i, b) in table.batches.iter().enumerate() {
            if !b.is_empty() && !self.tree.is_compute(NodeId(i as u32)) {
                return Err(QueryError::Plan(format!(
                    "table `{}` places rows on router node {i}",
                    table.name
                )));
            }
        }
        self.tables.retain(|t| t.name != table.name);
        self.tables.push(table);
        Ok(())
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<&DistributedTable, QueryError> {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::{builders, TreeBuilder};

    fn rows(n: u64) -> Vec<Row> {
        (0..n).map(|i| vec![i, i * 10]).collect()
    }

    fn schema() -> Schema {
        Schema::new(vec!["k", "v"]).unwrap()
    }

    #[test]
    fn round_robin_balances() {
        let tree = builders::star(4, 1.0);
        let t = DistributedTable::round_robin("t", schema(), rows(40), &tree);
        assert_eq!(t.num_rows(), 40);
        for &v in tree.compute_nodes() {
            assert_eq!(t.row_counts()[v.index()], 10);
        }
        // Columns keep each node's rows in input order.
        let first = tree.compute_nodes()[0].index();
        assert_eq!(
            t.batches[first][0].col(0),
            [0, 4, 8, 12, 16, 20, 24, 28, 32, 36]
        );
    }

    #[test]
    fn skewed_gives_heavy_its_share() {
        let tree = builders::star(4, 1.0);
        let heavy = tree.compute_nodes()[1];
        let t = DistributedTable::skewed("t", schema(), rows(100), &tree, heavy, 0.7);
        assert_eq!(t.row_counts()[heavy.index()], 70);
        assert_eq!(t.num_rows(), 100);
    }

    #[test]
    fn single_node_is_lopsided() {
        let tree = builders::star(3, 1.0);
        let v = tree.compute_nodes()[2];
        let t = DistributedTable::single_node("t", schema(), rows(10), &tree, v);
        assert_eq!(t.row_counts()[v.index()], 10);
        assert_eq!(t.all_rows(), rows(10));
    }

    #[test]
    fn catalog_register_and_lookup() {
        let tree = builders::star(2, 1.0);
        let mut c = Catalog::new(tree);
        let t = DistributedTable::round_robin("t", schema(), rows(4), c.tree());
        c.register(t).unwrap();
        assert_eq!(c.table("t").unwrap().num_rows(), 4);
        assert!(c.table("u").is_err());
        assert_eq!(c.tables.len(), 1);
        // Re-registering replaces.
        let t2 = DistributedTable::round_robin("t", schema(), rows(8), c.tree());
        c.register(t2).unwrap();
        assert_eq!(c.table("t").unwrap().num_rows(), 8);
    }

    #[test]
    fn catalog_rejects_rows_on_routers() {
        let star = builders::star(2, 1.0); // node 2 is the hub
        let mut c = Catalog::new(star);
        // Same node count, but node 2 computes here.
        let mut b = TreeBuilder::new();
        let hub = b.router();
        for v in b.computes(2) {
            b.link(hub, v, 1.0).unwrap();
        }
        let other = b.build().unwrap();
        let t = DistributedTable::single_node("t", schema(), rows(2), &other, NodeId(2));
        assert!(matches!(c.register(t), Err(QueryError::Plan(_))));
        // A table built for another node count is rejected too.
        let t = DistributedTable::round_robin("t", schema(), rows(2), &builders::star(3, 1.0));
        assert!(matches!(c.register(t), Err(QueryError::Plan(_))));
        assert!(c.tables.is_empty());
    }

    #[test]
    fn a_cloned_context_shares_every_table_column() {
        let tree = builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0);
        let mut ctx = crate::context::QueryContext::new(tree);
        let t = DistributedTable::round_robin("t", schema(), rows(50), ctx.tree());
        ctx.register(t).unwrap();
        let copy = ctx.clone();
        let (a, b) = (ctx.catalog().table("t"), copy.catalog().table("t"));
        let (a, b) = (&a.unwrap().batches, &b.unwrap().batches);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.batches().iter().zip(b.batches()) {
            assert!((0..x.width()).all(|c| std::ptr::eq(x.col(c), y.col(c))));
        }
    }

    #[test]
    #[should_panic(expected = "rows must match the schema")]
    fn width_mismatch_is_rejected() {
        let tree = builders::star(2, 1.0);
        DistributedTable::round_robin("t", schema(), vec![vec![1, 2, 3]], &tree);
    }
}
