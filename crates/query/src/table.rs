//! Distributed base tables and the catalog.
//!
//! A [`DistributedTable`] holds one [`RecordBatch`] per node — the
//! `{X_0(v)}` partition of §2 — and nothing else: every node's batch views
//! a range of one buffer per column, and a scan, or a clone of the
//! catalog, is a refcount bump per batch. Partitioning helpers write rows
//! straight into those buffers, for the placements the experiments
//! need: round-robin (uniform), hash-by-column (co-location), skewed (one
//! node holds a share `α`), and single-node (maximally lopsided).

use std::sync::Arc;

use tamp_core::hashing::mix64;
use tamp_core::sorting::valid_order;
use tamp_topology::{EdgeId, NodeId, Tree};

use crate::batch::{new_columns, starts, views, BatchFragments, RecordBatch};
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
    // One batch per node id; router batches stay empty.
    batches: Vec<RecordBatch>,
}

impl DistributedTable {
    /// Place row `i` of `rows` on node `place(i, row)`, writing the rows
    /// straight into one buffer per column that every node's batch views
    /// a range of: one pass checks every row's width and counts each
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
        let mut at = starts(&counts);
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
        // Empty nodes share one empty batch.
        let empty = RecordBatch::view(&cols, 0..0);
        let or_empty = |b: Option<RecordBatch>| b.unwrap_or_else(|| empty.clone());
        let batches = views(&cols, counts).map(or_empty).collect();
        Ok(DistributedTable {
            name: name.to_string(),
            schema,
            batches,
        })
    }

    /// The table as batch fragments: each non-empty node's batch, shared
    /// (a refcount bump; the only allocation is the node's list).
    pub(crate) fn scan_batches(&self) -> BatchFragments {
        self.batches
            .iter()
            .map(|b| match b.num_rows() {
                0 => Vec::new(),
                _ => vec![b.clone()],
            })
            .collect()
    }

    /// Partition `rows` round-robin over the compute nodes.
    pub fn round_robin(name: &str, schema: Schema, rows: Vec<Row>, tree: &Tree) -> Self {
        let vc = tree.compute_nodes();
        Self::partitioned(name, schema, rows, tree, |i, _| vc[i % vc.len()])
            .expect("rows must match the schema")
    }

    /// Partition `rows` by hashing the named column — co-locates equal
    /// keys, the classic pre-partitioned layout.
    pub fn hash_partitioned(
        name: &str,
        schema: Schema,
        rows: Vec<Row>,
        column: &str,
        tree: &Tree,
        seed: u64,
    ) -> Result<Self, QueryError> {
        let idx = schema.index_of(column)?;
        let vc = tree.compute_nodes();
        Self::partitioned(name, schema, rows, tree, |_, row| {
            vc[(mix64(row[idx] ^ seed) % vc.len() as u64) as usize]
        })
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
        self.batches.iter().map(RecordBatch::num_rows).sum()
    }

    /// All rows, concatenated in node-id order.
    pub fn all_rows(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.num_rows());
        for b in &self.batches {
            b.append_rows(&mut rows);
        }
        rows
    }

    /// Per-node row counts (the `|X_0(v)|` statistics).
    pub fn row_counts(&self) -> Vec<u64> {
        self.batches.iter().map(|b| b.num_rows() as u64).collect()
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
    pub fn scale_bandwidth(&mut self, e: EdgeId, factor: f64) -> Result<(), QueryError> {
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
            if b.num_rows() > 0 && !self.tree.is_compute(NodeId(i as u32)) {
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

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.name.as_str()).collect()
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
            t.batches[first].col(0),
            [0, 4, 8, 12, 16, 20, 24, 28, 32, 36]
        );
    }

    #[test]
    fn hash_partition_colocates_keys() {
        let tree = builders::star(3, 1.0);
        let mut dup = rows(20);
        dup.extend(rows(20)); // every key twice
        let t = DistributedTable::hash_partitioned("t", schema(), dup, "k", &tree, 7).unwrap();
        assert_eq!(t.num_rows(), 40);
        // Equal keys land on equal nodes.
        for key in 0..20 {
            let home: Vec<usize> = (0..t.batches.len())
                .filter(|&i| t.batches[i].col(0).contains(&key))
                .collect();
            assert_eq!(home.len(), 1, "key {key} on nodes {home:?}");
        }
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
        assert_eq!(c.table_names(), vec!["t"]);
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
        assert!(c.table_names().is_empty());
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
        for (x, y) in a.iter().zip(b) {
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
