//! Distributed base tables and the catalog.
//!
//! A [`DistributedTable`] holds per-compute-node row fragments — the
//! `{X_0(v)}` partition of §2, at row granularity. Partitioning helpers
//! cover the placements the experiments need: round-robin (uniform),
//! hash-by-column (co-location), skewed (one node holds a share `α`), and
//! single-node (maximally lopsided).

use tamp_core::hashing::mix64;
use tamp_topology::{EdgeId, NodeId, Tree};

use crate::batch::{fragments_to_batches, RecordBatch};
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
    /// Row fragments, indexed by node id (router slots stay empty).
    pub fragments: Vec<Vec<Row>>,
    // Columnar mirror of `fragments` — one whole-fragment record batch
    // per node, (re)built by `Catalog::register` so scans are refcount
    // bumps, never per-row transposes. Empty until registration;
    // `scan_batches` falls back to converting on the fly.
    columnar: Vec<Vec<RecordBatch>>,
}

impl DistributedTable {
    fn empty_fragments(tree: &Tree) -> Vec<Vec<Row>> {
        vec![Vec::new(); tree.num_nodes()]
    }

    /// (Re)build the columnar mirror from the row fragments.
    pub(crate) fn build_columnar(&mut self) {
        self.columnar = fragments_to_batches(&self.fragments, self.schema.width(), usize::MAX);
    }

    /// The table as batch fragments: the prebuilt columnar mirror when
    /// registration has built one (a per-node `Arc` clone), otherwise a
    /// fresh conversion.
    pub(crate) fn scan_batches(&self) -> Vec<Vec<RecordBatch>> {
        if self.columnar.len() == self.fragments.len() {
            self.columnar.clone()
        } else {
            fragments_to_batches(&self.fragments, self.schema.width(), usize::MAX)
        }
    }

    fn validated(name: &str, schema: Schema, rows: &[Row]) -> Result<(String, Schema), QueryError> {
        for row in rows {
            if row.len() != schema.width() {
                return Err(QueryError::WidthMismatch {
                    expected: schema.width(),
                    actual: row.len(),
                });
            }
        }
        Ok((name.to_string(), schema))
    }

    /// Partition `rows` round-robin over the compute nodes.
    pub fn round_robin(name: &str, schema: Schema, rows: Vec<Row>, tree: &Tree) -> Self {
        let (name, schema) =
            Self::validated(name, schema, &rows).expect("rows must match the schema");
        let mut fragments = Self::empty_fragments(tree);
        let vc = tree.compute_nodes();
        for (i, row) in rows.into_iter().enumerate() {
            fragments[vc[i % vc.len()].index()].push(row);
        }
        DistributedTable {
            name,
            schema,
            fragments,
            columnar: Vec::new(),
        }
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
        let (name, schema) = Self::validated(name, schema, &rows)?;
        let mut fragments = Self::empty_fragments(tree);
        let vc = tree.compute_nodes();
        for row in rows {
            let h = mix64(row[idx] ^ seed) % vc.len() as u64;
            fragments[vc[h as usize].index()].push(row);
        }
        Ok(DistributedTable {
            name,
            schema,
            fragments,
            columnar: Vec::new(),
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
        let (name, schema) =
            Self::validated(name, schema, &rows).expect("rows must match the schema");
        let mut fragments = Self::empty_fragments(tree);
        let others: Vec<NodeId> = tree
            .compute_nodes()
            .iter()
            .copied()
            .filter(|&v| v != heavy)
            .collect();
        let cut = (rows.len() as f64 * alpha).round() as usize;
        for (i, row) in rows.into_iter().enumerate() {
            if i < cut || others.is_empty() {
                fragments[heavy.index()].push(row);
            } else {
                fragments[others[(i - cut) % others.len()].index()].push(row);
            }
        }
        DistributedTable {
            name,
            schema,
            fragments,
            columnar: Vec::new(),
        }
    }

    /// All rows on a single node.
    pub fn single_node(name: &str, schema: Schema, rows: Vec<Row>, tree: &Tree, v: NodeId) -> Self {
        Self::skewed(name, schema, rows, tree, v, 1.0)
    }

    /// Total number of rows.
    pub fn num_rows(&self) -> usize {
        self.fragments.iter().map(Vec::len).sum()
    }

    /// All rows, concatenated in node-id order.
    pub fn all_rows(&self) -> Vec<Row> {
        self.fragments.iter().flatten().cloned().collect()
    }

    /// Per-node row counts (the `|X_0(v)|` statistics).
    pub fn row_counts(&self) -> Vec<u64> {
        self.fragments.iter().map(|f| f.len() as u64).collect()
    }
}

/// A set of named tables bound to one topology.
#[derive(Clone, Debug)]
pub struct Catalog {
    tree: Tree,
    tables: Vec<DistributedTable>,
}

impl Catalog {
    /// An empty catalog over `tree`.
    pub fn new(tree: Tree) -> Self {
        Catalog {
            tree,
            tables: Vec::new(),
        }
    }

    /// The topology this catalog's tables live on.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Re-weight edge `e` of the bound topology in place, dividing both
    /// directed bandwidths by `factor` — the degraded-link serving
    /// mutation. Table fragments are untouched (rows do not move when a
    /// link slows down); only subsequent plan pricing observes the new
    /// weights. Invalid targets (unknown edge, non-finite or non-positive
    /// factor) surface as [`QueryError::InvalidFaultTarget`].
    pub fn scale_bandwidth(&mut self, e: EdgeId, factor: f64) -> Result<(), QueryError> {
        self.tree
            .scale_bandwidth(e, factor)
            .map_err(|err| QueryError::InvalidFaultTarget(err.to_string()))
    }

    /// Register a table. Replaces any table with the same name.
    pub fn register(&mut self, table: DistributedTable) -> Result<(), QueryError> {
        if table.fragments.len() != self.tree.num_nodes() {
            return Err(QueryError::Plan(format!(
                "table `{}` has {} fragments for a {}-node topology",
                table.name,
                table.fragments.len(),
                self.tree.num_nodes()
            )));
        }
        for (i, frag) in table.fragments.iter().enumerate() {
            if !frag.is_empty() && !self.tree.is_compute(NodeId(i as u32)) {
                return Err(QueryError::Plan(format!(
                    "table `{}` places rows on router node {i}",
                    table.name
                )));
            }
        }
        self.tables.retain(|t| t.name != table.name);
        let mut table = table;
        table.build_columnar();
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
    use tamp_topology::builders;

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
            assert_eq!(t.fragments[v.index()].len(), 10);
        }
    }

    #[test]
    fn hash_partition_colocates_keys() {
        let tree = builders::star(3, 1.0);
        let mut dup = rows(20);
        dup.extend(rows(20)); // every key twice
        let t = DistributedTable::hash_partitioned("t", schema(), dup, "k", &tree, 7).unwrap();
        // Equal keys land on equal nodes.
        for frag_a in &t.fragments {
            for row in frag_a {
                let home: Vec<usize> = t
                    .fragments
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.iter().any(|r| r[0] == row[0]))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(home.len(), 1, "key {} on nodes {home:?}", row[0]);
            }
        }
    }

    #[test]
    fn skewed_gives_heavy_its_share() {
        let tree = builders::star(4, 1.0);
        let heavy = tree.compute_nodes()[1];
        let t = DistributedTable::skewed("t", schema(), rows(100), &tree, heavy, 0.7);
        assert_eq!(t.fragments[heavy.index()].len(), 70);
        assert_eq!(t.num_rows(), 100);
    }

    #[test]
    fn single_node_is_lopsided() {
        let tree = builders::star(3, 1.0);
        let v = tree.compute_nodes()[2];
        let t = DistributedTable::single_node("t", schema(), rows(10), &tree, v);
        assert_eq!(t.fragments[v.index()].len(), 10);
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
        let tree = builders::star(2, 1.0); // node 2 is the hub
        let mut c = Catalog::new(tree.clone());
        let mut t = DistributedTable::round_robin("t", schema(), rows(2), &tree);
        t.fragments[2].push(vec![1, 2]);
        assert!(matches!(c.register(t), Err(QueryError::Plan(_))));
    }

    #[test]
    #[should_panic(expected = "rows must match the schema")]
    fn width_mismatch_is_rejected() {
        let tree = builders::star(2, 1.0);
        DistributedTable::round_robin("t", schema(), vec![vec![1, 2, 3]], &tree);
    }
}
