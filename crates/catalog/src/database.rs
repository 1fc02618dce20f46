//! A generated database: schema + columnar data + statistics.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::schema::{ColumnId, FkEdge, Schema, TableId};
use crate::stats::{ColumnStats, TableStats};
use crate::suite::DatabaseSpec;

/// Columnar data of one table: `columns[c][r]` is the code of row `r` in
/// column `c` (see crate docs for the code encodings; NULL is
/// [`crate::stats::NULL_CODE`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableData {
    /// One value vector per column.
    pub columns: Vec<Vec<i64>>,
}

impl TableData {
    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }
}

/// A fully materialized synthetic database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Database {
    /// The spec this database was generated from.
    pub spec: DatabaseSpec,
    /// The schema.
    pub schema: Schema,
    /// Columnar table data, parallel to `schema.tables`.
    pub tables: Vec<TableData>,
    /// Statistics, parallel to `schema.tables`.
    pub stats: Vec<TableStats>,
    /// The plan payloads' shared strings, derived from `schema` on first
    /// use (and so rebuilt, not stored, when a database is deserialized).
    #[serde(skip)]
    names: OnceLock<PlanNames>,
}

/// The strings every plan over a database shares: each table's name and
/// each foreign key's rendered join condition, one copy per database.
#[derive(Debug, Clone)]
struct PlanNames {
    /// Parallel to `schema.tables`.
    tables: Vec<Arc<str>>,
    /// Parallel to `schema.fks`.
    fk_conditions: Vec<Arc<str>>,
}

impl Database {
    /// A database over `schema` with the given data and statistics.
    pub fn new(
        spec: DatabaseSpec,
        schema: Schema,
        tables: Vec<TableData>,
        stats: Vec<TableStats>,
    ) -> Database {
        Database {
            spec,
            schema,
            tables,
            stats,
            names: OnceLock::new(),
        }
    }

    /// Suite id of this database.
    #[inline]
    pub fn db_id(&self) -> u16 {
        self.spec.db_id
    }

    /// Data of `table`.
    #[inline]
    pub fn table_data(&self, table: TableId) -> &TableData {
        &self.tables[table.index()]
    }

    /// Statistics of `table`.
    #[inline]
    pub fn table_stats(&self, table: TableId) -> &TableStats {
        &self.stats[table.index()]
    }

    /// Statistics of a column by global id.
    #[inline]
    pub fn column_stats(&self, column: ColumnId) -> &ColumnStats {
        &self.stats[column.table().index()].columns[column.column() as usize]
    }

    /// Column values by global id.
    #[inline]
    pub fn column_data(&self, column: ColumnId) -> &[i64] {
        &self.tables[column.table().index()].columns[column.column() as usize]
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> u64 {
        self.stats.iter().map(|s| s.row_count).sum()
    }

    fn names(&self) -> &PlanNames {
        self.names.get_or_init(|| PlanNames {
            tables: self
                .schema
                .tables
                .iter()
                .map(|t| t.name.as_str().into())
                .collect(),
            fk_conditions: self
                .schema
                .fks
                .iter()
                .map(|e| self.schema.join_condition(*e).into())
                .collect(),
        })
    }

    /// The name of `table`, shared by every plan that scans it.
    pub fn table_name(&self, table: TableId) -> &Arc<str> {
        &self.names().tables[table.index()]
    }

    /// The rendered condition of the join along `edge`
    /// ([`Schema::join_condition`]). A declared foreign key's condition is
    /// shared by every plan that joins along it; any other edge's is
    /// rendered afresh.
    pub fn join_condition(&self, edge: FkEdge) -> Arc<str> {
        match self.schema.fks.iter().position(|&e| e == edge) {
            Some(i) => Arc::clone(&self.names().fk_conditions[i]),
            None => self.schema.join_condition(edge).into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::generate_database;
    use crate::schema::{ColumnId, FkEdge, TableId};
    use crate::suite::suite_specs;
    use crate::Database;

    #[test]
    fn accessors_are_consistent() {
        let db = generate_database(&suite_specs()[4], 0.01);
        for tid in db.schema.table_ids() {
            let data = db.table_data(tid);
            let stats = db.table_stats(tid);
            assert_eq!(data.rows() as u64, stats.row_count);
            assert_eq!(data.columns.len(), db.schema.table(tid).columns.len());
            assert_eq!(data.columns.len(), stats.columns.len());
        }
        let cid = ColumnId::new(TableId(0), 0);
        assert_eq!(db.column_data(cid).len(), db.table_data(TableId(0)).rows());
        assert!(db.total_rows() > 0);
    }

    #[test]
    fn plan_names_are_shared_and_survive_serde() {
        let db = generate_database(&suite_specs()[4], 0.01);
        let table = TableId(1);
        assert_eq!(&**db.table_name(table), db.schema.table(table).name);
        assert!(Arc::ptr_eq(db.table_name(table), db.table_name(table)));

        let fk = db.schema.fks[0];
        let (a, b) = (db.join_condition(fk), db.join_condition(fk));
        assert!(Arc::ptr_eq(&a, &b), "a declared FK's condition is shared");
        assert_eq!(*a, db.schema.join_condition(fk));

        // An undeclared edge still renders, in the same format.
        let odd = FkEdge {
            child_column: 0,
            ..fk
        };
        assert!(!db.schema.fks.contains(&odd));
        assert_eq!(*db.join_condition(odd), db.schema.join_condition(odd));

        // The names are not serialized; a loaded copy derives them again.
        let back: Database = serde_json::from_str(&serde_json::to_string(&db).unwrap()).unwrap();
        assert_eq!(back.table_name(table), db.table_name(table));
        assert_eq!(back.join_condition(fk), a);
    }
}
