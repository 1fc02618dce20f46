//! Schema definitions: tables, columns and foreign-key edges.

use serde::{Deserialize, Serialize};

use crate::types::{ColumnType, Distribution};

/// Index of a table within its schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TableId(pub u32);

impl TableId {
    /// The table index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Database-global column id: `table_id * 64 + column_index`.
///
/// Plans and predicate encodings refer to columns by this id; 64 columns per
/// table is far above anything the generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnId(pub u32);

/// Columns-per-table stride used to form global column ids.
pub const COLUMNS_PER_TABLE_STRIDE: u32 = 64;

impl ColumnId {
    /// Compose from table id and column index.
    #[inline]
    pub fn new(table: TableId, column: u32) -> Self {
        debug_assert!(column < COLUMNS_PER_TABLE_STRIDE);
        ColumnId(table.0 * COLUMNS_PER_TABLE_STRIDE + column)
    }

    /// The table this column belongs to.
    #[inline]
    pub fn table(self) -> TableId {
        TableId(self.0 / COLUMNS_PER_TABLE_STRIDE)
    }

    /// The column's index within its table.
    #[inline]
    pub fn column(self) -> u32 {
        self.0 % COLUMNS_PER_TABLE_STRIDE
    }
}

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Logical type.
    pub col_type: ColumnType,
    /// Generating distribution.
    pub distribution: Distribution,
    /// Fraction of NULLs in `[0, 1)`.
    pub null_frac: f64,
    /// Whether the engine has a B-tree index on this column (primary keys
    /// and foreign keys always do).
    pub indexed: bool,
}

/// Definition of one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Row count at scale factor 1.0.
    pub base_rows: u64,
    /// Column definitions; column 0 is always the serial primary key.
    pub columns: Vec<ColumnDef>,
}

/// A foreign-key edge: `child.column` references `parent`'s primary key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FkEdge {
    /// Referencing table.
    pub child: TableId,
    /// Referencing column index within the child table.
    pub child_column: u32,
    /// Referenced table (its column 0 / primary key).
    pub parent: TableId,
}

/// A database schema: tables plus the FK graph the workload generator walks
/// to produce join queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    /// Schema (database) name.
    pub name: String,
    /// Tables.
    pub tables: Vec<TableDef>,
    /// Foreign-key edges.
    pub fks: Vec<FkEdge>,
}

impl Schema {
    /// Table definition by id.
    #[inline]
    pub fn table(&self, id: TableId) -> &TableDef {
        &self.tables[id.index()]
    }

    /// Column definition by global column id.
    #[inline]
    pub fn column(&self, id: ColumnId) -> &ColumnDef {
        &self.table(id.table()).columns[id.column() as usize]
    }

    /// All table ids.
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> {
        (0..self.tables.len() as u32).map(TableId)
    }

    /// FK edges incident to `table` (either direction).
    pub fn fks_of(&self, table: TableId) -> Vec<FkEdge> {
        self.fks
            .iter()
            .filter(|e| e.child == table || e.parent == table)
            .copied()
            .collect()
    }

    /// The join condition along `edge`, rendered as
    /// `child.column = parent.pk`, e.g. `mk.movie_id = t.id`.
    pub fn join_condition(&self, edge: FkEdge) -> String {
        let child = self.table(edge.child);
        let parent = self.table(edge.parent);
        format!(
            "{}.{} = {}.{}",
            child.name,
            child.columns[edge.child_column as usize].name,
            parent.name,
            parent.columns[0].name
        )
    }

    /// Total number of columns across all tables.
    pub fn total_columns(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// Render `CREATE TABLE` DDL for the whole schema (for docs/examples).
    pub fn render_ddl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (ti, t) in self.tables.iter().enumerate() {
            let _ = writeln!(out, "CREATE TABLE {} (", t.name);
            for (ci, c) in t.columns.iter().enumerate() {
                let pk = if ci == 0 { " PRIMARY KEY" } else { "" };
                let comma = if ci + 1 == t.columns.len() { "" } else { "," };
                let _ = writeln!(
                    out,
                    "    {} {}{}{}",
                    c.name,
                    c.col_type.sql_name(),
                    pk,
                    comma
                );
            }
            let _ = writeln!(out, ");");
            for e in self.fks.iter().filter(|e| e.child.index() == ti) {
                let _ = writeln!(
                    out,
                    "ALTER TABLE {} ADD FOREIGN KEY ({}) REFERENCES {} ({});",
                    t.name,
                    t.columns[e.child_column as usize].name,
                    self.table(e.parent).name,
                    self.table(e.parent).columns[0].name,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_id_roundtrip() {
        let id = ColumnId::new(TableId(7), 13);
        assert_eq!(id.table(), TableId(7));
        assert_eq!(id.column(), 13);
    }

    #[test]
    fn ddl_renders_pk_and_fk() {
        let schema = Schema {
            name: "demo".into(),
            tables: vec![
                TableDef {
                    name: "parent".into(),
                    base_rows: 10,
                    columns: vec![ColumnDef {
                        name: "id".into(),
                        col_type: ColumnType::Int,
                        distribution: Distribution::Serial,
                        null_frac: 0.0,
                        indexed: true,
                    }],
                },
                TableDef {
                    name: "child".into(),
                    base_rows: 100,
                    columns: vec![
                        ColumnDef {
                            name: "id".into(),
                            col_type: ColumnType::Int,
                            distribution: Distribution::Serial,
                            null_frac: 0.0,
                            indexed: true,
                        },
                        ColumnDef {
                            name: "parent_id".into(),
                            col_type: ColumnType::Int,
                            distribution: Distribution::ForeignKey {
                                parent_table: 0,
                                s: 0.0,
                            },
                            null_frac: 0.0,
                            indexed: true,
                        },
                    ],
                },
            ],
            fks: vec![FkEdge {
                child: TableId(1),
                child_column: 1,
                parent: TableId(0),
            }],
        };
        let ddl = schema.render_ddl();
        assert!(ddl.contains("CREATE TABLE parent"));
        assert!(ddl.contains("id BIGINT PRIMARY KEY"));
        assert!(ddl.contains("ADD FOREIGN KEY (parent_id) REFERENCES parent (id)"));
        assert_eq!(schema.fks_of(TableId(0)).len(), 1);
        assert_eq!(
            schema.join_condition(schema.fks[0]),
            "child.parent_id = parent.id"
        );
        assert_eq!(schema.total_columns(), 3);
    }
}
