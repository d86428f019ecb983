//! Schema catalog: tables, columns, and foreign keys.
//!
//! The catalog is the static half of the database. Foreign keys declared here
//! become the edges of the [`crate::graph::SchemaGraph`] that candidate
//! discovery walks.

use crate::error::DbError;
use crate::types::DataType;
use std::collections::HashMap;
use std::fmt;

/// Identifies a table within one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl TableId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a column by table and ordinal position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    pub table: TableId,
    pub column: u32,
}

impl ColumnRef {
    pub fn new(table: TableId, column: u32) -> ColumnRef {
        ColumnRef { table, column }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.c{}", self.table.0, self.column)
    }
}

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

/// A table declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Position of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<u32> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .map(|i| i as u32)
    }

    pub fn column(&self, idx: u32) -> &ColumnDef {
        &self.columns[idx as usize]
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// A foreign-key (joinable column pair) declaration: `from` references `to`.
/// Both directions are traversable during join-tree search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    pub from: ColumnRef,
    pub to: ColumnRef,
}

/// All schema information for one database.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableSchema>,
    foreign_keys: Vec<ForeignKey>,
    by_name: HashMap<String, TableId>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table schema, returning its id.
    pub fn add_table(&mut self, schema: TableSchema) -> Result<TableId, DbError> {
        let key = schema.name.to_lowercase();
        if self.by_name.contains_key(&key) {
            return Err(DbError::DuplicateTable(schema.name));
        }
        let mut seen = HashMap::new();
        for c in &schema.columns {
            if seen.insert(c.name.to_lowercase(), ()).is_some() {
                return Err(DbError::DuplicateColumn {
                    table: schema.name.clone(),
                    column: c.name.clone(),
                });
            }
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(key, id);
        self.tables.push(schema);
        Ok(id)
    }

    /// Register a foreign key between already-declared columns. The two
    /// columns must have join-compatible types (numeric with numeric, or
    /// exactly equal otherwise), and the pair must not be declared yet in
    /// either direction: the schema graph turns every declaration into an
    /// edge, so a repeat would list every mapping over that join twice.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<(), DbError> {
        let from_t = self.table(fk.from.table);
        let to_t = self.table(fk.to.table);
        let from_c = from_t.column(fk.from.column);
        let to_c = to_t.column(fk.to.column);
        let same_pair = |k: &ForeignKey| {
            (k.from, k.to) == (fk.from, fk.to) || (k.from, k.to) == (fk.to, fk.from)
        };
        if self.foreign_keys.iter().any(same_pair) {
            return Err(DbError::DuplicateForeignKey {
                from: format!("{}.{}", from_t.name, from_c.name),
                to: format!("{}.{}", to_t.name, to_c.name),
            });
        }
        let compatible =
            from_c.dtype == to_c.dtype || (from_c.dtype.is_numeric() && to_c.dtype.is_numeric());
        if !compatible {
            return Err(DbError::ForeignKeyTypeMismatch {
                from: format!("{}.{}", from_t.name, from_c.name),
                to: format!("{}.{}", to_t.name, to_c.name),
            });
        }
        self.foreign_keys.push(fk);
        Ok(())
    }

    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    pub fn table(&self, id: TableId) -> &TableSchema {
        &self.tables[id.index()]
    }

    pub fn tables(&self) -> impl Iterator<Item = (TableId, &TableSchema)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }

    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Look up a table id by case-insensitive name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(&name.to_lowercase()).copied()
    }

    /// Resolve `table.column` names into a [`ColumnRef`].
    pub fn column_ref(&self, table: &str, column: &str) -> Result<ColumnRef, DbError> {
        let tid = self
            .table_id(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let cid = self
            .table(tid)
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        Ok(ColumnRef::new(tid, cid))
    }

    /// Human-readable `Table.Column` name of a column reference.
    pub fn column_name(&self, col: ColumnRef) -> String {
        let t = self.table(col.table);
        format!("{}.{}", t.name, t.column(col.column).name)
    }

    /// Every column of every table, in deterministic order.
    pub fn all_columns(&self) -> impl Iterator<Item = ColumnRef> + '_ {
        self.tables.iter().enumerate().flat_map(|(ti, t)| {
            (0..t.columns.len() as u32).map(move |ci| ColumnRef::new(TableId(ti as u32), ci))
        })
    }

    pub fn column_def(&self, col: ColumnRef) -> &ColumnDef {
        self.table(col.table).column(col.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lake_schema() -> TableSchema {
        TableSchema {
            name: "Lake".into(),
            columns: vec![
                ColumnDef {
                    name: "Name".into(),
                    dtype: DataType::Text,
                    nullable: false,
                },
                ColumnDef {
                    name: "Area".into(),
                    dtype: DataType::Decimal,
                    nullable: true,
                },
            ],
        }
    }

    fn geo_lake_schema() -> TableSchema {
        TableSchema {
            name: "geo_lake".into(),
            columns: vec![
                ColumnDef {
                    name: "Lake".into(),
                    dtype: DataType::Text,
                    nullable: false,
                },
                ColumnDef {
                    name: "Province".into(),
                    dtype: DataType::Text,
                    nullable: false,
                },
            ],
        }
    }

    #[test]
    fn add_and_resolve_tables() {
        let mut cat = Catalog::new();
        let lake = cat.add_table(lake_schema()).unwrap();
        assert_eq!(cat.table_id("lake"), Some(lake));
        assert_eq!(cat.table_id("LAKE"), Some(lake));
        assert_eq!(cat.table_id("river"), None);
        let cref = cat.column_ref("Lake", "area").unwrap();
        assert_eq!(cref, ColumnRef::new(lake, 1));
        assert_eq!(cat.column_name(cref), "Lake.Area");
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        cat.add_table(lake_schema()).unwrap();
        assert!(matches!(
            cat.add_table(lake_schema()),
            Err(DbError::DuplicateTable(_))
        ));
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut cat = Catalog::new();
        let mut s = lake_schema();
        s.columns.push(ColumnDef {
            name: "name".into(),
            dtype: DataType::Text,
            nullable: true,
        });
        assert!(matches!(
            cat.add_table(s),
            Err(DbError::DuplicateColumn { .. })
        ));
    }

    #[test]
    fn foreign_key_type_check() {
        let mut cat = Catalog::new();
        let lake = cat.add_table(lake_schema()).unwrap();
        let geo = cat.add_table(geo_lake_schema()).unwrap();
        // Text joined to Text is fine: geo_lake.Lake -> Lake.Name.
        cat.add_foreign_key(ForeignKey {
            from: ColumnRef::new(geo, 0),
            to: ColumnRef::new(lake, 0),
        })
        .unwrap();
        // Text joined to Decimal is rejected.
        let err = cat.add_foreign_key(ForeignKey {
            from: ColumnRef::new(geo, 1),
            to: ColumnRef::new(lake, 1),
        });
        assert!(matches!(err, Err(DbError::ForeignKeyTypeMismatch { .. })));
        assert_eq!(cat.foreign_keys().len(), 1);
    }

    #[test]
    fn duplicate_foreign_key_rejected_in_either_direction() {
        let mut cat = Catalog::new();
        let lake = cat.add_table(lake_schema()).unwrap();
        let geo = cat.add_table(geo_lake_schema()).unwrap();
        let fk = ForeignKey {
            from: ColumnRef::new(geo, 0),
            to: ColumnRef::new(lake, 0),
        };
        cat.add_foreign_key(fk).unwrap();
        let reversed = ForeignKey {
            from: fk.to,
            to: fk.from,
        };
        for repeat in [fk, reversed] {
            let err = cat.add_foreign_key(repeat).unwrap_err();
            assert!(matches!(err, DbError::DuplicateForeignKey { .. }), "{err}");
            assert!(err.to_string().contains("geo_lake.Lake"), "{err}");
        }
        assert_eq!(cat.foreign_keys().len(), 1);
    }

    #[test]
    fn unknown_lookups_error() {
        let mut cat = Catalog::new();
        cat.add_table(lake_schema()).unwrap();
        assert!(matches!(
            cat.column_ref("River", "Name"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            cat.column_ref("Lake", "Depth"),
            Err(DbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn all_columns_enumerates_in_order() {
        let mut cat = Catalog::new();
        cat.add_table(lake_schema()).unwrap();
        cat.add_table(geo_lake_schema()).unwrap();
        let cols: Vec<_> = cat.all_columns().collect();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols[0], ColumnRef::new(TableId(0), 0));
        assert_eq!(cols[3], ColumnRef::new(TableId(1), 1));
    }
}
