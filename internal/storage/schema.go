// Package storage defines the physical layer shared by the MVCC engine:
// table schemas, rows, and value helpers. It is deliberately free of any
// transaction logic so that the formal-model tests can use it directly.
package storage

import (
	"fmt"

	"madeus/internal/sqlmini"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       sqlmini.ValueKind
	PrimaryKey bool
}

// Schema describes a table: its name, columns, and primary key.
// Every table has exactly one primary-key column (sufficient for the TPC-W
// style workloads Madeus targets; composite keys are emulated with an
// encoded TEXT key column).
type Schema struct {
	Name    string
	Columns []Column
	pkIndex int
	colIdx  map[string]int
}

// NewSchema validates the column list and builds a schema.
func NewSchema(name string, cols []Column) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: table %s has no columns", name)
	}
	s := &Schema{Name: name, Columns: cols, pkIndex: -1, colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: table %s: empty column name", name)
		}
		if _, dup := s.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %s: duplicate column %s", name, c.Name)
		}
		s.colIdx[c.Name] = i
		if c.PrimaryKey {
			if s.pkIndex >= 0 {
				return nil, fmt.Errorf("storage: table %s: multiple primary keys", name)
			}
			s.pkIndex = i
		}
	}
	if s.pkIndex < 0 {
		return nil, fmt.Errorf("storage: table %s: no primary key", name)
	}
	return s, nil
}

// PKIndex returns the index of the primary-key column.
func (s *Schema) PKIndex() int { return s.pkIndex }

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.colIdx[name]; ok {
		return i
	}
	return -1
}

// Row is one tuple; Row[i] corresponds to Schema.Columns[i].
type Row []sqlmini.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows hold identical values.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// PK returns the primary-key value of the row under schema s.
func (s *Schema) PK(r Row) sqlmini.Value { return r[s.pkIndex] }

// CheckRow validates that the row matches the schema's arity and types.
// NULL is accepted for any non-PK column; integers widen to FLOAT columns.
func (s *Schema) CheckRow(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("storage: table %s: row has %d values, want %d",
			s.Name, len(r), len(s.Columns))
	}
	for i, v := range r {
		col := s.Columns[i]
		if v.IsNull() {
			if col.PrimaryKey {
				return s.CheckPK(v)
			}
			continue
		}
		if v.Kind != col.Type {
			if v.Kind == sqlmini.KindInt && col.Type == sqlmini.KindFloat {
				continue // widened at coercion time
			}
			return fmt.Errorf("storage: table %s: column %s: got %s, want %s",
				s.Name, col.Name, v.Kind, col.Type)
		}
	}
	return nil
}

// CheckPK refuses a NULL primary key, the one check CheckRow makes of a
// row whose every value is already its column's kind or NULL (a row
// checked on its encoding, as mvcc's restore checks one).
func (s *Schema) CheckPK(pk sqlmini.Value) error {
	if pk.IsNull() {
		return fmt.Errorf("storage: table %s: NULL primary key", s.Name)
	}
	return nil
}

// Widen returns v as column i stores it: an INT in a column the schema
// declares FLOAT widened to that FLOAT, any other value as it is.
func (s *Schema) Widen(i int, v sqlmini.Value) sqlmini.Value {
	if v.Kind == sqlmini.KindInt && s.Columns[i].Type == sqlmini.KindFloat {
		return sqlmini.NewFloat(float64(v.Int))
	}
	return v
}
