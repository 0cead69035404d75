package storage

import (
	"testing"

	"madeus/internal/sqlmini"
)

func itemSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("items", []Column{
		{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "title", Type: sqlmini.KindText},
		{Name: "cost", Type: sqlmini.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValid(t *testing.T) {
	s := itemSchema(t)
	if s.PKIndex() != 0 {
		t.Errorf("PKIndex = %d, want 0", s.PKIndex())
	}
	if s.ColumnIndex("cost") != 2 {
		t.Errorf("ColumnIndex(cost) = %d, want 2", s.ColumnIndex("cost"))
	}
	if s.ColumnIndex("missing") != -1 {
		t.Errorf("ColumnIndex(missing) != -1")
	}
}

func TestNewSchemaErrors(t *testing.T) {
	cases := []struct {
		name string
		tbl  string
		cols []Column
	}{
		{"empty name", "", []Column{{Name: "a", Type: sqlmini.KindInt, PrimaryKey: true}}},
		{"no columns", "t", nil},
		{"empty column name", "t", []Column{{Name: "", Type: sqlmini.KindInt, PrimaryKey: true}}},
		{"duplicate column", "t", []Column{
			{Name: "a", Type: sqlmini.KindInt, PrimaryKey: true},
			{Name: "a", Type: sqlmini.KindInt},
		}},
		{"no pk", "t", []Column{{Name: "a", Type: sqlmini.KindInt}}},
		{"two pks", "t", []Column{
			{Name: "a", Type: sqlmini.KindInt, PrimaryKey: true},
			{Name: "b", Type: sqlmini.KindInt, PrimaryKey: true},
		}},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.tbl, c.cols); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestRowCloneIndependent(t *testing.T) {
	r := Row{sqlmini.NewInt(1), sqlmini.NewText("x")}
	c := r.Clone()
	c[1] = sqlmini.NewText("y")
	if r[1].Str != "x" {
		t.Error("Clone shares backing array")
	}
	if !r.Equal(Row{sqlmini.NewInt(1), sqlmini.NewText("x")}) {
		t.Error("Equal failed on identical rows")
	}
	if r.Equal(c) {
		t.Error("Equal true for different rows")
	}
	if r.Equal(r[:1]) {
		t.Error("Equal true for different arity")
	}
}

func TestCheckRow(t *testing.T) {
	s := itemSchema(t)
	good := Row{sqlmini.NewInt(1), sqlmini.NewText("a"), sqlmini.NewFloat(2.5)}
	if err := s.CheckRow(good); err != nil {
		t.Errorf("good row: %v", err)
	}
	if err := s.CheckRow(good[:2]); err == nil {
		t.Error("short row: want error")
	}
	badType := Row{sqlmini.NewInt(1), sqlmini.NewInt(9), sqlmini.NewFloat(2.5)}
	if err := s.CheckRow(badType); err == nil {
		t.Error("bad type: want error")
	}
	nullPK := Row{sqlmini.Null(), sqlmini.NewText("a"), sqlmini.NewFloat(1)}
	if err := s.CheckRow(nullPK); err == nil {
		t.Error("NULL pk: want error")
	}
	nullOther := Row{sqlmini.NewInt(1), sqlmini.Null(), sqlmini.Null()}
	if err := s.CheckRow(nullOther); err != nil {
		t.Errorf("NULL non-pk: %v", err)
	}
	intToFloat := Row{sqlmini.NewInt(1), sqlmini.NewText("a"), sqlmini.NewInt(3)}
	if err := s.CheckRow(intToFloat); err != nil {
		t.Errorf("int widening: %v", err)
	}
}

func TestCoerceWidensIntToFloat(t *testing.T) {
	s := itemSchema(t)
	if v := s.Widen(2, sqlmini.NewInt(3)); v.Kind != sqlmini.KindFloat || v.Float() != 3 {
		t.Errorf("got %v", v)
	}
	if v := s.Widen(0, sqlmini.NewInt(1)); v.Kind != sqlmini.KindInt {
		t.Errorf("INT primary key widened: %v", v)
	}
}

func TestPK(t *testing.T) {
	s := itemSchema(t)
	r := Row{sqlmini.NewInt(7), sqlmini.NewText("a"), sqlmini.NewFloat(1)}
	if pk := s.PK(r); pk.Int != 7 {
		t.Errorf("PK = %v", pk)
	}
}
