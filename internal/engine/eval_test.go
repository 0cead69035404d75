package engine

import (
	"strings"
	"testing"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// evalOn parses `SELECT * FROM t WHERE <expr>` and evaluates the WHERE
// clause against one row.
func evalOn(t *testing.T, expr string, schema *storage.Schema, row storage.Row) (sqlmini.Value, error) {
	t.Helper()
	st, err := sqlmini.Parse("SELECT * FROM t WHERE " + expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return evalExpr(st.(*sqlmini.Select).Where, nil, schema, row)
}

func evalSchema(t *testing.T) (*storage.Schema, storage.Row) {
	t.Helper()
	s, err := storage.NewSchema("t", []storage.Column{
		{Name: "i", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "f", Type: sqlmini.KindFloat},
		{Name: "s", Type: sqlmini.KindText},
		{Name: "b", Type: sqlmini.KindBool},
		{Name: "n", Type: sqlmini.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := storage.Row{
		sqlmini.NewInt(10), sqlmini.NewFloat(2.5), sqlmini.NewText("hi"),
		sqlmini.NewBool(true), sqlmini.Null(),
	}
	return s, row
}

func TestEvalArithmetic(t *testing.T) {
	schema, row := evalSchema(t)
	cases := map[string]sqlmini.Value{
		"i + 5":       sqlmini.NewInt(15),
		"i - 3":       sqlmini.NewInt(7),
		"i * 2":       sqlmini.NewInt(20),
		"i / 3":       sqlmini.NewInt(3), // integer division
		"f + 1":       sqlmini.NewFloat(3.5),
		"f * 2":       sqlmini.NewFloat(5),
		"i + f":       sqlmini.NewFloat(12.5), // mixed widens
		"f / 2":       sqlmini.NewFloat(1.25),
		"-i":          sqlmini.NewInt(-10),
		"-f":          sqlmini.NewFloat(-2.5),
		"i + n":       sqlmini.Null(), // NULL propagates
		"-n":          sqlmini.Null(),
		"2 + 3 * 4":   sqlmini.NewInt(14),
		"(2 + 3) * 4": sqlmini.NewInt(20),
	}
	for expr, want := range cases {
		got, err := evalOn(t, expr, schema, row)
		if err != nil {
			t.Errorf("%s: %v", expr, err)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestEvalComparisons(t *testing.T) {
	schema, row := evalSchema(t)
	cases := map[string]bool{
		"i = 10":     true,
		"i <> 10":    false,
		"i != 9":     true,
		"i < 11":     true,
		"i <= 10":    true,
		"i > 10":     false,
		"i >= 10":    true,
		"f = 2.5":    true,
		"s = 'hi'":   true,
		"s < 'hj'":   true,
		"b = TRUE":   true,
		"i = f":      false, // 10 vs 2.5
		"NOT i = 10": false,
	}
	for expr, want := range cases {
		got, err := evalOn(t, expr, schema, row)
		if err != nil {
			t.Errorf("%s: %v", expr, err)
			continue
		}
		if got.Kind != sqlmini.KindBool || got.Bool() != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	schema, row := evalSchema(t)
	// n is NULL: comparisons yield NULL; AND/OR follow SQL semantics.
	null := map[string]bool{
		"n = 1":            true,
		"n <> 1":           true,
		"b AND n = 1":      true, // TRUE AND NULL = NULL
		"n = 1 OR i = 999": true, // NULL OR FALSE = NULL
		"NOT n = 1":        true, // NOT NULL = NULL
	}
	for expr := range null {
		got, err := evalOn(t, expr, schema, row)
		if err != nil {
			t.Errorf("%s: %v", expr, err)
			continue
		}
		if !got.IsNull() {
			t.Errorf("%s = %v, want NULL", expr, got)
		}
	}
	// Short-circuit-style identities.
	truths := map[string]bool{
		"i = 999 AND n = 1": false, // FALSE AND NULL = FALSE
		"i = 10 OR n = 1":   true,  // TRUE OR NULL = TRUE
	}
	for expr, want := range truths {
		got, err := evalOn(t, expr, schema, row)
		if err != nil {
			t.Errorf("%s: %v", expr, err)
			continue
		}
		if got.Kind != sqlmini.KindBool || got.Bool() != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestEvalFilterSelectsOnlyTrue(t *testing.T) {
	schema, row := evalSchema(t)
	for expr, want := range map[string]bool{
		"i = 10": true,
		"i = 11": false,
		"n = 1":  false, // NULL is not selected
	} {
		st, err := sqlmini.Parse("SELECT * FROM t WHERE " + expr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := evalFilter(st.(*sqlmini.Select).Where, nil, schema, row)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("filter %s = %v, want %v", expr, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	schema, row := evalSchema(t)
	for _, expr := range []string{
		"i / 0",         // integer division by zero
		"f / 0",         // float division by zero
		"i / (f - 2.5)", // float zero via expression
		"s + 1",         // arithmetic on text
		"-s",            // negate text
		"NOT i",         // NOT of non-bool
		"i AND b",       // AND with non-bool operand
		"missing = 1",   // unknown column
		"s = 1",         // incomparable kinds
	} {
		if _, err := evalOn(t, expr, schema, row); err == nil {
			t.Errorf("%s: want error", expr)
		}
	}
}

func TestEvalColumnInConstantContext(t *testing.T) {
	// INSERT values cannot reference columns.
	e := New(Options{})
	defer e.Close()
	if err := e.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	s, _ := e.NewSession("d")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	_, err := s.Exec("INSERT INTO t (id, v) VALUES (1, id)")
	if err == nil || !strings.Contains(err.Error(), "constant context") {
		t.Errorf("got %v, want constant-context error", err)
	}
}
