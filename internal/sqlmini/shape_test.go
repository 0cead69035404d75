package sqlmini

import (
	"math"
	"slices"
	"testing"
)

// bind returns the statement a shape st stands for with args bound: every
// Param replaced by the Literal of its argument, and a literal INSERT's rows
// taken from args. It is what Parse returns for the text st and args were
// lexed from.
func bind(st Statement, args []Value) Statement {
	var e func(Expr) Expr
	e = func(x Expr) Expr {
		switch x := x.(type) {
		case *Param:
			return &Literal{Val: args[x.Index]}
		case *Binary:
			return &Binary{Op: x.Op, L: e(x.L), R: e(x.R)}
		case *Not:
			return &Not{E: e(x.E)}
		case *Neg:
			return &Neg{E: e(x.E)}
		case nil:
			return nil
		}
		return x
	}
	switch st := st.(type) {
	case *Select:
		b := *st
		b.Where, b.Limit = e(st.Where), e(st.Limit)
		return &b
	case *Update:
		b := *st
		b.Set = slices.Clone(st.Set)
		for i := range b.Set {
			b.Set[i].Value = e(b.Set[i].Value)
		}
		b.Where = e(st.Where)
		return &b
	case *Delete:
		b := *st
		b.Where = e(st.Where)
		return &b
	case *Insert:
		b := *st
		w := len(st.Columns)
		for i := 0; i < st.ArgRows; i++ {
			b.Values = append(b.Values, args[i*w:(i+1)*w])
		}
		b.ArgRows, b.Rows = 0, nil
		for _, row := range st.Rows {
			r := make([]Expr, len(row))
			for i, x := range row {
				r[i] = e(x)
			}
			b.Rows = append(b.Rows, r)
		}
		return &b
	}
	return st
}

// literals reports whether a shape holds a Literal anywhere: a cached
// statement must hold none, or it would carry one client's value to all.
func literals(st Statement) bool {
	var e func(Expr) bool
	e = func(x Expr) bool {
		switch x := x.(type) {
		case *Literal:
			return true
		case *Binary:
			return e(x.L) || e(x.R)
		case *Not:
			return e(x.E)
		case *Neg:
			return e(x.E)
		}
		return false
	}
	switch st := st.(type) {
	case *Select:
		return e(st.Where) || e(st.Limit)
	case *Update:
		for _, a := range st.Set {
			if e(a.Value) {
				return true
			}
		}
		return e(st.Where)
	case *Delete:
		return e(st.Where)
	case *Insert:
		for _, row := range st.Rows {
			if slices.ContainsFunc(row, e) {
				return true
			}
		}
		return st.Values != nil
	}
	return false
}

// checkShape: the shape of sql, parsed and bound, is the statement Parse
// returns: it renders the same, and fails exactly when Parse does. The
// shape itself holds no literal.
func checkShape(t *testing.T, sql string) {
	t.Helper()
	want, perr := Parse(sql)
	key, args, err := Shape(nil, nil, sql)
	var st Statement
	if err == nil {
		st, err = ParseShape(string(key))
	}
	if (err == nil) != (perr == nil) {
		t.Fatalf("%q: Parse error %v, shape error %v (shape %q)", sql, perr, err, key)
	}
	if err != nil {
		return
	}
	if literals(st) {
		t.Fatalf("%q: shape %q parses to a statement holding a literal: %s", sql, key, st)
	}
	if got := bind(st, args).String(); got != want.String() {
		t.Fatalf("%q: shape %q bound to %v renders\n  %s\nParse renders\n  %s", sql, key, args, got, want)
	}
}

// TestShapeMatchesParse runs checkShape over the cases where a shape and a
// parse could part: signed literals and '-' operators, LIMIT with a
// non-integer, doubled quotes, literal and computed INSERT rows, comments
// and errors.
func TestShapeMatchesParse(t *testing.T) {
	for _, sql := range []string{
		"SELECT i_title, i_cost FROM item WHERE i_id = 7",
		"select i_title from item where i_subject = 'ARTS' limit 20",
		"SELECT * FROM t ORDER BY a DESC LIMIT 0",
		"SELECT * FROM t LIMIT 1.5",
		"SELECT * FROM t LIMIT -5",
		"SELECT * FROM t LIMIT 'x'",
		"SELECT * FROM t LIMIT 99999999999999999999",
		"SELECT * FROM t WHERE a = 1 -2",
		"SELECT * FROM t WHERE a = 1-2",
		"SELECT * FROM t WHERE a = (1)-2",
		"SELECT * FROM t WHERE a = b-2",
		"SELECT * FROM t WHERE a = 1 - -2 * -3.5",
		"SELECT * FROM t WHERE a = - 2",
		"SELECT * FROM t WHERE a = -(2)",
		"SELECT * FROM t WHERE a = -9223372036854775808",
		"SELECT * FROM t WHERE a = 1 -9223372036854775808",
		"SELECT * FROM t WHERE a = NULL -1 OR b = TRUE -1",
		"SELECT * FROM t WHERE a = 1--2\n",
		"SELECT * FROM t WHERE NOT a = -1 AND b <> 'it''s' OR c = ''''",
		"UPDATE item SET i_stock = i_stock - 1 WHERE i_id = 5",
		"UPDATE m SET n = -9223372036854775808, x = 1 - -2.5e-07 WHERE id = -1",
		"DELETE FROM cart WHERE sc_id = 3007",
		"INSERT INTO t (a, b, c, d, e, f) VALUES (-5, -2.5e-07, NULL, TRUE, 'x' , 2.5e-07 -- c\n), (1, 2, 3, 4, 5, 6)",
		"INSERT INTO t (a, b) VALUES (-5, 'x'), (1 + 2, - 5), (-(5), 4)",
		"INSERT INTO t (a, b) VALUES (1, 2), (3, 4 * -1)",
		"INSERT INTO t (a) VALUES (99999999999999999999)",
		"INSERT INTO t (a) VALUES (1e400)",
		"INSERT INTO t (a, b) VALUES (1)",
		"CREATE TABLE t (id INT PRIMARY KEY, v NULL)",
		"NULL",
		"BEGIN; ",
		"SELECT ? FROM t",
		"SELECT * FROM t WHERE a = 'oops",
	} {
		checkShape(t, sql)
	}
}

// TestShapeSharesLiterals: statements that differ only in their literals
// share one shape, the case of keywords does not matter, and the arguments
// are the literals in text order.
func TestShapeSharesLiterals(t *testing.T) {
	a, args, err := Shape(nil, nil, "SELECT v FROM t WHERE id = -7 AND s = 'x' LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Shape(nil, nil, "select v from t where id = -123456 and s = 'a longer text' limit 50")
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT v FROM t WHERE id = -?i AND s = ?s LIMIT ?i"; string(a) != want || string(b) != want {
		t.Errorf("shapes %q and %q, want both %q", a, b, want)
	}
	if want := []Value{NewInt(-7), NewText("x"), NewInt(3)}; !slices.Equal(args, want) {
		t.Errorf("args = %v, want %v", args, want)
	}
	min, args, err := Shape(nil, nil, "UPDATE m SET n = -9223372036854775808 WHERE id = 1 -2")
	if err != nil {
		t.Fatal(err)
	}
	if want := "UPDATE m SET n = -?i WHERE id = ?i - ?i"; string(min) != want {
		t.Errorf("shape %q, want %q", min, want)
	}
	if want := []Value{NewInt(math.MinInt64), NewInt(1), NewInt(2)}; !slices.Equal(args, want) {
		t.Errorf("args = %v, want %v", args, want)
	}
}

// TestShapeAllocs: lexing a statement into warm buffers allocates nothing,
// its TEXT arguments included, which are slices of the statement.
func TestShapeAllocs(t *testing.T) {
	const sql = "select i_id, i_title from item where i_subject = 'ARTS' and i_cost > -1.5 limit 20"
	key, args, err := Shape(nil, nil, sql)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		key, args, _ = Shape(key[:0], args[:0], sql)
	}); n != 0 {
		t.Errorf("Shape allocates %.0f times, want 0", n)
	}
}
