package sqlmini

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseSelectStar(t *testing.T) {
	st := mustParse(t, "SELECT * FROM items")
	sel, ok := st.(*Select)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if !sel.Items[0].Star || sel.Table != "items" {
		t.Errorf("got %+v", sel)
	}
	if sel.Limit != nil {
		t.Errorf("Limit = %v, want none", sel.Limit)
	}
}

func TestParseSelectColumnsWhereOrderLimit(t *testing.T) {
	st := mustParse(t, "SELECT id, title FROM items WHERE cost > 10 AND stock <= 5 ORDER BY title DESC LIMIT 3")
	sel := st.(*Select)
	if len(sel.Items) != 2 || sel.Items[0].Column != "id" || sel.Items[1].Column != "title" {
		t.Errorf("items: %+v", sel.Items)
	}
	if sel.OrderBy != "title" || !sel.OrderDesc || sel.Limit == nil || sel.Limit.String() != "3" {
		t.Errorf("order/limit: %+v", sel)
	}
	b, ok := sel.Where.(*Binary)
	if !ok || b.Op != OpAnd {
		t.Fatalf("where: %v", sel.Where)
	}
}

func TestParseSelectCount(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*) FROM orders WHERE status = 'open'")
	sel := st.(*Select)
	if sel.Items[0].Aggregate != "COUNT" {
		t.Errorf("got %+v", sel.Items[0])
	}
}

func TestParseSelectSum(t *testing.T) {
	st := mustParse(t, "SELECT SUM(qty) FROM order_line WHERE o_id = 7")
	sel := st.(*Select)
	if sel.Items[0].Aggregate != "SUM" || sel.Items[0].AggArg != "qty" {
		t.Errorf("got %+v", sel.Items[0])
	}
}

func TestParseSelectForShare(t *testing.T) {
	st := mustParse(t, "SELECT id FROM t WHERE id = 1 FOR SHARE")
	sel := st.(*Select)
	if !sel.ForShare {
		t.Error("ForShare not set")
	}
}

func TestParseInsertSingleRow(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x')")
	ins := st.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Values) != 1 || ins.Rows != nil {
		t.Fatalf("got %+v", ins)
	}
	if v := ins.Values[0][1]; v.Str != "x" {
		t.Errorf("got %v", v)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a) VALUES (1), (2), (3)")
	ins := st.(*Insert)
	if len(ins.Values) != 3 {
		t.Errorf("got %d rows", len(ins.Values))
	}
}

func TestParseInsertArityMismatch(t *testing.T) {
	if _, err := Parse("INSERT INTO t (a, b) VALUES (1)"); err == nil {
		t.Error("want arity error")
	}
}

func TestParseUpdate(t *testing.T) {
	st := mustParse(t, "UPDATE items SET stock = stock - 1, cost = 2.5 WHERE id = 9")
	upd := st.(*Update)
	if upd.Table != "items" || len(upd.Set) != 2 {
		t.Fatalf("got %+v", upd)
	}
	if upd.Set[0].Column != "stock" {
		t.Errorf("got %+v", upd.Set[0])
	}
	if _, ok := upd.Set[0].Value.(*Binary); !ok {
		t.Errorf("want binary expr, got %T", upd.Set[0].Value)
	}
}

func TestParseDelete(t *testing.T) {
	st := mustParse(t, "DELETE FROM cart WHERE c_id = 3")
	del := st.(*Delete)
	if del.Table != "cart" || del.Where == nil {
		t.Errorf("got %+v", del)
	}
}

func TestParseDeleteNoWhere(t *testing.T) {
	st := mustParse(t, "DELETE FROM cart")
	del := st.(*Delete)
	if del.Where != nil {
		t.Errorf("got %+v", del)
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, "CREATE TABLE items (id INT PRIMARY KEY, title TEXT, cost FLOAT, active BOOL)")
	ct := st.(*CreateTable)
	if ct.Table != "items" || len(ct.Columns) != 4 {
		t.Fatalf("got %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Type != KindInt {
		t.Errorf("pk col: %+v", ct.Columns[0])
	}
	if ct.Columns[2].Type != KindFloat || ct.Columns[3].Type != KindBool {
		t.Errorf("types: %+v", ct.Columns)
	}
}

func TestParseCreateIndex(t *testing.T) {
	st := mustParse(t, "CREATE INDEX items_title ON items (title)")
	ci := st.(*CreateIndex)
	if ci.Name != "items_title" || ci.Table != "items" || ci.Column != "title" {
		t.Errorf("got %+v", ci)
	}
	if _, err := Parse("CREATE INDEX ix ON t"); err == nil {
		t.Error("missing column list: want error")
	}
	if _, err := Parse("CREATE INDEX ON t (a)"); err == nil {
		t.Error("missing name: want error")
	}
}

func TestParseDropIndex(t *testing.T) {
	st := mustParse(t, "DROP INDEX ix ON items")
	di := st.(*DropIndex)
	if di.Name != "ix" || di.Table != "items" {
		t.Errorf("got %+v", di)
	}
	if _, err := Parse("DROP INDEX ix"); err == nil {
		t.Error("missing ON: want error")
	}
}

func TestParseDropTable(t *testing.T) {
	st := mustParse(t, "DROP TABLE items")
	if st.(*DropTable).Table != "items" {
		t.Errorf("got %+v", st)
	}
}

func TestParseTransactionControl(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*Begin); !ok {
		t.Error("BEGIN")
	}
	if _, ok := mustParse(t, "COMMIT").(*Commit); !ok {
		t.Error("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK").(*Rollback); !ok {
		t.Error("ROLLBACK")
	}
	if _, ok := mustParse(t, "ABORT").(*Rollback); !ok {
		t.Error("ABORT")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	mustParse(t, "BEGIN;")
	mustParse(t, "SELECT * FROM t;")
}

func TestParseTrailingGarbage(t *testing.T) {
	if _, err := Parse("BEGIN BEGIN"); err == nil {
		t.Error("want error for trailing input")
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE a = 1 + 2 * 3 OR b = 4 AND c = 5")
	sel := st.(*Select)
	// Expect OR at the top: (a = (1 + (2*3))) OR ((b=4) AND (c=5)).
	or, ok := sel.Where.(*Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("top: %v", sel.Where)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right of OR: %v", or.R)
	}
	eq := or.L.(*Binary)
	if eq.Op != OpEq {
		t.Fatalf("left of OR: %v", or.L)
	}
	add := eq.R.(*Binary)
	if add.Op != OpAdd {
		t.Fatalf("rhs of =: %v", eq.R)
	}
	if mul := add.R.(*Binary); mul.Op != OpMul {
		t.Fatalf("mul binds tighter: %v", add.R)
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE a = (1 + 2) * 3")
	sel := st.(*Select)
	eq := sel.Where.(*Binary)
	mul := eq.R.(*Binary)
	if mul.Op != OpMul {
		t.Fatalf("got %v", eq.R)
	}
	if add := mul.L.(*Binary); add.Op != OpAdd {
		t.Fatalf("got %v", mul.L)
	}
}

func TestParseNotAndNegation(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE NOT a = -b") // -1 would be a signed literal
	sel := st.(*Select)
	n, ok := sel.Where.(*Not)
	if !ok {
		t.Fatalf("got %T", sel.Where)
	}
	eq := n.E.(*Binary)
	if _, ok := eq.R.(*Neg); !ok {
		t.Fatalf("got %T", eq.R)
	}
}

func TestParseNullTrueFalseLiterals(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a, b, c) VALUES (NULL, TRUE, FALSE)")
	row := st.(*Insert).Values[0]
	if !row[0].IsNull() {
		t.Error("NULL")
	}
	if row[1] != NewBool(true) {
		t.Error("TRUE")
	}
	if row[2] != NewBool(false) {
		t.Error("FALSE")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FLY TO t",
		"SELECT FROM t",
		"SELECT * FORM t",
		"INSERT INTO t VALUES (1)",
		"UPDATE t",
		"CREATE TABLE t (a BLOB)",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT x",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): want error", sql)
		}
	}
}

// TestParseRoundTrip verifies String() output reparses to the same String().
func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"SELECT * FROM t",
		"SELECT id, name FROM users WHERE id = 42 ORDER BY name LIMIT 10",
		"SELECT COUNT(*) FROM t WHERE a = 'x''y'",
		"INSERT INTO t (a, b) VALUES (1, 'two'), (3, 'four')",
		"UPDATE t SET a = a + 1 WHERE b <> 2",
		"DELETE FROM t WHERE a >= 1.5",
		"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
		"CREATE INDEX ix ON t (v)",
		"DROP INDEX ix ON t",
		"DROP TABLE t",
		"BEGIN", "COMMIT", "ROLLBACK",
	}
	for _, sql := range inputs {
		st1 := mustParse(t, sql)
		st2 := mustParse(t, st1.String())
		if st1.String() != st2.String() {
			t.Errorf("round trip %q: %q != %q", sql, st1.String(), st2.String())
		}
	}
}

// TestParseErrorText pins the error each bad input gets, and so the error
// precedence of the pulled token stream: a lexical error anywhere in the
// input wins over a parse error before it, exactly as if the input had been
// tokenized whole before parsing began.
func TestParseErrorText(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", `sqlmini: parse error at offset 0 in "": expected statement keyword`},
		{"BEGIN BEGIN", `sqlmini: parse error at offset 6 in "BEGIN BEGIN": trailing input after statement`},
		{"SELECT * FORM t", `sqlmini: parse error at offset 9 in "SELECT * FORM t": expected FROM, found identifier "FORM"`},
		{"SELECT * FROM t WHERE a = 'oops", `sqlmini: unterminated string at offset 26`},
		{"SELECT 4. FROM t", `sqlmini: malformed number at offset 7`},
		{"UPDATE t SET a = WHERE b = 1", `sqlmini: parse error at offset 17 in "UPDATE t SET a = WHERE b = 1": expected expression`},
		{"INSERT INTO t (a, b) VALUES (1)", `sqlmini: parse error at offset 31 in "INSERT INTO t (a, b) VALUES (1)": INSERT row has 1 values, want 2`},
		{"INSERT INTO t (a) VALUES (1), (2", `sqlmini: parse error at offset 32 in "INSERT INTO t (a) VALUES (1), (2": expected ), found EOF`},
		// A bad literal is reported at the token after it, on the VALUES
		// fast path and in an expression alike.
		{"INSERT INTO t (a) VALUES (99999999999999999999)", `sqlmini: parse error at offset 46 in "INSERT INTO t (a) VALUES (99999999999999999999)": bad integer literal: strconv.ParseInt: parsing "99999999999999999999": value out of range`},
		{"INSERT INTO t (a) VALUES (1 + 99999999999999999999)", `sqlmini: parse error at offset 50 in "INSERT INTO t (a) VALUES (1 + 99999999999999999999)": bad integer literal: strconv.ParseInt: parsing "99999999999999999999": value out of range`},
		{"INSERT INTO t (a) VALUES (1e400)", `sqlmini: parse error at offset 31 in "INSERT INTO t (a) VALUES (1e400)": bad float literal: strconv.ParseFloat: parsing "1e400": value out of range`},
		{"INSERT INTO t (a) VALUES (1.5e)", `sqlmini: malformed number at offset 26`},
		// Parse error first, lexical error later: the lexical error wins.
		{"FLY TO 'x", `sqlmini: unterminated string at offset 7`},
		{"INSERT INTO t (a) VALUES (1, 2) @", `sqlmini: unexpected character '@' at offset 32`},
		{"INSERT INTO t (a) VALUES (99999999999999999999, @)", `sqlmini: unexpected character '@' at offset 48`},
		{"BEGIN @", `sqlmini: unexpected character '@' at offset 6`},
	} {
		_, err := Parse(c.in)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q):\n got %v\nwant %s", c.in, err, c.want)
		}
	}
}

// TestParseValuesShapes: an INSERT whose every item is a literal — signed
// numbers included — is decoded into Values. One computed item keeps every
// row of the statement as expressions, the literal rows before it as well.
func TestParseValuesShapes(t *testing.T) {
	lit := mustParse(t, "INSERT INTO t (a, b, c, d, e, f) VALUES (-5, -2.5e-07, NULL, TRUE, 'x' , 2.5e-07 -- c\n), (1, 2, 3, 4, 5, 6)").(*Insert)
	want := []Value{NewInt(-5), NewFloat(-2.5e-07), Null(), NewBool(true), NewText("x"), NewFloat(2.5e-07)}
	if lit.Rows != nil || len(lit.Values) != 2 || !slices.Equal(lit.Values[0], want) {
		t.Errorf("literal INSERT: Values %v, Rows %v; want Values[0] %v and no Rows", lit.Values, lit.Rows, want)
	}

	comp := mustParse(t, "INSERT INTO t (a, b) VALUES (-5, 'x'), (1 + 2, - 5), (-(5), 4)").(*Insert)
	if comp.Values != nil || len(comp.Rows) != 3 {
		t.Fatalf("computed INSERT: Values %v, %d expression rows; want none and 3", comp.Values, len(comp.Rows))
	}
	for i, want := range []string{"-5", "'x'", "(1 + 2)", "(- 5)", "(- 5)", "4"} {
		if got := comp.Rows[i/2][i%2].String(); got != want {
			t.Errorf("row %d value %d = %s, want %s", i/2, i%2, got, want)
		}
	}
}

// TestParseSignedLiterals: a '-' directly before a number is part of the
// literal, parsed from the signed text, in VALUES and in an expression
// alike, so the least INT, which as a negation would overflow, reads back.
// A separated '-' is still a negation.
func TestParseSignedLiterals(t *testing.T) {
	ins := mustParse(t, "INSERT INTO m (id, n, x) VALUES (-1, -9223372036854775808, -2.5e-07)").(*Insert)
	want := []Value{NewInt(-1), NewInt(math.MinInt64), NewFloat(-2.5e-07)}
	if len(ins.Values) != 1 || !slices.Equal(ins.Values[0], want) {
		t.Errorf("VALUES = %v, want %v", ins.Values, [][]Value{want})
	}
	upd := mustParse(t, "UPDATE m SET n = -9223372036854775808, x = 1 - -2.5e-07 WHERE id = -1").(*Update)
	if got := upd.String(); got != "UPDATE m SET n = -9223372036854775808, x = (1 - -2.5e-07) WHERE (id = -1)" {
		t.Errorf("UPDATE renders as %s", got)
	}
	if lit, ok := upd.Set[0].Value.(*Literal); !ok || lit.Val != NewInt(math.MinInt64) {
		t.Errorf("SET n = %#v, want the literal %d", upd.Set[0].Value, int64(math.MinInt64))
	}
	if _, err := Parse("SELECT * FROM m WHERE n = - 9223372036854775808"); err == nil {
		t.Error("a separated '-' negates, and 9223372036854775808 overflows: want an error")
	}
}

// dumpInsert renders rows rows of the six-column shape a dump batch has.
func dumpInsert(rows int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO item (i_id, i_title, i_cost, i_stock, i_avail, i_subject) VALUES ")
	for r := 0; r < rows; r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'title %d', %g, %d, TRUE, NULL)", r, r, float64(r)+0.25, r%1000)
	}
	return sb.String()
}

// TestParseDumpInsertAllocs pins the restore-side parse cost: a 50-row,
// 6-column dump INSERT decodes its rows into one []Value, grown by
// doubling, so it allocates nothing per row — only the statement, the
// column list, that array and the row list. The text of each string
// literal is a slice of the input.
func TestParseDumpInsertAllocs(t *testing.T) {
	const rows = 50
	sql := dumpInsert(rows)
	st := mustParse(t, sql)
	if got := st.String(); got != sql {
		t.Fatalf("dump INSERT does not round-trip:\n got %s\nwant %s", got, sql)
	}
	if ins := st.(*Insert); len(ins.Values) != rows {
		t.Fatalf("dump INSERT parsed into %d value rows, want %d", len(ins.Values), rows)
	}
	allocs := testing.AllocsPerRun(20, func() { _, _ = Parse(sql) })
	t.Logf("%d-row dump INSERT: %.0f allocs", rows, allocs)
	if allocs > 24 {
		t.Errorf("Parse allocates %.0f times for %d rows, want at most 24: the rows share one array", allocs, rows)
	}
}

// FuzzParse: Parse never panics, and any statement it accepts renders to
// SQL that parses again and renders identically — String is a fixed point
// after one round, which is what lets dumps and redo records be re-read.
// And the input's shape, parsed and bound to its arguments, renders as
// Parse's statement does and fails exactly when Parse does (checkShape),
// so that the engine, which runs shapes, runs what Parse reads. The seed
// corpus in testdata/fuzz/FuzzParse holds TPC-W statements, dump and redo
// texts, quoting and number edge cases and error inputs.
func FuzzParse(f *testing.F) {
	f.Add("INSERT INTO t (a, b, c, d) VALUES (-5, 1 + 2, NULL, TRUE)")
	f.Fuzz(func(t *testing.T, sql string) {
		checkShape(t, sql)
		st, err := Parse(sql)
		if err != nil {
			return
		}
		out := st.String()
		st2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q fails: %v", sql, out, err)
		}
		if again := st2.String(); again != out {
			t.Fatalf("rendering is not a fixed point:\n  %s\n  %s", out, again)
		}
	})
}
