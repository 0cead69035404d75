package engine

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"madeus/internal/sqlmini"
)

// testCorpus returns the SQL statements this package's tests and the
// parser's fuzz corpus hold: every string literal of a _test.go file here
// that starts with a statement keyword, but transaction control and
// format strings, in file order, then the fuzz corpus's inputs.
func testCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || strings.Contains(s, "%") {
				return true
			}
			switch strings.ToUpper(firstField(s)) {
			case "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP":
				out = append(out, s)
			}
			return true
		})
	}
	seeds, err := filepath.Glob("../sqlmini/testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range seeds {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(q, ")")); err == nil {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// TestShapesRunAsParsed executes the test corpus both ways on two engines:
// as the engine runs every statement, its shape from the parse cache bound
// to its arguments, and as sqlmini.Parse reads it, literals in the tree.
// Every result and every error must be the same, and so must the two
// databases at the end. A few transactions go last, one of them poisoned.
func TestShapesRunAsParsed(t *testing.T) {
	corpus := testCorpus(t)
	if len(corpus) < 200 {
		t.Fatalf("the corpus holds %d statements; the test files were not found", len(corpus))
	}
	corpus = append(corpus,
		"CREATE TABLE shapes (k INT PRIMARY KEY, v INT, s TEXT)",
		"BEGIN", "INSERT INTO shapes (k, v, s) VALUES (1, 10, 'a'), (2, 20, 'b''c')",
		"UPDATE shapes SET v = v * -2 WHERE k = 1 OR s = 'b''c'", "SELECT k, v FROM shapes ORDER BY v DESC LIMIT 1", "COMMIT",
		"BEGIN", "INSERT INTO shapes (k, v, s) VALUES (1, 0, 'dup')", "SELECT * FROM shapes", "COMMIT",
		"SELECT SUM(v) FROM shapes WHERE k >= -1", "SELECT COUNT(*) FROM shapes WHERE s = NULL",
		"DELETE FROM shapes WHERE v / 0 = 1", "SELECT * FROM shapes LIMIT 0",
	)
	run := func(parsed bool) ([]string, []string) {
		e := New(Options{})
		defer e.Close()
		if err := e.CreateDatabase("shop"); err != nil {
			t.Fatal(err)
		}
		s, _ := e.NewSession("shop")
		defer s.Close()
		exec := s.Exec
		if parsed {
			exec = func(sql string) (*Result, error) {
				if meta, handled, err := s.execMeta(sql); handled {
					return meta, err
				}
				st, err := sqlmini.Parse(sql)
				if err != nil {
					s.poison(false)
					return nil, err
				}
				return s.run(st, nil, sql, nil)
			}
		}
		var out []string
		for _, sql := range corpus {
			res, err := exec(sql)
			out = append(out, fmt.Sprint(res, err))
		}
		script, err := s.Dump()
		if err != nil {
			t.Fatal(err)
		}
		return out, script
	}
	shaped, shapedDump := run(false)
	parsed, parsedDump := run(true)
	failed := 0
	for i := range corpus {
		if shaped[i] != parsed[i] {
			t.Errorf("%q:\n shape and bind: %s\n         Parse: %s", corpus[i], shaped[i], parsed[i])
		}
		if strings.Contains(parsed[i], "<nil> ") {
			failed++
		}
	}
	t.Logf("%d statements, %d of them failing both ways", len(corpus), failed)
	if !slices.Equal(shapedDump, parsedDump) {
		t.Errorf("the databases differ:\n shape and bind: %q\n         Parse: %q", shapedDump, parsedDump)
	}
}
