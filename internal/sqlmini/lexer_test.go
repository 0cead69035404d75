package sqlmini

import (
	"strings"
	"testing"
)

// Lex tokenizes the whole input, returning the tokens (terminated by a
// TokEOF token) or the first lexical error.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func TestLexSimpleSelect(t *testing.T) {
	toks, err := Lex("SELECT id, name FROM users WHERE id = 42")
	if err != nil {
		t.Fatal(err)
	}
	want := []Token{
		{TokKeyword, "SELECT", 0},
		{TokIdent, "id", 7},
		{TokSymbol, ",", 9},
		{TokIdent, "name", 11},
		{TokKeyword, "FROM", 16},
		{TokIdent, "users", 21},
		{TokKeyword, "WHERE", 27},
		{TokIdent, "id", 33},
		{TokSymbol, "=", 36},
		{TokInt, "42", 38},
		{TokEOF, "", 40},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d: got %+v, want %+v", i, toks[i], want[i])
		}
	}
}

func TestLexKeywordCaseInsensitive(t *testing.T) {
	toks, err := Lex("select * from t")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokKeyword || toks[0].Text != "SELECT" {
		t.Errorf("lowercase select: got %v", toks[0])
	}
	if toks[2].Kind != TokKeyword || toks[2].Text != "FROM" {
		t.Errorf("lowercase from: got %v", toks[2])
	}
}

func TestLexStringLiteral(t *testing.T) {
	toks, err := Lex("'hello world'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokString || toks[0].Text != "hello world" {
		t.Errorf("got %v", toks[0])
	}
}

func TestLexStringEscapedQuote(t *testing.T) {
	toks, err := Lex("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "it's" {
		t.Errorf("got %q, want %q", toks[0].Text, "it's")
	}
}

func TestLexUnterminatedString(t *testing.T) {
	if _, err := Lex("'oops"); err == nil {
		t.Error("want error for unterminated string")
	}
}

// TestLexNumbers covers every form Value.AppendSQL renders a number in,
// Go's shortest 'g' with its exponent included.
func TestLexNumbers(t *testing.T) {
	toks, err := Lex("1 23 4.5 0.125 1e+06 1.2345675e+06 1e-05 2.5e-07 1E21 7e3")
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []TokenKind{TokInt, TokInt, TokFloat, TokFloat, TokFloat, TokFloat, TokFloat, TokFloat, TokFloat, TokFloat, TokEOF}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: got kind %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[5].Text != "1.2345675e+06" {
		t.Errorf("exponent float lexed as %v", toks[5])
	}
}

func TestLexMalformedFloat(t *testing.T) {
	for _, bad := range []string{"SELECT 4. FROM t", "1e", "1e+", "2.5E-", "1ex"} {
		if _, err := Lex(bad); err == nil || !strings.Contains(err.Error(), "malformed number") {
			t.Errorf("Lex(%q): err = %v, want malformed number", bad, err)
		}
	}
}

func TestLexTwoCharOperators(t *testing.T) {
	for _, op := range []string{"<=", ">=", "<>", "!="} {
		toks, err := Lex("a " + op + " b")
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if toks[1].Kind != TokSymbol || toks[1].Text != op {
			t.Errorf("%s: got %v", op, toks[1])
		}
	}
}

func TestLexLineComment(t *testing.T) {
	toks, err := Lex("SELECT a -- trailing comment\nFROM t")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	joined := strings.Join(texts, " ")
	if strings.Contains(joined, "comment") {
		t.Errorf("comment not skipped: %v", toks)
	}
	if toks[2].Text != "FROM" {
		t.Errorf("got %v after comment, want FROM", toks[2])
	}
}

func TestLexMinusIsOperatorNotComment(t *testing.T) {
	toks, err := Lex("1 - 2")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokSymbol || toks[1].Text != "-" {
		t.Errorf("got %v, want '-'", toks[1])
	}
}

func TestLexUnexpectedCharacter(t *testing.T) {
	if _, err := Lex("SELECT @ FROM t"); err == nil {
		t.Error("want error for '@'")
	}
}

func TestLexEmptyInput(t *testing.T) {
	toks, err := Lex("   \n\t ")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Kind != TokEOF {
		t.Errorf("got %v, want just EOF", toks)
	}
}

// TestLexStringSlicesInput: a literal without a doubled quote is a slice of
// the input, not a copy; one with a doubled quote is unquoted.
func TestLexStringSlicesInput(t *testing.T) {
	src := "'plain', 'it''s', '''', ''"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"plain", "it's", "'", ""}
	for i, w := range want {
		if tok := toks[2*i]; tok.Kind != TokString || tok.Text != w {
			t.Errorf("literal %d = %v, want %q", i, tok, w)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		lx := Lexer{src: src}
		_, _ = lx.Next()
	}); n != 0 {
		t.Errorf("lexing a plain literal allocates %.0f times, want 0", n)
	}
	// Keywords in any case are recognised without an upper-cased copy.
	const lower = "select i_title, i_cost from item where i_id = 7 and i_subject = 'ARTS' limit 20"
	if n := testing.AllocsPerRun(100, func() {
		lx := Lexer{src: lower}
		for {
			if tok, err := lx.Next(); err != nil || tok.Kind == TokEOF {
				return
			}
		}
	}); n != 0 {
		t.Errorf("lexing a lower-case statement allocates %.0f times, want 0", n)
	}
}
