package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// Lexer turns a SQL string into a token stream, one token per Next call.
type Lexer struct {
	src   string
	pos   int
	shape bool // src is a shape (see Shape): it holds slots, not literals
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token in the input.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpace()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case isAlpha(c):
		return lx.lexWord(start), nil
	case isDigit(c):
		return lx.lexNumber(start)
	case c == '\'':
		return lx.lexString(start)
	case c == '?' && lx.shape && lx.pos+1 < len(lx.src):
		lx.pos += 2
		return Token{Kind: TokParam, Text: lx.src[start:lx.pos], Pos: start}, nil
	default:
		return lx.lexSymbol(start)
	}
}

func (lx *Lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		switch lx.src[lx.pos] {
		case ' ', '\t', '\n', '\r':
			lx.pos++
		case '-':
			// "--" starts a line comment.
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-' {
				for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
					lx.pos++
				}
				continue
			}
			return
		default:
			return
		}
	}
}

func (lx *Lexer) lexWord(start int) Token {
	for lx.pos < len(lx.src) && isWordChar(lx.src[lx.pos]) {
		lx.pos++
	}
	word := lx.src[start:lx.pos]
	if kw := keyword(word); kw != "" {
		return Token{Kind: TokKeyword, Text: kw, Pos: start}
	}
	return Token{Kind: TokIdent, Text: word, Pos: start}
}

// lexNumber scans digits[.digits][(e|E)[+|-]digits], every form
// Value.AppendSQL renders a number in; a fraction or an exponent makes it a
// float.
func (lx *Lexer) lexNumber(start int) (Token, error) {
	kind := TokInt
	lx.digits()
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		kind = TokFloat
		lx.pos++
		if !lx.digits() {
			return Token{}, fmt.Errorf("sqlmini: malformed number at offset %d", start)
		}
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		kind = TokFloat
		lx.pos++
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.pos++
		}
		if !lx.digits() {
			return Token{}, fmt.Errorf("sqlmini: malformed number at offset %d", start)
		}
	}
	return Token{Kind: kind, Text: lx.src[start:lx.pos], Pos: start}, nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (lx *Lexer) digits() bool {
	start := lx.pos
	for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
		lx.pos++
	}
	return lx.pos > start
}

// lexString scans a single-quoted SQL string literal. A doubled quote (”)
// inside the literal denotes one quote character. A literal without one —
// nearly every literal — is a slice of the input, not a copy.
func (lx *Lexer) lexString(start int) (Token, error) {
	lx.pos++ // opening quote
	// sb holds the unquoted text up to from, once a doubled quote is seen.
	var sb strings.Builder
	from := lx.pos
	for {
		i := strings.IndexByte(lx.src[lx.pos:], '\'')
		if i < 0 {
			return Token{}, fmt.Errorf("sqlmini: unterminated string at offset %d", start)
		}
		lx.pos += i + 1
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '\'' {
			sb.WriteString(lx.src[from:lx.pos])
			lx.pos++
			from = lx.pos
			continue
		}
		text := lx.src[from : lx.pos-1]
		if sb.Len() > 0 {
			sb.WriteString(text)
			text = sb.String()
		}
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	}
}

func (lx *Lexer) lexSymbol(start int) (Token, error) {
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		lx.pos += 2
		return Token{Kind: TokSymbol, Text: two, Pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch c {
	case '(', ')', ',', '*', '=', '<', '>', '+', '-', '/', ';', '.':
		lx.pos++
		return Token{Kind: TokSymbol, Text: lx.src[start:lx.pos], Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqlmini: unexpected character %q at offset %d", c, start)
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isWordChar(c byte) bool { return isAlpha(c) || isDigit(c) }

// Shape lexes the statement sql once and appends its shape to key and its
// literals to args, so that statements differing only in their literals
// share one parse (the parse cache keys on the shape). The shape is the
// statement's tokens one space apart, keywords in upper case, with each
// literal replaced by a slot naming its kind: ?i INT, ?f FLOAT, ?s TEXT,
// ?b TRUE or FALSE, ?n NULL. args gets the literals' values in text order,
// the order of the Params ParseShape numbers; a TEXT one is a slice of sql,
// as its token is.
//
// A '-' directly before a number where an operand begins is the number's
// sign, as Parse reads it (see Parser.signedNumber): the value in args is
// the signed one, and the shape keeps the '-' directly before the slot. Any
// other '-' is an operator, spaced off. So ParseShape(key) fails exactly
// where Parse(sql) does, and with args bound is the statement Parse
// returns. Shape itself fails where sql does not lex or a number in it is
// out of range, and allocates nothing beyond growing key and args, and an
// unquoted copy of a string literal with a doubled quote in it.
func Shape(key []byte, args []Value, sql string) ([]byte, []Value, error) {
	lx := Lexer{src: sql}
	operand := false // the last token ended an operand: a '-' after it is an operator
	for first := true; ; first = false {
		t, err := lx.Next()
		if err != nil || t.Kind == TokEOF {
			return key, args, err
		}
		if !first {
			key = append(key, ' ')
		}
		text := t.Text
		if !operand && t.Kind == TokSymbol && text == "-" && lx.pos == t.Pos+1 &&
			lx.pos < len(sql) && isDigit(sql[lx.pos]) {
			if t, err = lx.Next(); err != nil {
				return key, args, err
			}
			key = append(key, '-')
			text = sql[t.Pos-1 : t.Pos+len(t.Text)]
		}
		operand = true
		switch {
		case t.Kind == TokInt:
			var n int64
			if n, err = strconv.ParseInt(text, 10, 64); err != nil {
				return key, args, fmt.Errorf("sqlmini: bad integer literal at offset %d: %v", t.Pos, err)
			}
			key, args = append(key, "?i"...), append(args, NewInt(n))
		case t.Kind == TokFloat:
			var f float64
			if f, err = strconv.ParseFloat(text, 64); err != nil {
				return key, args, fmt.Errorf("sqlmini: bad float literal at offset %d: %v", t.Pos, err)
			}
			key, args = append(key, "?f"...), append(args, NewFloat(f))
		case t.Kind == TokString:
			key, args = append(key, "?s"...), append(args, NewText(text))
		case t.Kind == TokKeyword && text == "NULL":
			key, args = append(key, "?n"...), append(args, Null())
		case t.Kind == TokKeyword && (text == "TRUE" || text == "FALSE"):
			key, args = append(key, "?b"...), append(args, NewBool(text == "TRUE"))
		default:
			key = append(key, text...)
			operand = t.Kind == TokIdent || text == ")"
		}
	}
}
