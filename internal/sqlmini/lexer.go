package sqlmini

import (
	"fmt"
	"strings"
)

// Lexer turns a SQL string into a token stream.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Lex tokenizes the whole input, returning the tokens (terminated by a
// TokEOF token) or a lexical error.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	// A statement averages three or more bytes a token, so one allocation
	// usually holds them all; the cap keeps a long string literal from
	// reserving a token per three of its bytes.
	toks := make([]Token, 0, min(len(src)/3+2, 1024))
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
	upper := strings.ToUpper(word)
	if keywords[upper] {
		return Token{Kind: TokKeyword, Text: upper, Pos: start}
	}
	return Token{Kind: TokIdent, Text: word, Pos: start}
}

func (lx *Lexer) lexNumber(start int) (Token, error) {
	kind := TokInt
	for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
		lx.pos++
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		kind = TokFloat
		lx.pos++
		if lx.pos >= len(lx.src) || !isDigit(lx.src[lx.pos]) {
			return Token{}, fmt.Errorf("sqlmini: malformed number at offset %d", start)
		}
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
		}
	}
	return Token{Kind: kind, Text: lx.src[start:lx.pos], Pos: start}, nil
}

// lexString scans a single-quoted SQL string literal. A doubled quote (”)
// inside the literal denotes one quote character.
func (lx *Lexer) lexString(start int) (Token, error) {
	lx.pos++ // opening quote
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '\'' {
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\'' {
				sb.WriteByte('\'')
				lx.pos += 2
				continue
			}
			lx.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
		lx.pos++
	}
	return Token{}, fmt.Errorf("sqlmini: unterminated string at offset %d", start)
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
		return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqlmini: unexpected character %q at offset %d", c, start)
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isWordChar(c byte) bool { return isAlpha(c) || isDigit(c) }
