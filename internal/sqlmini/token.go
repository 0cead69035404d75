// Package sqlmini implements the SQL subset understood by the Madeus
// middleware and by the embedded DBMS engine.
//
// The middleware only needs to parse operations far enough to classify them
// (first read, read, write, commit, abort) and to relay them verbatim; the
// engine needs a full parse to execute them. Both share this package.
//
// Supported statements:
//
//	CREATE TABLE t (col TYPE [PRIMARY KEY], ...)
//	DROP TABLE t
//	INSERT INTO t (c1, c2, ...) VALUES (v1, v2, ...)[, (...), ...]
//	SELECT c1, c2 | * | COUNT(*) | SUM(c) FROM t [WHERE expr]
//	       [ORDER BY col [ASC|DESC]] [LIMIT n]
//	UPDATE t SET c1 = expr [, ...] [WHERE expr]
//	DELETE FROM t [WHERE expr]
//	BEGIN | COMMIT | ROLLBACK | ABORT
package sqlmini

import "fmt"

// TokenKind identifies the lexical class of a token.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokSymbol // punctuation and operators: ( ) , * = <> != < <= > >= + - / ;
	TokParam  // a literal's slot in a statement's shape: ?i ?f ?s ?b ?n (see Shape)
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokKeyword:
		return "keyword"
	case TokInt:
		return "integer"
	case TokFloat:
		return "float"
	case TokString:
		return "string"
	case TokSymbol:
		return "symbol"
	case TokParam:
		return "parameter"
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is a single lexical token with its position in the input.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep their case
	Pos  int    // byte offset in the input
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "EOF"
	}
	return fmt.Sprintf("%s %q", t.Kind, t.Text)
}

// keywords maps each reserved word to itself, the canonical spelling a
// keyword token carries.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
		"DELETE", "CREATE", "TABLE", "DROP", "PRIMARY", "KEY", "BEGIN", "COMMIT",
		"ROLLBACK", "ABORT", "AND", "OR", "NOT", "ORDER", "BY", "ASC", "DESC",
		"LIMIT", "COUNT", "SUM", "NULL", "TRUE", "FALSE", "INT", "FLOAT", "TEXT",
		"BOOL", "FOR", "SHARE", "INDEX", "ON",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword, ROLLBACK.
const maxKeywordLen = 8

// keyword returns the canonical spelling of word when it is a keyword in
// any case, and "" when it is not. It upper-cases into an array on the
// stack and looks that up, so it allocates nothing.
func keyword(word string) string {
	var up [maxKeywordLen]byte
	if len(word) > len(up) {
		return ""
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return keywords[string(up[:len(word)])]
}
