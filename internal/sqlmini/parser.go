package sqlmini

import (
	"fmt"
	"strconv"
)

// Parser pulls tokens from a Lexer, one token of lookahead, and produces
// statements.
type Parser struct {
	lx     Lexer
	tok    Token // the current token
	lexErr error // the lexical error that ended the token stream, if any
	params int   // the slots of a shape read so far: the next Param's index
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
//
// A lexical error anywhere in src outranks a parse error before it, as if
// the whole input were tokenized first: when parsing fails, the rest of the
// input is lexed to look for one.
func Parse(src string) (Statement, error) { return parse(Lexer{src: src}) }

// ParseShape parses a statement's shape (see Shape), and returns the
// statement with a Param where Parse returns a Literal, numbered in text
// order: the index of its value in the arguments Shape returned. A literal
// INSERT has no Values, but ArgRows: its rows are the arguments. Every name
// the statement holds is a slice of key.
func ParseShape(key string) (Statement, error) { return parse(Lexer{src: key, shape: true}) }

func parse(lx Lexer) (Statement, error) {
	p := &Parser{lx: lx}
	p.next()
	st, err := p.parseStatement()
	if err == nil {
		p.accept(TokSymbol, ";")
		if !p.at(TokEOF, "") {
			err = p.errorf("trailing input after statement")
		}
	}
	for err != nil && p.lexErr == nil && p.tok.Kind != TokEOF {
		p.next()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// next advances to the following token. A lexical error ends the stream:
// it is kept for Parse to report and the current token becomes EOF.
func (p *Parser) next() {
	t, err := p.lx.Next()
	if err != nil {
		p.lexErr = err
		t = Token{Kind: TokEOF, Pos: p.lx.pos}
	}
	p.tok = t
}

func (p *Parser) cur() Token { return p.tok }

func (p *Parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

// accept consumes the current token when it matches.
func (p *Parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

// expect consumes the current token or fails.
func (p *Parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.next()
		return t, nil
	}
	want := text
	if want == "" {
		want = kind.String()
	}
	return Token{}, p.errorf("expected %s, found %s", want, p.cur())
}

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlmini: parse error at offset %d in %q: %s",
		p.cur().Pos, p.lx.src, fmt.Sprintf(format, args...))
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected statement keyword")
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "BEGIN":
		p.next()
		return &Begin{}, nil
	case "COMMIT":
		p.next()
		return &Commit{}, nil
	case "ROLLBACK", "ABORT":
		p.next()
		return &Rollback{}, nil
	}
	return nil, p.errorf("unsupported statement %q", t.Text)
}

func (p *Parser) parseIdent() (string, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return "", err
	}
	return t.Text, nil
}

func (p *Parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	sel := &Select{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	sel.Table = table
	if p.accept(TokKeyword, "WHERE") {
		sel.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		sel.OrderBy, err = p.parseIdent()
		if err != nil {
			return nil, err
		}
		switch {
		case p.accept(TokKeyword, "DESC"):
			sel.OrderDesc = true
		case p.accept(TokKeyword, "ASC"):
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		if !p.at(TokInt, "") && !p.at(TokParam, "?i") {
			_, err := p.expect(TokInt, "")
			return nil, err
		}
		v, _, err := p.literal()
		if err != nil {
			return nil, err
		}
		sel.Limit = p.constant(v, p.params-1)
	}
	if p.accept(TokKeyword, "FOR") {
		if _, err := p.expect(TokKeyword, "SHARE"); err != nil {
			return nil, err
		}
		sel.ForShare = true
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	if p.accept(TokKeyword, "COUNT") {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(TokSymbol, "*"); err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Aggregate: "COUNT"}, nil
	}
	if p.accept(TokKeyword, "SUM") {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return SelectItem{}, err
		}
		col, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Aggregate: "SUM", AggArg: col}, nil
	}
	col, err := p.parseIdent()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Column: col}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ins.Columns = append(ins.Columns, col)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	// Rows are read as values, one after another into one array, until the
	// first computed item; from then on every row, the ones already read
	// included, is kept as expressions. In a shape the values are the
	// arguments, and only counted.
	w := len(ins.Columns)
	var slab []Value // the literal items' values, but in a shape
	if !p.lx.shape {
		slab = make([]Value, 0, w)
	}
	lone := 0 // the literal items before the first computed one
	computed := false
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var exprs []Expr
		n := 0
		for {
			v, e, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			switch {
			case e == nil && !computed:
				if !p.lx.shape {
					slab = append(slab, v)
				}
				lone++
			case e == nil:
				exprs = append(exprs, p.constant(v, p.params-1))
			default:
				if !computed {
					computed = true
					done := lone - n // items of the rows before this one
					for r := 0; r < done; r += w {
						ins.Rows = append(ins.Rows, p.constants(slab, r, r+w))
					}
					exprs = p.constants(slab, done, lone)
				}
				exprs = append(exprs, e)
			}
			n++
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		if n != w {
			return nil, p.errorf("INSERT row has %d values, want %d", n, w)
		}
		if computed {
			ins.Rows = append(ins.Rows, exprs)
		}
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	switch {
	case computed:
	case p.lx.shape:
		ins.ArgRows = lone / w
	default:
		ins.Values = make([][]Value, len(slab)/w)
		for i := range ins.Values {
			ins.Values[i] = slab[i*w : (i+1)*w : (i+1)*w]
		}
	}
	return ins, nil
}

// constant returns the statement's literal number i, of value v, as an
// expression: a Literal, or in a shape the Param i.
func (p *Parser) constant(v Value, i int) Expr {
	if p.lx.shape {
		return &Param{Index: i}
	}
	return &Literal{Val: v}
}

// constants returns the literal items from to to of an INSERT, the
// statement's first literals, as a row of expressions: in a shape they are
// the Params of those indexes, else the values slab holds.
func (p *Parser) constants(slab []Value, from, to int) []Expr {
	row := make([]Expr, 0, to-from)
	for i := from; i < to; i++ {
		var v Value
		if !p.lx.shape {
			v = slab[i]
		}
		row = append(row, p.constant(v, i))
	}
	return row
}

// parseValue parses one VALUES item. A literal followed by ',' or ')' —
// every item of a dump — is returned as its value v, decoded without the
// descent through the expression grammar. Anything else is parsed as an
// expression and returned as e.
func (p *Parser) parseValue() (v Value, e Expr, err error) {
	save := *p
	v, ok, err := p.literal()
	if err != nil {
		return v, nil, err
	}
	if ok && (p.at(TokSymbol, ",") || p.at(TokSymbol, ")")) {
		return v, nil, nil
	}
	*p = save // not a lone literal: parse the item from its start
	e, err = p.parseExpr()
	return Value{}, e, err
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: e})
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		upd.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *Parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	if p.accept(TokKeyword, "INDEX") {
		return p.parseCreateIndex()
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ct := &CreateTable{Table: table}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		typTok, err := p.expect(TokKeyword, "")
		if err != nil {
			return nil, err
		}
		var kind ValueKind
		switch typTok.Text {
		case "INT":
			kind = KindInt
		case "FLOAT":
			kind = KindFloat
		case "TEXT":
			kind = KindText
		case "BOOL":
			kind = KindBool
		default:
			return nil, p.errorf("unknown column type %q", typTok.Text)
		}
		col := ColumnDef{Name: name, Type: kind}
		if p.accept(TokKeyword, "PRIMARY") {
			if _, err := p.expect(TokKeyword, "KEY"); err != nil {
				return nil, err
			}
			col.PrimaryKey = true
		}
		ct.Columns = append(ct.Columns, col)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if p.accept(TokKeyword, "INDEX") {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		table, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name, Table: table}, nil
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Table: table}, nil
}

func (p *Parser) parseCreateIndex() (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	col, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Column: col}, nil
}

// Expression grammar, loosest to tightest binding:
//
//	expr   := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add ((=|<>|!=|<|<=|>|>=) add)?
//	add    := mul ((+|-) mul)*
//	mul    := unary ((*|/) unary)*
//	unary  := - unary | primary
//	primary:= literal | ident | ( expr )
func (p *Parser) parseExpr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokSymbol {
		if op, ok := cmpOps[p.cur().Text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.accept(TokSymbol, "+"):
			op = OpAdd
		case p.accept(TokSymbol, "-"):
			op = OpSub
		default:
			return l, nil
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.accept(TokSymbol, "*"):
			op = OpMul
		case p.accept(TokSymbol, "/"):
			op = OpDiv
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if !p.signedNumber() && p.accept(TokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Neg{E: e}, nil
	}
	return p.parsePrimary()
}

// signedNumber reports whether the current token is a '-' directly before a
// number, or in a shape before a slot. The two make one signed literal,
// parsed from the signed text: read as the negation of
// 9223372036854775808, the INT -9223372036854775808 would overflow.
func (p *Parser) signedNumber() bool {
	lx := &p.lx
	if p.tok.Kind != TokSymbol || p.tok.Text != "-" || lx.pos != p.tok.Pos+1 || lx.pos >= len(lx.src) {
		return false
	}
	if lx.shape {
		return lx.src[lx.pos] == '?'
	}
	return isDigit(lx.src[lx.pos])
}

// literal consumes the current token when it is a literal, or the two
// tokens of a signed number, and returns its value; in a shape it consumes
// a slot, counts it, and returns no value. For any other token ok is false
// and nothing is consumed (but the '-' of a signed number whose digits fail
// to lex).
func (p *Parser) literal() (v Value, ok bool, err error) {
	t := p.cur()
	text := t.Text
	if p.signedNumber() {
		p.next()
		if n := p.cur(); n.Kind == TokInt || n.Kind == TokFloat || n.Kind == TokParam {
			t.Kind, text = n.Kind, p.lx.src[t.Pos:n.Pos+len(n.Text)]
		}
	}
	switch {
	case t.Kind == TokParam:
		p.params++
	case t.Kind == TokInt:
		var n int64
		n, err = strconv.ParseInt(text, 10, 64)
		v = NewInt(n)
	case t.Kind == TokFloat:
		var f float64
		f, err = strconv.ParseFloat(text, 64)
		v = NewFloat(f)
	case t.Kind == TokString:
		v = NewText(t.Text)
	case t.Kind == TokKeyword && t.Text == "NULL":
	case t.Kind == TokKeyword && (t.Text == "TRUE" || t.Text == "FALSE"):
		v = NewBool(t.Text == "TRUE")
	default:
		return v, false, nil
	}
	p.next() // before the error, which names the token after the literal
	if err != nil {
		return v, false, p.errorf("bad %s literal: %v", t.Kind, err)
	}
	return v, true, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	if v, ok, err := p.literal(); ok || err != nil {
		if err != nil {
			return nil, err
		}
		return p.constant(v, p.params-1), nil
	}
	t := p.cur()
	switch t.Kind {
	case TokIdent:
		p.next()
		return &ColumnRef{Name: t.Text}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("expected expression")
}
