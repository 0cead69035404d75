package sqlmini

import (
	"strconv"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// String renders the statement back to SQL (normalized form).
	String() string
}

// Expr is any expression usable in WHERE / SET clauses.
type Expr interface {
	expr()
	String() string
}

// ColumnDef declares one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       ValueKind
	PrimaryKey bool
}

// CreateTable is CREATE TABLE name (cols...).
type CreateTable struct {
	Table   string
	Columns []ColumnDef
}

// DropTable is DROP TABLE name.
type DropTable struct {
	Table string
}

// CreateIndex is CREATE INDEX name ON table (column): a secondary
// equality index.
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

// DropIndex is DROP INDEX name ON table.
type DropIndex struct {
	Name  string
	Table string
}

// Insert is INSERT INTO t (cols) VALUES (...), (...). The rows are in
// column-list order. When every item of the statement is a literal — every
// dump batch and redo INSERT — Parse decodes each row straight into one
// []Value sized to the column list (Values), and a shape (ParseShape) only
// counts them (ArgRows): its rows are the statement's arguments, one after
// another. When any item is computed, every row is kept as expressions
// (Rows).
type Insert struct {
	Table   string
	Columns []string
	Values  [][]Value
	Rows    [][]Expr
	ArgRows int
}

// SelectItem is one projection item: a column name, *, or an aggregate.
type SelectItem struct {
	Star      bool   // SELECT *
	Column    string // plain column reference
	Aggregate string // "COUNT" or "SUM" when set
	AggArg    string // column for SUM; empty for COUNT(*)
}

// Select is a single-table SELECT.
type Select struct {
	Items     []SelectItem
	Table     string
	Where     Expr // nil when absent
	OrderBy   string
	OrderDesc bool
	Limit     Expr // nil when absent; else an INT Literal, or in a shape a Param
	ForShare  bool // SELECT ... FOR SHARE (parsed, treated as a read)
}

// Assignment is one c = expr pair in UPDATE ... SET.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE t SET ... [WHERE ...].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Delete is DELETE FROM t [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

// Begin is BEGIN.
type Begin struct{}

// Commit is COMMIT.
type Commit struct{}

// Rollback is ROLLBACK or ABORT.
type Rollback struct{}

func (*CreateTable) stmt() {}
func (*DropTable) stmt()   {}
func (*CreateIndex) stmt() {}
func (*DropIndex) stmt()   {}
func (*Insert) stmt()      {}
func (*Select) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}
func (*Begin) stmt()       {}
func (*Commit) stmt()      {}
func (*Rollback) stmt()    {}

// Literal is a constant value.
type Literal struct {
	Val Value
}

// Param is the literal of a statement's shape (see ParseShape) whose value
// is argument Index, bound when the statement runs.
type Param struct {
	Index int
}

// ColumnRef references a column by name.
type ColumnRef struct {
	Name string
}

// BinaryOp identifies a binary operator.
type BinaryOp int

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// Binary is a binary expression.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Not is logical negation.
type Not struct {
	E Expr
}

// Neg is arithmetic negation.
type Neg struct {
	E Expr
}

func (*Literal) expr()   {}
func (*Param) expr()     {}
func (*ColumnRef) expr() {}
func (*Binary) expr()    {}
func (*Not) expr()       {}
func (*Neg) expr()       {}

func (l *Literal) String() string   { return l.Val.String() }
func (p *Param) String() string     { return "$" + strconv.Itoa(p.Index+1) }
func (c *ColumnRef) String() string { return c.Name }
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}
func (n *Not) String() string { return "(NOT " + n.E.String() + ")" }

// String keeps a space after the '-': "(-5)" would read back as the signed
// literal -5, and "(--5)" as a comment.
func (n *Neg) String() string { return "(- " + n.E.String() + ")" }

func (s *CreateTable) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(s.Table)
	sb.WriteString(" (")
	for i, c := range s.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		sb.WriteString(" ")
		sb.WriteString(c.Type.String())
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		}
	}
	sb.WriteString(")")
	return sb.String()
}

func (s *DropTable) String() string { return "DROP TABLE " + s.Table }

func (s *CreateIndex) String() string {
	return "CREATE INDEX " + s.Name + " ON " + s.Table + " (" + s.Column + ")"
}

func (s *DropIndex) String() string { return "DROP INDEX " + s.Name + " ON " + s.Table }

func (s *Insert) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(s.Table)
	sb.WriteString(" (")
	sb.WriteString(strings.Join(s.Columns, ", "))
	sb.WriteString(") VALUES ")
	for i, row := range s.Values {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, v := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.String())
		}
		sb.WriteString(")")
	}
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, e := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.Star:
			sb.WriteString("*")
		case it.Aggregate == "COUNT":
			sb.WriteString("COUNT(*)")
		case it.Aggregate == "SUM":
			sb.WriteString("SUM(" + it.AggArg + ")")
		default:
			sb.WriteString(it.Column)
		}
	}
	sb.WriteString(" FROM ")
	sb.WriteString(s.Table)
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if s.OrderBy != "" {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(s.OrderBy)
		if s.OrderDesc {
			sb.WriteString(" DESC")
		}
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT ")
		sb.WriteString(s.Limit.String())
	}
	if s.ForShare {
		sb.WriteString(" FOR SHARE")
	}
	return sb.String()
}

func (s *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE ")
	sb.WriteString(s.Table)
	sb.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Column)
		sb.WriteString(" = ")
		sb.WriteString(a.Value.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	return sb.String()
}

func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

func (*Begin) String() string    { return "BEGIN" }
func (*Commit) String() string   { return "COMMIT" }
func (*Rollback) String() string { return "ROLLBACK" }
