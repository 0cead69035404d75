package engine

import (
	"fmt"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// evalFilter evaluates a WHERE expression against a row: only a result of
// boolean TRUE selects the row (NULL behaves as not-selected, matching SQL).
func evalFilter(e sqlmini.Expr, args []sqlmini.Value, schema *storage.Schema, row storage.Row) (bool, error) {
	v, err := evalExpr(e, args, schema, row)
	if err != nil {
		return false, err
	}
	return v.Kind == sqlmini.KindBool && v.Bool(), nil
}

// evalExpr evaluates an expression, its Params bound to args. schema/row
// may be nil for constant expressions (INSERT values). Comparisons or
// arithmetic with NULL yield NULL.
func evalExpr(e sqlmini.Expr, args []sqlmini.Value, schema *storage.Schema, row storage.Row) (sqlmini.Value, error) {
	switch e := e.(type) {
	case *sqlmini.Literal:
		return e.Val, nil
	case *sqlmini.Param:
		return args[e.Index], nil
	case *sqlmini.ColumnRef:
		if schema == nil {
			return sqlmini.Value{}, fmt.Errorf("engine: column %q in constant context", e.Name)
		}
		ci := schema.ColumnIndex(e.Name)
		if ci < 0 {
			return sqlmini.Value{}, fmt.Errorf("engine: unknown column %q", e.Name)
		}
		return row[ci], nil
	case *sqlmini.Neg:
		v, err := evalExpr(e.E, args, schema, row)
		if err != nil {
			return sqlmini.Value{}, err
		}
		switch v.Kind {
		case sqlmini.KindNull:
			return sqlmini.Null(), nil
		case sqlmini.KindInt:
			return sqlmini.NewInt(-v.Int), nil
		case sqlmini.KindFloat:
			return sqlmini.NewFloat(-v.Float()), nil
		}
		return sqlmini.Value{}, fmt.Errorf("engine: cannot negate %s", v.Kind)
	case *sqlmini.Not:
		v, err := evalExpr(e.E, args, schema, row)
		if err != nil {
			return sqlmini.Value{}, err
		}
		if v.IsNull() {
			return sqlmini.Null(), nil
		}
		if v.Kind != sqlmini.KindBool {
			return sqlmini.Value{}, fmt.Errorf("engine: NOT of %s", v.Kind)
		}
		return sqlmini.NewBool(!v.Bool()), nil
	case *sqlmini.Binary:
		return evalBinary(e, args, schema, row)
	}
	return sqlmini.Value{}, fmt.Errorf("engine: unsupported expression %T", e)
}

func evalBinary(e *sqlmini.Binary, args []sqlmini.Value, schema *storage.Schema, row storage.Row) (sqlmini.Value, error) {
	l, err := evalExpr(e.L, args, schema, row)
	if err != nil {
		return sqlmini.Value{}, err
	}
	// AND/OR get SQL three-valued shortcuts.
	if e.Op == sqlmini.OpAnd || e.Op == sqlmini.OpOr {
		r, err := evalExpr(e.R, args, schema, row)
		if err != nil {
			return sqlmini.Value{}, err
		}
		return evalLogic(e.Op, l, r)
	}
	r, err := evalExpr(e.R, args, schema, row)
	if err != nil {
		return sqlmini.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return sqlmini.Null(), nil
	}
	switch e.Op {
	case sqlmini.OpEq, sqlmini.OpNe, sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe:
		c, err := l.Compare(r)
		if err != nil {
			return sqlmini.Value{}, err
		}
		switch e.Op {
		case sqlmini.OpEq:
			return sqlmini.NewBool(c == 0), nil
		case sqlmini.OpNe:
			return sqlmini.NewBool(c != 0), nil
		case sqlmini.OpLt:
			return sqlmini.NewBool(c < 0), nil
		case sqlmini.OpLe:
			return sqlmini.NewBool(c <= 0), nil
		case sqlmini.OpGt:
			return sqlmini.NewBool(c > 0), nil
		default:
			return sqlmini.NewBool(c >= 0), nil
		}
	case sqlmini.OpAdd, sqlmini.OpSub, sqlmini.OpMul, sqlmini.OpDiv:
		return evalArith(e.Op, l, r)
	}
	return sqlmini.Value{}, fmt.Errorf("engine: unsupported operator %s", e.Op)
}

func evalLogic(op sqlmini.BinaryOp, l, r sqlmini.Value) (sqlmini.Value, error) {
	toBool := func(v sqlmini.Value) (b, null bool, err error) {
		if v.IsNull() {
			return false, true, nil
		}
		if v.Kind != sqlmini.KindBool {
			return false, false, fmt.Errorf("engine: %s operand is %s, want BOOL", op, v.Kind)
		}
		return v.Bool(), false, nil
	}
	lb, ln, err := toBool(l)
	if err != nil {
		return sqlmini.Value{}, err
	}
	rb, rn, err := toBool(r)
	if err != nil {
		return sqlmini.Value{}, err
	}
	if op == sqlmini.OpAnd {
		switch {
		case !ln && !lb, !rn && !rb:
			return sqlmini.NewBool(false), nil
		case ln || rn:
			return sqlmini.Null(), nil
		default:
			return sqlmini.NewBool(true), nil
		}
	}
	// OR
	switch {
	case !ln && lb, !rn && rb:
		return sqlmini.NewBool(true), nil
	case ln || rn:
		return sqlmini.Null(), nil
	default:
		return sqlmini.NewBool(false), nil
	}
}

func evalArith(op sqlmini.BinaryOp, l, r sqlmini.Value) (sqlmini.Value, error) {
	if l.Kind == sqlmini.KindInt && r.Kind == sqlmini.KindInt {
		a, b := l.Int, r.Int
		switch op {
		case sqlmini.OpAdd:
			return sqlmini.NewInt(a + b), nil
		case sqlmini.OpSub:
			return sqlmini.NewInt(a - b), nil
		case sqlmini.OpMul:
			return sqlmini.NewInt(a * b), nil
		case sqlmini.OpDiv:
			if b == 0 {
				return sqlmini.Value{}, fmt.Errorf("engine: division by zero")
			}
			return sqlmini.NewInt(a / b), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return sqlmini.Value{}, fmt.Errorf("engine: arithmetic on %s and %s", l.Kind, r.Kind)
	}
	switch op {
	case sqlmini.OpAdd:
		return sqlmini.NewFloat(lf + rf), nil
	case sqlmini.OpSub:
		return sqlmini.NewFloat(lf - rf), nil
	case sqlmini.OpMul:
		return sqlmini.NewFloat(lf * rf), nil
	case sqlmini.OpDiv:
		if rf == 0 {
			return sqlmini.Value{}, fmt.Errorf("engine: division by zero")
		}
		return sqlmini.NewFloat(lf / rf), nil
	}
	return sqlmini.Value{}, fmt.Errorf("engine: unsupported arithmetic %s", op)
}
