package sqlmini

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind enumerates the runtime types of SQL values.
type ValueKind uint8

// Value kinds.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOL"
	}
	return fmt.Sprintf("ValueKind(%d)", int(k))
}

// Value is a SQL runtime value. The zero value is NULL. Value is comparable
// and therefore usable as a map key (e.g. primary-key indexes).
//
// A Value is 32 bytes, and every stored row, result and key is made of
// them: Int holds an INT, the IEEE-754 bits of a FLOAT (read them with
// Float) and a BOOL as 0 or 1 (read it with Bool); Str holds a TEXT. NULL
// leaves both zero. Build values with the constructors: NewFloat stores −0
// as +0, so that == and map keys cannot tell apart two FLOATs that compare
// equal.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat returns a FLOAT value, −0 canonicalised to +0.
func NewFloat(v float64) Value {
	if v == 0 {
		v = 0 // −0 == 0, but its bits differ
	}
	return Value{Kind: KindFloat, Int: int64(math.Float64bits(v))}
}

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{Kind: KindText, Str: v} }

// NewBool returns a BOOL value.
func NewBool(v bool) Value {
	if v {
		return Value{Kind: KindBool, Int: 1}
	}
	return Value{Kind: KindBool}
}

// Float returns the value of a FLOAT; a NULL reads as 0. It is meaningless
// for the other kinds.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.Int)) }

// Bool returns the value of a BOOL; a NULL reads as false.
func (v Value) Bool() bool { return v.Int != 0 }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders v as a SQL literal (see AppendSQL).
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendSQL(buf[:0]))
}

// AppendSQL appends v rendered as a SQL literal to dst: the one renderer
// behind String, dumps and redo records. TEXT is single-quoted with quotes
// doubled; FLOAT is Go's shortest 'g' form, exponent and all, which the
// lexer reads back as a float.
func (v Value) AppendSQL(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.Int, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case KindText:
		dst = append(dst, '\'')
		s := v.Str
		for i := strings.IndexByte(s, '\''); i >= 0; i = strings.IndexByte(s, '\'') {
			dst = append(append(dst, s[:i+1]...), '\'')
			s = s[i+1:]
		}
		return append(append(dst, s...), '\'')
	case KindBool:
		if v.Bool() {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	}
	return append(dst, '?')
}

// AsFloat converts numeric values to float64 for mixed-type arithmetic.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float(), true
	}
	return 0, false
}

// Compare orders two values of the same (or numeric-compatible) kind.
// It returns -1, 0, or +1, and an error when the kinds are incomparable.
// NULL compares less than every non-NULL value (used for ORDER BY only;
// WHERE-clause comparisons with NULL yield no match, handled by the engine).
func (v Value) Compare(o Value) (int, error) {
	if v.IsNull() || o.IsNull() {
		switch {
		case v.IsNull() && o.IsNull():
			return 0, nil
		case v.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if v.Kind != o.Kind {
		vf, vok := v.AsFloat()
		of, ook := o.AsFloat()
		if vok && ook {
			return cmpFloat(vf, of), nil
		}
		return 0, fmt.Errorf("sqlmini: cannot compare %s with %s", v.Kind, o.Kind)
	}
	switch v.Kind {
	case KindInt, KindBool: // FALSE, 0, orders before TRUE, 1
		switch {
		case v.Int < o.Int:
			return -1, nil
		case v.Int > o.Int:
			return 1, nil
		}
		return 0, nil
	case KindFloat:
		return cmpFloat(v.Float(), o.Float()), nil
	case KindText:
		switch {
		case v.Str < o.Str:
			return -1, nil
		case v.Str > o.Str:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("sqlmini: cannot compare %s values", v.Kind)
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
