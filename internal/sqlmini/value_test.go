package sqlmini

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(42), "42"},
		{NewInt(-7), "-7"},
		{NewFloat(2.5), "2.5"},
		{NewText("abc"), "'abc'"},
		{NewText("it's"), "'it''s'"},
		{NewText(""), "''"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueIsNull(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null not null")
	}
	if NewInt(0).IsNull() {
		t.Error("0 is null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value should be NULL")
	}
}

func TestValueAsFloat(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Errorf("int: %v %v", f, ok)
	}
	if f, ok := NewFloat(2.5).AsFloat(); !ok || f != 2.5 {
		t.Errorf("float: %v %v", f, ok)
	}
	if _, ok := NewText("x").AsFloat(); ok {
		t.Error("text converted")
	}
	if _, ok := NewBool(true).AsFloat(); ok {
		t.Error("bool converted")
	}
}

func TestValueCompare(t *testing.T) {
	type cmp struct {
		a, b Value
		want int
	}
	cases := []cmp{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewInt(2), NewFloat(2.5), -1}, // mixed numeric
		{NewFloat(2.5), NewInt(2), 1},
		{NewText("a"), NewText("b"), -1},
		{NewText("b"), NewText("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{Null(), Null(), 0},
		{Null(), NewInt(1), -1},
		{NewInt(1), Null(), 1},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v, %v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Incomparable kinds.
	if _, err := NewText("a").Compare(NewInt(1)); err == nil {
		t.Error("text vs int: want error")
	}
	if _, err := NewBool(true).Compare(NewFloat(1)); err == nil {
		t.Error("bool vs float: want error")
	}
}

// TestPropertyCompareAntisymmetric: Compare(a,b) == -Compare(b,a) for
// comparable values, and Compare is transitive on integers.
func TestPropertyCompareAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := []Value{
			NewInt(rng.Int63n(10) - 5),
			NewFloat(rng.Float64()*10 - 5),
			Null(),
		}
		a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		ab, err1 := a.Compare(b)
		ba, err2 := b.Compare(a)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil // errors must be symmetric
		}
		return ab == -ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTextLiteralRoundTrip: any string rendered as a SQL literal
// lexes back to the same string.
func TestPropertyTextLiteralRoundTrip(t *testing.T) {
	f := func(s string) bool {
		lit := NewText(s).String()
		toks, err := Lex(lit)
		if err != nil {
			return false
		}
		return len(toks) == 2 && toks[0].Kind == TokString && toks[0].Text == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFloatLiteralRoundTrip: every finite FLOAT renders to a
// literal that parses back to the same value, whether its shortest form is
// integral (3), decimal (2.5) or carries an exponent (1.2345675e+06, 1e-05).
func TestPropertyFloatLiteralRoundTrip(t *testing.T) {
	f := func(bits uint64) bool {
		x := math.Abs(math.Float64frombits(bits))
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return true
		}
		st, err := Parse("INSERT INTO t (x) VALUES (" + NewFloat(x).String() + ")")
		if err != nil {
			t.Logf("%v: %v", x, err)
			return false
		}
		v := st.(*Insert).Values[0][0]
		got, _ := v.AsFloat()
		return got == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, x := range []float64{1234567.5, 1e-05, 1e21, 2.5e-07, 3, 0} {
		if !f(math.Float64bits(x)) {
			t.Errorf("%v does not round-trip", x)
		}
	}
}

// TestValueIs32Bytes pins the layout every stored row, key and result is
// made of: a kind byte, one word for INT, FLOAT bits and BOOL, and TEXT.
func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("sizeof(Value) = %d bytes, want 32", n)
	}
}

// TestNewFloatNegativeZero: −0 is stored as +0, whether built or parsed,
// so == (and with it every map key) treats the two as the one value they
// compare as, and −0 renders as 0.
func TestNewFloatNegativeZero(t *testing.T) {
	negZero := NewFloat(math.Copysign(0, -1))
	if negZero != NewFloat(0) {
		t.Errorf("NewFloat(-0) = %#v, NewFloat(0) = %#v: want one value", negZero, NewFloat(0))
	}
	if got := negZero.String(); got != "0" {
		t.Errorf("NewFloat(-0) renders as %s, want 0", got)
	}
	st, err := Parse("INSERT INTO t (x) VALUES (-0.0)")
	if err != nil {
		t.Fatal(err)
	}
	if v := st.(*Insert).Values[0][0]; v != NewFloat(0) {
		t.Errorf("-0.0 parses as %#v, want %#v", v, NewFloat(0))
	}
}

func TestValueKindString(t *testing.T) {
	for k, want := range map[ValueKind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindText: "TEXT", KindBool: "BOOL",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}
