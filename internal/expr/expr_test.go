package expr

import (
	"strings"
	"testing"
	"testing/quick"
)

// eval compiles and evaluates src in one step.
func eval(src string, env Env) (Value, error) {
	e, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(env)
}

// evalBool compiles and evaluates a boolean condition in one step.
func evalBool(src string, env Env) (bool, error) {
	e, err := Compile(src)
	if err != nil {
		return false, err
	}
	return e.EvalBool(env)
}

func evalOK(t *testing.T, src string, env Env) Value {
	t.Helper()
	v, err := eval(src, env)
	if err != nil {
		t.Fatalf("eval(%q): %v", src, err)
	}
	return v
}

func TestLiterals(t *testing.T) {
	cases := map[string]Value{
		"42":      42.0,
		"3.5":     3.5,
		"true":    true,
		"false":   false,
		"'hi'":    "hi",
		`"there"`: "there",
	}
	for src, want := range cases {
		if got := evalOK(t, src, nil); got != want {
			t.Errorf("eval(%q) = %#v, want %#v", src, got, want)
		}
	}
}

func TestVariables(t *testing.T) {
	env := Env{"q": 720.0, "fmt": "mp4", "ok": true, "count": 3, "big": int64(9)}
	cases := map[string]Value{
		"$q":         720.0,
		"$fmt":       "mp4",
		"$ok":        true,
		"$count + 1": 4.0, // int promoted
		"$big":       9.0, // int64 promoted
	}
	for src, want := range cases {
		if got := evalOK(t, src, env); got != want {
			t.Errorf("eval(%q) = %#v, want %#v", src, got, want)
		}
	}
}

func TestComparisons(t *testing.T) {
	env := Env{"q": 720.0, "fmt": "mp4"}
	cases := map[string]bool{
		"$q > 480":                 true,
		"$q > 720":                 false,
		"$q >= 720":                true,
		"$q < 1080":                true,
		"$q <= 719":                false,
		"$q == 720":                true,
		"$q != 720":                false,
		"$fmt == 'mp4'":            true,
		"$fmt != 'avi'":            true,
		"$fmt < 'zzz'":             true,
		"$q > 480 && $fmt=='mp4'":  true,
		"$q > 1000 || $fmt=='mp4'": true,
		"!($q > 1000)":             true,
	}
	for src, want := range cases {
		if got := evalOK(t, src, env); got != want {
			t.Errorf("eval(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := map[string]Value{
		"1 + 2 * 3":     7.0,
		"(1 + 2) * 3":   9.0,
		"10 / 4":        2.5,
		"10 - 4 - 3":    3.0, // left assoc
		"-3 + 5":        2.0,
		"'a' + 'b'":     "ab",
		"2 * 3 + 1 > 6": true,
	}
	for src, want := range cases {
		if got := evalOK(t, src, nil); got != want {
			t.Errorf("eval(%q) = %#v, want %#v", src, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// $missing would error, but short-circuiting must avoid evaluating it.
	if got := evalOK(t, "false && $missing > 1", nil); got != false {
		t.Fatalf("short-circuit && = %v", got)
	}
	if got := evalOK(t, "true || $missing > 1", nil); got != true {
		t.Fatalf("short-circuit || = %v", got)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"$missing", "unknown variable"},
		{"1 +", "unexpected end"},
		{"(1 + 2", "missing ')'"},
		{"1 @ 2", "unexpected character"},
		{"'unterminated", "unterminated string"},
		{"foo", "unknown identifier"},
		{"$", "bare '$'"},
		{"1 / 0", "division by zero"},
		{"1 && true", "applied to"},
		{"!3", "applied to"},
		{"-'a'", "applied to"},
		{"1 == 'a'", "comparing"},
		{"true < false", "not ordered"},
		{"'a' - 'b'", `"-" on`},
		{"'a' + 1", "'+' on string"},
		{"1 2", "unexpected"},
		{"1..2", "bad number"},
	}
	for _, tc := range cases {
		_, err := eval(tc.src, Env{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("eval(%q) err = %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestEvalBool(t *testing.T) {
	if ok, err := evalBool("$x > 1", Env{"x": 2.0}); err != nil || !ok {
		t.Fatalf("EvalBool = %v, %v", ok, err)
	}
	if _, err := evalBool("1 + 1", nil); err == nil {
		t.Fatal("numeric result accepted as bool")
	}
	if _, err := evalBool("1 +", nil); err == nil {
		t.Fatal("syntax error not surfaced")
	}
}

func TestCompileReuse(t *testing.T) {
	e, err := Compile("$x * 2 > $y")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "$x * 2 > $y" {
		t.Fatalf("String = %q", e.String())
	}
	for i := 0; i < 5; i++ {
		got, err := e.EvalBool(Env{"x": float64(i), "y": 5.0})
		if err != nil {
			t.Fatal(err)
		}
		if got != (float64(i)*2 > 5) {
			t.Fatalf("i=%d: got %v", i, got)
		}
	}
}

func TestUnsupportedVarType(t *testing.T) {
	_, err := eval("$x", Env{"x": []int{1}})
	if err == nil || !strings.Contains(err.Error(), "unsupported type") {
		t.Fatalf("err = %v", err)
	}
}

// Property: numeric comparison operators agree with Go's, for random pairs.
func TestComparisonProperty(t *testing.T) {
	f := func(a, b int16) bool {
		env := Env{"a": float64(a), "b": float64(b)}
		checks := map[string]bool{
			"$a < $b":  a < b,
			"$a <= $b": a <= b,
			"$a > $b":  a > b,
			"$a >= $b": a >= b,
			"$a == $b": a == b,
			"$a != $b": a != b,
		}
		for src, want := range checks {
			got, err := evalBool(src, env)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arithmetic matches Go within float tolerance.
func TestArithmeticProperty(t *testing.T) {
	f := func(a, b int8) bool {
		env := Env{"a": float64(a), "b": float64(b)}
		v, err := eval("$a * $b + $a - $b", env)
		if err != nil {
			return false
		}
		want := float64(a)*float64(b) + float64(a) - float64(b)
		return v == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — !(p && q) == (!p || !q) for all boolean pairs.
func TestDeMorganProperty(t *testing.T) {
	f := func(p, q bool) bool {
		env := Env{"p": p, "q": q}
		l, err1 := evalBool("!($p && $q)", env)
		r, err2 := evalBool("!$p || !$q", env)
		return err1 == nil && err2 == nil && l == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompileEval(b *testing.B) {
	env := Env{"q": 720.0, "fmt": "mp4"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := evalBool("$q > 480 && $fmt == 'mp4'", env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalPrecompiled(b *testing.B) {
	e, err := Compile("$q > 480 && $fmt == 'mp4'")
	if err != nil {
		b.Fatal(err)
	}
	env := Env{"q": 720.0, "fmt": "mp4"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalBool(env); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: Compile/Eval never panic on arbitrary input strings.
// FuzzEval: Eval never panics, whatever the source (errors are the only
// acceptable failure mode). The seeds are expressions the other tests
// evaluate.
func FuzzEval(f *testing.F) {
	for _, seed := range []string{
		"", "42", "3.5", "true", "'hi'", `"there"`, "$x", "$x + 1",
		"$q >= 720 && $fmt == 'mp4'", "!($x < 2) || $x != 1",
		"$a * $b + $a - $b", "(1 + 2) * -3 / 4 % 5", "'a' < 'b'", "$", "(", "'",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = eval(src, Env{"x": 1.0})
	})
}
