package yamlite

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) any {
	t.Helper()
	v, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return v
}

func TestScalars(t *testing.T) {
	src := `
name: wordcount
count: 42
ratio: 0.5
neg: -7
enabled: true
disabled: false
nothing: null
tilde: ~
plain: hello world
quoted: "a: b # not comment"
single: 'it''s'
`
	m := mustParse(t, src).(map[string]any)
	cases := map[string]any{
		"name":     "wordcount",
		"count":    int64(42),
		"ratio":    0.5,
		"neg":      int64(-7),
		"enabled":  true,
		"disabled": false,
		"nothing":  nil,
		"tilde":    nil,
		"plain":    "hello world",
		"quoted":   "a: b # not comment",
		"single":   "it's",
	}
	for k, want := range cases {
		if got := m[k]; got != want {
			t.Errorf("m[%q] = %#v, want %#v", k, got, want)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
# full-line comment
a: 1 # trailing comment
b: 2
`
	m := mustParse(t, src).(map[string]any)
	if m["a"] != int64(1) || m["b"] != int64(2) {
		t.Fatalf("m = %#v", m)
	}
}

func TestNestedMapping(t *testing.T) {
	src := `
outer:
  inner:
    leaf: 3
  other: x
`
	m := mustParse(t, src).(map[string]any)
	outer := m["outer"].(map[string]any)
	inner := outer["inner"].(map[string]any)
	if inner["leaf"] != int64(3) || outer["other"] != "x" {
		t.Fatalf("parsed %#v", m)
	}
}

func TestBlockSequenceOfScalars(t *testing.T) {
	src := `
items:
  - alpha
  - 2
  - true
`
	m := mustParse(t, src).(map[string]any)
	items := m["items"].([]any)
	if len(items) != 3 || items[0] != "alpha" || items[1] != int64(2) || items[2] != true {
		t.Fatalf("items = %#v", items)
	}
}

func TestSequenceAtSameIndentAsKey(t *testing.T) {
	src := `
steps:
- a
- b
`
	m := mustParse(t, src).(map[string]any)
	steps := m["steps"].([]any)
	if len(steps) != 2 || steps[0] != "a" || steps[1] != "b" {
		t.Fatalf("steps = %#v", steps)
	}
}

func TestSequenceOfMappings(t *testing.T) {
	src := `
steps:
  - name: fetch
    type: task
    function: fn1
  - name: process
    type: task
    function: fn2
`
	m := mustParse(t, src).(map[string]any)
	steps := m["steps"].([]any)
	if len(steps) != 2 {
		t.Fatalf("steps = %#v", steps)
	}
	s0 := steps[0].(map[string]any)
	s1 := steps[1].(map[string]any)
	if s0["name"] != "fetch" || s0["function"] != "fn1" || s1["name"] != "process" {
		t.Fatalf("steps = %#v", steps)
	}
}

func TestNestedSequenceInMappingItem(t *testing.T) {
	src := `
steps:
  - name: par
    type: parallel
    branches:
      - steps:
          - name: b1
            type: task
      - steps:
          - name: b2
            type: task
`
	m := mustParse(t, src).(map[string]any)
	steps := m["steps"].([]any)
	par := steps[0].(map[string]any)
	branches := par["branches"].([]any)
	if len(branches) != 2 {
		t.Fatalf("branches = %#v", branches)
	}
	b0 := branches[0].(map[string]any)["steps"].([]any)[0].(map[string]any)
	if b0["name"] != "b1" {
		t.Fatalf("b0 = %#v", b0)
	}
}

func TestFlowSequence(t *testing.T) {
	src := `
keys: [a, b, "c, d", 5]
empty: []
`
	m := mustParse(t, src).(map[string]any)
	keys := m["keys"].([]any)
	if len(keys) != 4 || keys[0] != "a" || keys[2] != "c, d" || keys[3] != int64(5) {
		t.Fatalf("keys = %#v", keys)
	}
	if len(m["empty"].([]any)) != 0 {
		t.Fatalf("empty = %#v", m["empty"])
	}
}

func TestRootSequence(t *testing.T) {
	src := `
- 1
- 2
`
	v := mustParse(t, src)
	seq := v.([]any)
	if len(seq) != 2 || seq[0] != int64(1) {
		t.Fatalf("seq = %#v", seq)
	}
}

func TestDocumentMarkerSkipped(t *testing.T) {
	m := mustParse(t, "---\na: 1\n").(map[string]any)
	if m["a"] != int64(1) {
		t.Fatalf("m = %#v", m)
	}
}

func TestEmptyDocument(t *testing.T) {
	v := mustParse(t, "\n# only a comment\n")
	if v != nil {
		t.Fatalf("empty doc = %#v, want nil", v)
	}
}

func TestDuplicateKeyError(t *testing.T) {
	_, err := Parse("a: 1\na: 2\n")
	if err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("err = %v, want duplicate key", err)
	}
}

func TestTabIndentError(t *testing.T) {
	_, err := Parse("a:\n\tb: 1\n")
	if err == nil || !strings.Contains(err.Error(), "tab") {
		t.Fatalf("err = %v, want tab error", err)
	}
}

func TestUnterminatedQuoteError(t *testing.T) {
	_, err := Parse(`a: "unterminated` + "\n")
	if err == nil {
		t.Fatal("unterminated quote parsed without error")
	}
}

func TestUnterminatedFlowSeqError(t *testing.T) {
	_, err := Parse("a: [1, 2\n")
	if err == nil {
		t.Fatal("unterminated flow seq parsed without error")
	}
}

func TestNonMappingLineError(t *testing.T) {
	_, err := Parse("a: 1\njust some words\n")
	if err == nil {
		t.Fatal("bare scalar line inside mapping parsed without error")
	}
}

func TestParseMapRejectsSequenceRoot(t *testing.T) {
	_, err := ParseMap("- 1\n- 2\n")
	if err == nil {
		t.Fatal("ParseMap accepted a sequence root")
	}
}

func TestSyntaxErrorLineNumbers(t *testing.T) {
	_, err := Parse("a: 1\nb: 2\nb: 3\n")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("err = %T, want *SyntaxError", err)
	}
	if se.Line != 3 {
		t.Fatalf("error line = %d, want 3", se.Line)
	}
}

func TestAccessors(t *testing.T) {
	m := mustParse(t, "s: x\ni: 4\nf: 2.5\nseq: [1]\nsub:\n  k: v\n").(map[string]any)
	if s, ok := String(m, "s"); !ok || s != "x" {
		t.Fatal("String accessor failed")
	}
	if i, ok := Int(m, "i"); !ok || i != 4 {
		t.Fatal("Int accessor failed")
	}
	if i, ok := Int(m, "f"); !ok || i != 2 {
		t.Fatal("Int on float failed")
	}
	if m["f"] != 2.5 {
		t.Fatalf("f parsed as %#v, want float64 2.5", m["f"])
	}
	if s, ok := Seq(m, "seq"); !ok || len(s) != 1 {
		t.Fatal("Seq accessor failed")
	}
	if sub, ok := m["sub"].(map[string]any); !ok || sub["k"] != "v" {
		t.Fatalf("sub parsed as %#v, want a nested mapping", m["sub"])
	}
	if _, ok := String(m, "missing"); ok {
		t.Fatal("String on missing key reported ok")
	}
	if _, ok := Int(m, "s"); ok {
		t.Fatal("Int on string reported ok")
	}
}

// Property: any tree built from scalar leaves, serialized in our canonical
// style, parses back to an equal tree.
func TestRoundTripProperty(t *testing.T) {
	type gen struct {
		depth int
	}
	var build func(g *gen, seedState *uint64) any
	next := func(s *uint64) uint64 {
		*s += 0x9e3779b97f4a7c15
		z := *s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return z ^ (z >> 27)
	}
	build = func(g *gen, s *uint64) any {
		if g.depth >= 3 {
			return int64(next(s) % 100)
		}
		switch next(s) % 4 {
		case 0:
			return "w" + string(rune('a'+next(s)%26))
		case 1:
			return int64(next(s) % 1000)
		case 2:
			g.depth++
			defer func() { g.depth-- }()
			n := int(next(s)%3) + 1
			m := map[string]any{}
			for i := 0; i < n; i++ {
				m["k"+string(rune('a'+i))] = build(g, s)
			}
			return m
		default:
			g.depth++
			defer func() { g.depth-- }()
			n := int(next(s)%3) + 1
			var seq []any
			for i := 0; i < n; i++ {
				seq = append(seq, build(g, s))
			}
			return seq
		}
	}
	var serialize func(v any, indent int, sb *strings.Builder)
	serialize = func(v any, indent int, sb *strings.Builder) {
		pad := strings.Repeat(" ", indent)
		switch x := v.(type) {
		case map[string]any:
			// Deterministic key order for comparison simplicity.
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			for i := 0; i < len(keys); i++ {
				for j := i + 1; j < len(keys); j++ {
					if keys[j] < keys[i] {
						keys[i], keys[j] = keys[j], keys[i]
					}
				}
			}
			for _, k := range keys {
				switch x[k].(type) {
				case map[string]any, []any:
					sb.WriteString(pad + k + ":\n")
					serialize(x[k], indent+2, sb)
				case string:
					sb.WriteString(pad + k + ": " + x[k].(string) + "\n")
				default:
					sb.WriteString(pad + k + ": ")
					writeScalar(sb, x[k])
					sb.WriteString("\n")
				}
			}
		case []any:
			for _, item := range x {
				switch item.(type) {
				case map[string]any, []any:
					sb.WriteString(pad + "-\n")
					serialize(item, indent+2, sb)
				case string:
					sb.WriteString(pad + "- " + item.(string) + "\n")
				default:
					sb.WriteString(pad + "- ")
					writeScalar(sb, item)
					sb.WriteString("\n")
				}
			}
		}
	}
	var deepEqual func(a, b any) bool
	deepEqual = func(a, b any) bool {
		switch x := a.(type) {
		case map[string]any:
			y, ok := b.(map[string]any)
			if !ok || len(x) != len(y) {
				return false
			}
			for k := range x {
				if !deepEqual(x[k], y[k]) {
					return false
				}
			}
			return true
		case []any:
			y, ok := b.([]any)
			if !ok || len(x) != len(y) {
				return false
			}
			for i := range x {
				if !deepEqual(x[i], y[i]) {
					return false
				}
			}
			return true
		default:
			return a == b
		}
	}
	f := func(seed uint64) bool {
		s := seed
		g := &gen{}
		tree := build(g, &s)
		if _, isMap := tree.(map[string]any); !isMap {
			if _, isSeq := tree.([]any); !isSeq {
				return true // scalar roots not serializable in this style
			}
		}
		var sb strings.Builder
		serialize(tree, 0, &sb)
		parsed, err := Parse(sb.String())
		if err != nil {
			t.Logf("serialized:\n%s\nerr: %v", sb.String(), err)
			return false
		}
		if !deepEqual(tree, parsed) {
			t.Logf("serialized:\n%s\ngot: %#v\nwant: %#v", sb.String(), parsed, tree)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func writeScalar(sb *strings.Builder, v any) {
	switch x := v.(type) {
	case int64:
		sb.WriteString(strconvItoa(x))
	case bool:
		if x {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case nil:
		sb.WriteString("null")
	}
}

func strconvItoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func BenchmarkParseWorkflow(b *testing.B) {
	src := `
name: bench
steps:
  - name: a
    type: task
    function: f1
  - name: par
    type: parallel
    branches:
      - steps:
          - name: b
            type: task
            function: f2
      - steps:
          - name: c
            type: task
            function: f3
  - name: d
    type: task
    function: f4
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzParse: Parse never panics, whatever bytes arrive (errors are the
// only acceptable failure mode for malformed input). The seeds are the
// documents and fragments the other tests parse.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"", "---\na: 1\n", "\n# only a comment\n",
		"s: x\ni: 4\nf: 2.5\nseq: [1]\nsub:\n  k: v\n",
		"a:\n  - x: 1\n    y: [1, 'two', \"three\"]\n  - - nested\n",
		"a:", "- ", "x: 1", "\"q", "'s", "[1,", "]: ", "#c", "\ta: 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src)
	})
}

// Property: structured junk (random printable lines with colons and
// dashes) either parses or errors — never panics, never hangs.
func TestParseStructuredJunkProperty(t *testing.T) {
	f := func(seed uint64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		state := seed
		next := func() uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return state >> 33
		}
		pieces := []string{"a:", "- ", "  ", "x: 1", "\"q", "'s", "[1,", "]: ", "#c", "---"}
		var sb strings.Builder
		for i := 0; i < int(next()%40); i++ {
			sb.WriteString(pieces[next()%uint64(len(pieces))])
			if next()%3 == 0 {
				sb.WriteString("\n")
			}
		}
		_, _ = Parse(sb.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
