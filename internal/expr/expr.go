// Package expr evaluates the conditional expressions of WDL switch steps,
// e.g. "$quality > 720 && $format == 'mp4'".
//
// Grammar (precedence low to high):
//
//	or     := and { "||" and }
//	and    := cmp { "&&" cmp }
//	cmp    := sum [ ("=="|"!="|"<"|"<="|">"|">=") sum ]
//	sum    := term { ("+"|"-") term }
//	term   := unary { ("*"|"/") unary }
//	unary  := [ "!" | "-" ] atom
//	atom   := number | string | "true" | "false" | "$ident" | "(" or ")"
//
// Values are float64, string, or bool. Comparisons require matching kinds
// ("==" and "!=" work on all three; ordering only on numbers and strings).
// Arithmetic works on numbers; "+" also concatenates strings. Evaluation
// is strict: unknown variables and kind mismatches are errors, not silent
// false — a mis-typed workflow condition should fail loudly at dispatch.
package expr

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a runtime value: float64, string, or bool.
type Value = any

// Env maps $variables to their values.
type Env map[string]Value

// Expr is a compiled expression.
type Expr struct {
	root node
	src  string
}

// Compile parses the expression once; Eval can then run it repeatedly.
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("expr: unexpected %q in %q", p.toks[p.pos].text, src)
	}
	return &Expr{root: root, src: src}, nil
}

// String returns the original source.
func (e *Expr) String() string { return e.src }

// Eval evaluates the expression under env.
func (e *Expr) Eval(env Env) (Value, error) { return e.root.eval(env) }

// EvalBool evaluates and requires a boolean result.
func (e *Expr) EvalBool(env Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("expr: %q evaluates to %T, want bool", e.src, v)
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Lexer

type tokKind int

const (
	tokNum tokKind = iota
	tokStr
	tokIdent // true/false keywords
	tokVar   // $name
	tokOp
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
	num  float64
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLParen, text: "("})
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRParen, text: ")"})
			i++
		case c == '$':
			j := i + 1
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("expr: bare '$' at offset %d in %q", i, src)
			}
			toks = append(toks, token{kind: tokVar, text: src[i+1 : j]})
			i = j
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(src) && src[j] != quote {
				j++
			}
			if j == len(src) {
				return nil, fmt.Errorf("expr: unterminated string in %q", src)
			}
			toks = append(toks, token{kind: tokStr, text: src[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			n, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("expr: bad number %q in %q", src[i:j], src)
			}
			toks = append(toks, token{kind: tokNum, text: src[i:j], num: n})
			i = j
		case isIdentChar(c):
			j := i
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			word := src[i:j]
			if word != "true" && word != "false" {
				return nil, fmt.Errorf("expr: unknown identifier %q (variables need a '$') in %q", word, src)
			}
			toks = append(toks, token{kind: tokIdent, text: word})
			i = j
		default:
			for _, op := range []string{"&&", "||", "==", "!=", "<=", ">=", "<", ">", "!", "+", "-", "*", "/"} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, token{kind: tokOp, text: op})
					i += len(op)
					goto next
				}
			}
			return nil, fmt.Errorf("expr: unexpected character %q at offset %d in %q", c, i, src)
		next:
		}
	}
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// ---------------------------------------------------------------------------
// Parser

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) peekOp(ops ...string) (string, bool) {
	if p.pos >= len(p.toks) || p.toks[p.pos].kind != tokOp {
		return "", false
	}
	for _, op := range ops {
		if p.toks[p.pos].text == op {
			return op, true
		}
	}
	return "", false
}

func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := p.peekOp("||"); !ok {
			return left, nil
		}
		p.pos++
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: "||", l: left, r: right}
	}
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := p.peekOp("&&"); !ok {
			return left, nil
		}
		p.pos++
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: "&&", l: left, r: right}
	}
}

func (p *parser) parseCmp() (node, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	op, ok := p.peekOp("==", "!=", "<=", ">=", "<", ">")
	if !ok {
		return left, nil
	}
	p.pos++
	right, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	return &binNode{op: op, l: left, r: right}, nil
}

func (p *parser) parseSum() (node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.peekOp("+", "-")
		if !ok {
			return left, nil
		}
		p.pos++
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: op, l: left, r: right}
	}
}

func (p *parser) parseTerm() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.peekOp("*", "/")
		if !ok {
			return left, nil
		}
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: op, l: left, r: right}
	}
}

func (p *parser) parseUnary() (node, error) {
	if op, ok := p.peekOp("!", "-"); ok {
		p.pos++
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unNode{op: op, n: inner}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (node, error) {
	if p.pos >= len(p.toks) {
		return nil, fmt.Errorf("expr: unexpected end of %q", p.src)
	}
	t := p.toks[p.pos]
	switch t.kind {
	case tokNum:
		p.pos++
		return &litNode{v: t.num}, nil
	case tokStr:
		p.pos++
		return &litNode{v: t.text}, nil
	case tokIdent:
		p.pos++
		return &litNode{v: t.text == "true"}, nil
	case tokVar:
		p.pos++
		return &varNode{name: t.text}, nil
	case tokLParen:
		p.pos++
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.pos >= len(p.toks) || p.toks[p.pos].kind != tokRParen {
			return nil, fmt.Errorf("expr: missing ')' in %q", p.src)
		}
		p.pos++
		return inner, nil
	default:
		return nil, fmt.Errorf("expr: unexpected %q in %q", t.text, p.src)
	}
}

// ---------------------------------------------------------------------------
// Evaluation

type node interface {
	eval(Env) (Value, error)
}

type litNode struct{ v Value }

func (n *litNode) eval(Env) (Value, error) { return n.v, nil }

type varNode struct{ name string }

func (n *varNode) eval(env Env) (Value, error) {
	v, ok := env[n.name]
	if !ok {
		return nil, fmt.Errorf("expr: unknown variable $%s", n.name)
	}
	switch v.(type) {
	case float64, string, bool:
		return v, nil
	case int:
		return float64(v.(int)), nil
	case int64:
		return float64(v.(int64)), nil
	default:
		return nil, fmt.Errorf("expr: variable $%s has unsupported type %T", n.name, v)
	}
}

type unNode struct {
	op string
	n  node
}

func (n *unNode) eval(env Env) (Value, error) {
	v, err := n.n.eval(env)
	if err != nil {
		return nil, err
	}
	switch n.op {
	case "!":
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("expr: '!' applied to %T", v)
		}
		return !b, nil
	case "-":
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("expr: unary '-' applied to %T", v)
		}
		return -f, nil
	}
	return nil, fmt.Errorf("expr: unknown unary %q", n.op)
}

type binNode struct {
	op   string
	l, r node
}

func (n *binNode) eval(env Env) (Value, error) {
	// Short-circuit logic first.
	if n.op == "&&" || n.op == "||" {
		lv, err := n.l.eval(env)
		if err != nil {
			return nil, err
		}
		lb, ok := lv.(bool)
		if !ok {
			return nil, fmt.Errorf("expr: %q applied to %T", n.op, lv)
		}
		if n.op == "&&" && !lb {
			return false, nil
		}
		if n.op == "||" && lb {
			return true, nil
		}
		rv, err := n.r.eval(env)
		if err != nil {
			return nil, err
		}
		rb, ok := rv.(bool)
		if !ok {
			return nil, fmt.Errorf("expr: %q applied to %T", n.op, rv)
		}
		return rb, nil
	}
	lv, err := n.l.eval(env)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.eval(env)
	if err != nil {
		return nil, err
	}
	switch n.op {
	case "==", "!=":
		if kindOf(lv) != kindOf(rv) {
			return nil, fmt.Errorf("expr: comparing %T with %T", lv, rv)
		}
		eq := lv == rv
		if n.op == "!=" {
			eq = !eq
		}
		return eq, nil
	case "<", "<=", ">", ">=":
		return order(n.op, lv, rv)
	case "+":
		if ls, ok := lv.(string); ok {
			rs, ok := rv.(string)
			if !ok {
				return nil, fmt.Errorf("expr: '+' on string and %T", rv)
			}
			return ls + rs, nil
		}
		return arith(n.op, lv, rv)
	case "-", "*", "/":
		return arith(n.op, lv, rv)
	}
	return nil, fmt.Errorf("expr: unknown operator %q", n.op)
}

func kindOf(v Value) string {
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	}
	return "?"
}

func order(op string, lv, rv Value) (Value, error) {
	switch l := lv.(type) {
	case float64:
		r, ok := rv.(float64)
		if !ok {
			return nil, fmt.Errorf("expr: ordering number with %T", rv)
		}
		return cmpResult(op, l < r, l == r), nil
	case string:
		r, ok := rv.(string)
		if !ok {
			return nil, fmt.Errorf("expr: ordering string with %T", rv)
		}
		return cmpResult(op, l < r, l == r), nil
	default:
		return nil, fmt.Errorf("expr: %q not ordered", kindOf(lv))
	}
}

func cmpResult(op string, less, eq bool) bool {
	switch op {
	case "<":
		return less
	case "<=":
		return less || eq
	case ">":
		return !less && !eq
	case ">=":
		return !less
	}
	return false
}

func arith(op string, lv, rv Value) (Value, error) {
	l, ok := lv.(float64)
	if !ok {
		return nil, fmt.Errorf("expr: %q on %T", op, lv)
	}
	r, ok := rv.(float64)
	if !ok {
		return nil, fmt.Errorf("expr: %q on %T", op, rv)
	}
	switch op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return nil, fmt.Errorf("expr: division by zero")
		}
		return l / r, nil
	}
	return nil, fmt.Errorf("expr: unknown arithmetic %q", op)
}
