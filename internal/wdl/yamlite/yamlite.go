// Package yamlite is a small, dependency-free parser for the subset of YAML
// that FaaSFlow workflow definition files use: block mappings, block
// sequences, flow sequences ([a, b]), plain/quoted scalars, ints, floats,
// booleans, nulls, and comments. It is not a general YAML implementation —
// anchors, aliases, multi-document streams, block scalars and flow mappings
// are intentionally out of scope.
//
// Parsed values use the natural Go shapes:
//
//	mapping  -> map[string]any
//	sequence -> []any
//	scalar   -> string | int64 | float64 | bool | nil
package yamlite

import (
	"fmt"
	"strconv"
	"strings"
)

// SyntaxError describes a parse failure with a 1-based line number.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("yamlite: line %d: %s", e.Line, e.Msg)
}

type line struct {
	num    int    // 1-based source line
	indent int    // count of leading spaces
	text   string // content with indent and trailing comment stripped
}

// Parse parses a document and returns its root value.
func Parse(src string) (any, error) {
	lines, err := splitLines(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, nil
	}
	p := &parser{lines: lines}
	v, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, &SyntaxError{Line: p.lines[p.pos].num, Msg: "unexpected content after document"}
	}
	return v, nil
}

// ParseMap parses a document whose root must be a mapping.
func ParseMap(src string) (map[string]any, error) {
	v, err := Parse(src)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, &SyntaxError{Line: 1, Msg: fmt.Sprintf("document root is %T, want mapping", v)}
	}
	return m, nil
}

func splitLines(src string) ([]line, error) {
	var out []line
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		if strings.Contains(raw, "\t") {
			// YAML forbids tabs in indentation; being strict here catches
			// broken files early instead of mis-nesting them.
			idx := strings.IndexByte(raw, '\t')
			before := strings.TrimSpace(raw[:idx])
			if before == "" {
				return nil, &SyntaxError{Line: num, Msg: "tab character in indentation"}
			}
		}
		text := stripComment(raw)
		trimmed := strings.TrimLeft(text, " ")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		if trimmed == "---" {
			continue // document start marker
		}
		out = append(out, line{num: num, indent: len(text) - len(trimmed), text: strings.TrimRight(trimmed, " ")})
	}
	return out, nil
}

// stripComment removes a trailing "#" comment that is not inside quotes.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '#':
			if !inSingle && !inDouble {
				// A '#' introduces a comment at start of line or after a space.
				if i == 0 || s[i-1] == ' ' {
					return s[:i]
				}
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) cur() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

// parseBlock parses a mapping or sequence whose entries sit at exactly
// the given indent.
func (p *parser) parseBlock(indent int) (any, error) {
	ln, ok := p.cur()
	if !ok {
		return nil, nil
	}
	if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *parser) parseSequence(indent int) (any, error) {
	var seq []any
	for {
		ln, ok := p.cur()
		if !ok || ln.indent != indent {
			break
		}
		if !strings.HasPrefix(ln.text, "- ") && ln.text != "-" {
			break
		}
		rest := strings.TrimPrefix(ln.text, "-")
		rest = strings.TrimPrefix(rest, " ")
		if rest == "" {
			// "-" alone: nested block on following lines.
			p.pos++
			next, ok := p.cur()
			if !ok || next.indent <= indent {
				seq = append(seq, nil)
				continue
			}
			v, err := p.parseBlock(next.indent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		if key, val, isMap := splitKeyValue(rest); isMap {
			// "- key: value" starts an inline mapping entry; subsequent
			// keys of the same entry are indented deeper than the dash.
			itemIndent := indent + 2 // canonical position of inline keys
			m := map[string]any{}
			if err := p.mapEntry(m, key, val, ln, itemIndent); err != nil {
				return nil, err
			}
			for {
				next, ok := p.cur()
				if !ok || next.indent <= indent || strings.HasPrefix(next.text, "- ") && next.indent == itemIndent-2 {
					break
				}
				if next.indent != itemIndent {
					if next.indent > itemIndent {
						return nil, &SyntaxError{Line: next.num, Msg: "unexpected indentation"}
					}
					break
				}
				k2, v2, isMap2 := splitKeyValue(next.text)
				if !isMap2 {
					return nil, &SyntaxError{Line: next.num, Msg: "expected key: value in mapping"}
				}
				if err := p.mapEntry(m, k2, v2, next, itemIndent); err != nil {
					return nil, err
				}
			}
			seq = append(seq, m)
			continue
		}
		// Plain scalar item.
		v, err := parseScalar(rest, ln.num)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
		p.pos++
	}
	return seq, nil
}

func (p *parser) parseMapping(indent int) (any, error) {
	m := map[string]any{}
	for {
		ln, ok := p.cur()
		if !ok || ln.indent != indent {
			break
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			break
		}
		key, val, isMap := splitKeyValue(ln.text)
		if !isMap {
			return nil, &SyntaxError{Line: ln.num, Msg: fmt.Sprintf("expected key: value, got %q", ln.text)}
		}
		if err := p.mapEntry(m, key, val, ln, indent); err != nil {
			return nil, err
		}
	}
	if len(m) == 0 {
		ln, _ := p.cur()
		return nil, &SyntaxError{Line: ln.num, Msg: "empty mapping block"}
	}
	return m, nil
}

// mapEntry consumes the current line as "key: val" at the given indent,
// handling nested blocks when val is empty. The parser position is on the
// line containing the entry; on return it is past the entry's value.
func (p *parser) mapEntry(m map[string]any, key, val string, ln line, indent int) error {
	if _, dup := m[key]; dup {
		return &SyntaxError{Line: ln.num, Msg: fmt.Sprintf("duplicate key %q", key)}
	}
	p.pos++
	if val != "" {
		v, err := parseScalar(val, ln.num)
		if err != nil {
			return err
		}
		m[key] = v
		return nil
	}
	// Value is a nested block (or null when nothing is indented deeper).
	next, ok := p.cur()
	if !ok || next.indent <= indent {
		// Allow a sequence at the same indent as its key (common YAML style).
		if ok && next.indent == indent && (strings.HasPrefix(next.text, "- ") || next.text == "-") {
			v, err := p.parseSequence(indent)
			if err != nil {
				return err
			}
			m[key] = v
			return nil
		}
		m[key] = nil
		return nil
	}
	v, err := p.parseBlock(next.indent)
	if err != nil {
		return err
	}
	m[key] = v
	return nil
}

// splitKeyValue splits "key: value" respecting quotes. It reports false
// when the text is not a mapping entry.
func splitKeyValue(s string) (key, val string, ok bool) {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case ':':
			if inSingle || inDouble {
				continue
			}
			if i+1 == len(s) {
				return strings.TrimSpace(s[:i]), "", true
			}
			if s[i+1] == ' ' {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+2:]), true
			}
		}
	}
	return "", "", false
}

func parseScalar(s string, lineNum int) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, nil
	case s == "null" || s == "~":
		return nil, nil
	case s == "true" || s == "True":
		return true, nil
	case s == "false" || s == "False":
		return false, nil
	}
	if strings.HasPrefix(s, "[") {
		return parseFlowSeq(s, lineNum)
	}
	if strings.HasPrefix(s, "\"") {
		if !strings.HasSuffix(s, "\"") || len(s) < 2 {
			return nil, &SyntaxError{Line: lineNum, Msg: "unterminated double-quoted string"}
		}
		return strconv.Unquote(s)
	}
	if strings.HasPrefix(s, "'") {
		if !strings.HasSuffix(s, "'") || len(s) < 2 {
			return nil, &SyntaxError{Line: lineNum, Msg: "unterminated single-quoted string"}
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

func parseFlowSeq(s string, lineNum int) (any, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, &SyntaxError{Line: lineNum, Msg: "unterminated flow sequence"}
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return []any{}, nil
	}
	var out []any
	for _, part := range splitFlowItems(inner) {
		v, err := parseScalar(part, lineNum)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// splitFlowItems splits "a, b, 'c, d'" on commas outside quotes/brackets.
func splitFlowItems(s string) []string {
	var out []string
	depth := 0
	inSingle, inDouble := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '[':
			if !inSingle && !inDouble {
				depth++
			}
		case ']':
			if !inSingle && !inDouble {
				depth--
			}
		case ',':
			if depth == 0 && !inSingle && !inDouble {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// String extracts a string field from a parsed mapping.
func String(m map[string]any, key string) (string, bool) {
	v, ok := m[key]
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

// Int extracts an integer field from a parsed mapping.
func Int(m map[string]any, key string) (int64, bool) {
	v, ok := m[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case int64:
		return n, true
	case float64:
		return int64(n), true
	}
	return 0, false
}

// Seq extracts a sequence field from a parsed mapping.
func Seq(m map[string]any, key string) ([]any, bool) {
	v, ok := m[key]
	if !ok {
		return nil, false
	}
	s, ok := v.([]any)
	return s, ok
}
