package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that code reaches through an
// interface (fmt.Stringer, error, encoding, encoding/json, net/http,
// errors, obs.Event) rather than by naming them, so a missing caller
// proves nothing.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Unwrap": true, "Is": true, "As": true, "Kind": true, "When": true,
}

// TestExportedIdentifiersHaveCallers enforces DESIGN.md's rule that an
// exported function or method under internal/ has a caller outside tests
// or a written justification. It matches by name: every identifier in
// every non-test .go file of the checkout (bench/, cmd/ and examples/
// included) counts as a use. A name that collides with another
// identifier can hide a test-only method, but a real caller is never
// flagged.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // name -> first declaring position
	uses := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decls := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				decls[fn.Name] = true
				if _, seen := declared[fn.Name.Name]; !seen {
					declared[fn.Name.Name] = fset.Position(fn.Name.Pos()).String()
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	justified := justifiedIdentifiers(t)
	var orphans []string
	for name, pos := range declared {
		if uses[name] == 0 && !interfaceMethods[name] && !justified[name] {
			orphans = append(orphans, pos+": "+name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no caller outside tests; delete it or justify it in DESIGN.md", o)
	}
}

// justifiedIdentifiers returns every dot-separated component of the
// backticked names in DESIGN.md's "Exported identifiers need a caller"
// section.
func justifiedIdentifiers(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## Exported identifiers need a caller\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "Exported identifiers need a caller" section`)
	}
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	names := map[string]bool{}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(section, -1) {
		for _, part := range strings.Split(m[1], ".") {
			names[part] = true
		}
	}
	return names
}
