package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// interfaceMethods are method names that the standard library or obs
// reaches through an interface (fmt.Stringer, error, encoding,
// encoding/json, net/http, errors, obs.Event) from code this scan does
// not type-check, so a missing caller proves nothing.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Unwrap": true, "Is": true, "As": true, "Kind": true, "When": true,
}

// TestExportedIdentifiersHaveCallers enforces DESIGN.md's rule that an
// exported function or method under internal/ has a caller outside tests
// or a written justification. It type-checks every package of the
// checkout, bench/, cmd/ and examples/ included, and resolves each use
// to the object it names, so a test-only method is flagged even when a
// field or method of another type shares its name.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	orphans, err := unusedExports(os.DirFS("."), justifiedIdentifiers(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range orphans {
		t.Errorf("%s has no caller outside tests; delete it or justify it in DESIGN.md", o)
	}
}

// unusedExports type-checks every package in fsys from its non-test
// files and returns "position: qualified name" for each exported
// function or method declared under internal/ that no non-test file
// uses. A method counts as used when a file names it, or names a method
// of the same name on an interface its type implements. Methods in
// interfaceMethods are exempt. A justified qualified name ("pkg.Func",
// "pkg.Type.Method", or "pkg.Type" for all of a type's methods) is
// allowed. Directories holding a go.mod start a module; import paths
// inside it follow its module line.
func unusedExports(fsys fs.FS, justified map[string]bool) ([]string, error) {
	l := &loader{
		fsys:  fsys,
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	if err := l.parse(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}

	used := map[*types.Func]bool{}
	var ifaceUses []*types.Func
	for _, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if !used[fn] {
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceUses = append(ifaceUses, fn)
			}
		}
	}
	reached := func(fn *types.Func) bool {
		if used[fn] {
			return true
		}
		t := recvType(fn)
		if t == nil {
			return false
		}
		for _, im := range ifaceUses {
			if im.Name() != fn.Name() {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
		return false
	}

	var orphans []string
	for _, p := range paths {
		if !strings.HasPrefix(l.dirs[p], "internal/") {
			continue
		}
		for _, f := range l.files[p] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := l.info.Defs[fd.Name].(*types.Func)
				name := fn.Pkg().Name() + "." + fn.Name()
				if t := recvType(fn); t != nil {
					if interfaceMethods[fn.Name()] {
						continue
					}
					typ := fn.Pkg().Name() + "." + t.Obj().Name()
					if justified[typ] {
						continue
					}
					name = typ + "." + fn.Name()
				}
				if !justified[name] && !reached(fn) {
					orphans = append(orphans, l.fset.Position(fd.Name.Pos()).String()+": "+name)
				}
			}
		}
	}
	sort.Strings(orphans)
	return orphans, nil
}

// recvType returns a method's receiver type, pointer stripped, or nil for
// a function.
func recvType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// loader parses and type-checks the packages of an fs.FS from source,
// importing the standard library from export data. All packages share
// one types.Info, so a use in any package resolves to the same object
// as its declaration.
type loader struct {
	fsys  fs.FS
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

// parse walks the tree and parses the non-test Go files of every
// package that the default build context would compile.
func (l *loader) parse() error {
	ctxt := build.Default
	ctxt.JoinPath = path.Join
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return l.fsys.Open(name) }
	modules := map[string]string{} // module root directory -> module path
	return fs.WalkDir(l.fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return fs.SkipDir
			}
			mod, err := modulePath(l.fsys, path.Join(p, "go.mod"))
			if err != nil {
				return err
			}
			if mod != "" {
				modules[p] = mod
			}
			return nil
		}
		dir, name := path.Split(p)
		dir = path.Clean(dir)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := ctxt.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		src, err := fs.ReadFile(l.fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(l.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := importPath(modules, dir)
		if imp == "" {
			return fmt.Errorf("%s: not inside a module", p)
		}
		l.dirs[imp] = dir
		l.files[imp] = append(l.files[imp], f)
		return nil
	})
}

// modulePath returns the module line of the go.mod at name, or "" when
// there is none.
func modulePath(fsys fs.FS, name string) (string, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return "", nil
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(s.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", name)
}

// importPath maps a directory to its import path through the innermost
// module root above it.
func importPath(modules map[string]string, dir string) string {
	for d := dir; ; d = path.Dir(d) {
		if mod, ok := modules[d]; ok {
			if d == dir {
				return mod
			}
			return mod + "/" + strings.TrimPrefix(dir, strings.TrimSuffix(d, ".")+"/")
		}
		if d == "." {
			return ""
		}
	}
}

// Import type-checks a package of the tree once, or hands a path the
// tree does not hold to the standard-library importer.
func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := l.files[p]
	if !ok {
		return l.std.Import(p)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	return pkg, nil
}

// justifiedIdentifiers returns the backticked qualified names
// ("pkg.Name" or "pkg.Type.Method") in DESIGN.md's "Exported
// identifiers need a caller" section.
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
	for _, m := range regexp.MustCompile("`([a-z][a-z0-9]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)+)`").FindAllStringSubmatch(section, -1) {
		names[m[1]] = true
	}
	return names
}

// TestUnusedExportsResolvesByType runs the guard's core on a fixture
// module: a test-only method whose name a used field shares is flagged, a
// method reached only through an interface is not, and a qualified
// justification covers a type's methods.
func TestUnusedExportsResolvesByType(t *testing.T) {
	fixture := fstest.MapFS{
		"go.mod": {Data: []byte("module fx\n\ngo 1.22\n")},
		"main.go": {Data: []byte(`package main

import "fx/internal/a"

func main() {
	row := a.TenancyRow{SatRate: 1}
	_ = row.SatRate
	a.Kill(&a.Deployment{})
	_ = a.Used()
	_ = a.NewPartitioned()
}
`)},
		"internal/a/a.go": {Data: []byte(`package a

type TenancyRow struct{ SatRate float64 }

type OverloadRow struct{ Rate, Multiplier float64 }

// SatRate shares its name with TenancyRow's field; only tests call it.
func (r OverloadRow) SatRate() float64 { return r.Rate / r.Multiplier }

type Engine interface{ CrashEngine() }

type Deployment struct{}

// CrashEngine is called only through Engine.
func (d *Deployment) CrashEngine() {}

// String is exempt: fmt reaches it through fmt.Stringer.
func (d *Deployment) String() string { return "deployment" }

func Kill(e Engine) { e.CrashEngine() }

func Used() int { return 1 }

type Partitioned struct{}

func NewPartitioned() *Partitioned { return &Partitioned{} }

// ShardQuota has no caller; the justification of its type covers it.
func (p *Partitioned) ShardQuota() int { return 0 }
`)},
		"internal/a/a_test.go": {Data: []byte(`package a

func useAll() { _ = OverloadRow{}.SatRate() }
`)},
	}
	for _, c := range []struct {
		justified map[string]bool
		want      string
	}{
		{map[string]bool{"a.Partitioned": true}, "a.OverloadRow.SatRate"},
		{nil, "a.OverloadRow.SatRate a.Partitioned.ShardQuota"},
	} {
		orphans, err := unusedExports(fixture, c.justified)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, o := range orphans {
			names = append(names, o[strings.LastIndex(o, " ")+1:])
		}
		sort.Strings(names)
		if got := strings.Join(names, " "); got != c.want {
			t.Errorf("justified %v: orphans = %v, want %s", c.justified, orphans, c.want)
		}
	}
}
