package metablocking

// The dead-code gate: a stdlib-only (go/parser + go/ast) scan of the
// module that fails when production code declares something no production
// code uses. It matches by name, without type information:
//
//   - An exported func, type, var or const under internal/ or cmd/ is live
//     when a non-test file of its own package names it, or a non-test file
//     anywhere in the module selects it through an import of its package.
//   - An exported method is live when any non-test file in the module
//     selects a member of that name (x.Name), or when the root package
//     aliases its receiver type, which makes it public API.
//   - An unexported func or method is live when a non-test file of its own
//     package names it.
//
// Declaring identifiers, parameter and field names and method receivers
// are not uses. Matching by name undercounts (a dead method shares the
// fate of any live method of the same name) but never flags live code.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadCodeAllow names the symbols the gate accepts without a production
// use, each with its reason. A key is a finding's symbol, or "pkg.*" for
// every finding in a package. An entry that matches no finding is stale
// and fails the gate, so the list cannot outlive the code it excuses.
var deadCodeAllow = map[string]string{
	"oracle.*":                 "reference implementations and generators that only tests compare against, by design",
	"server.WithClock":         "test hook: chaos tests step the circuit breaker's clock",
	"fault.(*Injector).Disarm": "test hook: chaos tests clear an armed fault to watch the server recover",
	"fault.(*Injector).Hits":   "the injector's own accounting: its tests assert how often a site was consulted",
	"fault.(*Injector).Fired":  "the injector's own accounting: its tests assert how often an armed site fired",
	"paperexample.*":           "the paper's running example (Figures 1-2), a fixture the tests of many packages share; a _test.go file cannot be imported across packages",
}

// deadSymbol is one finding: where the declaration is and what it is,
// as pkg.Name or pkg.(Recv).Name, pkg being the package directory with
// any leading "internal/" dropped.
type deadSymbol struct {
	pos, pkg, key string
}

func TestNoDeadCode(t *testing.T) {
	found, err := findDeadCode(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range applyDeadCodeAllow(found, deadCodeAllow) {
		t.Error(p)
	}
}

// TestDeadCodeGateFixture runs the gate over testdata/deadcode, a module
// with one declaration per rule.
func TestDeadCodeGateFixture(t *testing.T) {
	found, err := findDeadCode(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	flagged := make(map[string]bool)
	for _, d := range found {
		flagged[d.key] = true
	}
	for key, want := range map[string]bool{
		"lib.OnlyTested":     true,  // exported, named only by a test
		"lib.Used":           false, // exported, named by another package
		"lib.orphan":         true,  // unexported, named only by a test
		"lib.helper":         false, // unexported, named by its package
		"lib.(Thing).Method": false, // method of a type the root aliases
		"lib.(*Other).Dead":  true,  // method selected only by a test
		"lib.Other":          false, // type named through an import
	} {
		if flagged[key] != want {
			t.Errorf("%s flagged = %v, want %v (findings %v)", key, flagged[key], want, found)
		}
	}

	allow := map[string]string{
		"lib.OnlyTested":    "reason",
		"lib.orphan":        "reason",
		"lib.(*Other).Dead": "reason",
	}
	if problems := applyDeadCodeAllow(found, allow); len(problems) != 0 {
		t.Errorf("every finding allowlisted: problems %v", problems)
	}
	allow["lib.Used"] = "now has a production use"
	allow["lib.Gone"] = "no longer exists"
	problems := applyDeadCodeAllow(found, allow)
	if len(problems) != 2 || !strings.Contains(problems[0], "lib.Gone") || !strings.Contains(problems[1], "lib.Used") {
		t.Errorf("stale entries: problems %v, want lib.Gone and lib.Used", problems)
	}
}

// applyDeadCodeAllow returns the findings no entry excuses, as
// "file:line symbol", followed by one problem per stale entry.
func applyDeadCodeAllow(found []deadSymbol, allow map[string]string) []string {
	used := make(map[string]bool)
	var problems []string
	for _, d := range found {
		switch {
		case allow[d.key] != "":
			used[d.key] = true
		case allow[d.pkg+".*"] != "":
			used[d.pkg+".*"] = true
		default:
			problems = append(problems, d.pos+" "+d.key)
		}
	}
	var stale []string
	for key := range allow {
		if !used[key] {
			stale = append(stale, "stale allowlist entry "+key+": it no longer exists or now has a production use")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// pkgFiles is one package directory's non-test files.
type pkgFiles struct {
	dir        string // slash-separated, relative to the module root; "" is the root
	importPath string
	files      []*ast.File
}

// findDeadCode scans the module rooted at root and returns every dead
// declaration, sorted by position.
func findDeadCode(root string) ([]deadSymbol, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byDir := make(map[string]*pkgFiles)
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		if dir == "." {
			dir = ""
		}
		pf := byDir[dir]
		if pf == nil {
			pf = &pkgFiles{dir: dir, importPath: path.Join(module, dir)}
			byDir[dir] = pf
		}
		pf.files = append(pf.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	u := newUses()
	for _, pf := range byDir {
		for _, f := range pf.files {
			u.scan(pf, f)
		}
	}

	var found []deadSymbol
	for _, pf := range byDir {
		if !strings.HasPrefix(pf.dir, "internal/") && !strings.HasPrefix(pf.dir, "cmd/") {
			continue
		}
		label := strings.TrimPrefix(pf.dir, "internal/")
		for _, f := range pf.files {
			for _, key := range u.dead(pf, f) {
				pos := fset.Position(key.pos)
				found = append(found, deadSymbol{
					pos: fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line),
					pkg: label,
					key: label + "." + key.name,
				})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	return found, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// uses records every name the module's non-test files use.
type uses struct {
	bare      map[string]map[string]bool // package dir → identifiers used unqualified
	qualified map[string]map[string]bool // import path → names selected through an import
	members   map[string]bool            // names selected as x.Name anywhere
	membersIn map[string]map[string]bool // package dir → names selected as x.Name there
	aliased   map[string]bool            // "importpath.Type" aliased by the root package
}

func newUses() *uses {
	return &uses{
		bare:      make(map[string]map[string]bool),
		qualified: make(map[string]map[string]bool),
		members:   make(map[string]bool),
		membersIn: make(map[string]map[string]bool),
		aliased:   make(map[string]bool),
	}
}

func addTo(m map[string]map[string]bool, k, name string) {
	if m[k] == nil {
		m[k] = make(map[string]bool)
	}
	m[k][name] = true
}

func (u *uses) scan(pf *pkgFiles, f *ast.File) {
	imports := make(map[string]string) // local name → import path
	for _, spec := range f.Imports {
		ip := strings.Trim(spec.Path.Value, `"`)
		name := path.Base(ip)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = ip
	}

	// Declaring identifiers and receiver types are not uses.
	skip := make(map[*ast.Ident]bool)
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			skip[decl.Name] = true
			if decl.Recv != nil {
				skip[recvIdent(decl.Recv.List[0].Type)] = true
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					skip[spec.Name] = true
					if pf.dir == "" && spec.Assign.IsValid() {
						if sel, ok := spec.Type.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
								u.aliased[imports[x.Name]+"."+sel.Sel.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						skip[n] = true
					}
				}
			}
		}
	}

	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, name := range n.Names {
				skip[name] = true
			}
		case *ast.SelectorExpr:
			name := n.Sel.Name
			u.members[name] = true
			addTo(u.membersIn, pf.dir, name)
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				addTo(u.qualified, imports[x.Name], name)
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !skip[n] {
				addTo(u.bare, pf.dir, n.Name)
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

// recvIdent returns the type name of a method receiver: T in T, *T,
// T[P] and *T[P, Q].
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// declKey is a declaration's position and its symbol relative to its
// package: Name or (Recv).Name.
type declKey struct {
	pos  token.Pos
	name string
}

// dead returns the declarations of f that nothing uses.
func (u *uses) dead(pf *pkgFiles, f *ast.File) []declKey {
	// usedHere reports a use in the declaring package or, for an
	// exported name, through an import anywhere.
	usedHere := func(name string) bool {
		return u.bare[pf.dir][name] || (ast.IsExported(name) && u.qualified[pf.importPath][name])
	}
	var out []declKey
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			name := decl.Name.Name
			if decl.Recv == nil {
				if name == "init" || name == "main" || name == "_" || usedHere(name) {
					continue
				}
				out = append(out, declKey{decl.Pos(), name})
				continue
			}
			recvType := decl.Recv.List[0].Type
			recv := recvIdent(recvType).Name
			switch {
			case ast.IsExported(name) && (u.members[name] || u.aliased[pf.importPath+"."+recv]):
				continue
			case !ast.IsExported(name) && u.membersIn[pf.dir][name]:
				continue
			}
			if _, ptr := recvType.(*ast.StarExpr); ptr {
				recv = "*" + recv
			}
			out = append(out, declKey{decl.Pos(), "(" + recv + ")." + name})
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				var names []*ast.Ident
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					names = []*ast.Ident{spec.Name}
				case *ast.ValueSpec:
					names = spec.Names
				}
				for _, n := range names {
					if ast.IsExported(n.Name) && !usedHere(n.Name) {
						out = append(out, declKey{n.Pos(), n.Name})
					}
				}
			}
		}
	}
	return out
}
