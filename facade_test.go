package yardstick_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers keeps yardstick.go to the names something
// uses. An exported package-level name stays only if (1) a non-test file
// under cmd/ or examples/ uses it, (2) an Example* or Benchmark* function
// in the root test files uses it, or (3) the signature of a function kept
// by (1)–(3) mentions it. A Test* function alone keeps nothing, and there
// is no allow-list: a name worth keeping without a caller gets an Example.
// It parses (no type information): a use is the selector yardstick.Name
// on the facade's import.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "yardstick.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Exported names, and for functions the identifiers of the signature.
	exported := map[string][]string{}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				var sig []string
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						sig = append(sig, id.Name)
					}
					return true
				})
				exported[d.Name.Name] = sig
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported[s.Name.Name] = nil
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							exported[id.Name] = nil
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	files := 0
	// scan records every yardstick.Name selector in one file; with
	// funcsOnly, only inside its Example* and Benchmark* functions.
	scan := func(path string, funcsOnly bool) {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "yardstick" {
				local = "yardstick"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		files++
		for _, decl := range file.Decls {
			if funcsOnly {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil ||
					!strings.HasPrefix(fn.Name.Name, "Example") && !strings.HasPrefix(fn.Name.Name, "Benchmark") {
					continue
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && id.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				scan(path, false)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		scan(path, true)
	}
	if files < 10 {
		t.Fatalf("parsed only %d files importing the facade; the layout moved and this test checks nothing", files)
	}

	// Rule (3): a kept function's signature keeps the names it mentions.
	kept := map[string]bool{}
	var keep func(name string)
	keep = func(name string) {
		sig, ok := exported[name]
		if !ok || kept[name] {
			return
		}
		kept[name] = true
		for _, id := range sig {
			keep(id)
		}
	}
	for name := range used {
		keep(name)
	}

	var dead []string
	for name := range exported {
		if !kept[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("yardstick.%s has no caller under cmd/ or examples/ and no Example or Benchmark: delete it or give it an Example", name)
	}
	t.Logf("%d exported names, %d without a caller", len(exported), len(dead))
}
