package client

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

// TestClientNamesHaveCallers keeps the package to the calls its callers
// make. An exported name of a non-test file stays only if (1) a non-test
// file under internal/coord, cmd/ or bench/ uses it, or (2) the signature
// of a function or method kept by (1) or (2) mentions it. It parses (no type information): a package-level
// name is used by the selector client.Name on the package's import, and
// a method by any selector .Name in a package that imports this one.
func TestClientNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	// Exported names (methods as Recv.Name), each with the identifiers of
	// its signature when it is a function or method.
	exported := map[string][]string{}
	own, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range own {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				name := d.Name.Name
				if d.Recv != nil {
					name = recvName(d.Recv.List[0].Type) + "." + name
				}
				var sig []string
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						sig = append(sig, id.Name)
					}
					return true
				})
				exported[name] = sig
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
	}

	// Package-level uses count per file; selectors (method uses) count per
	// directory that has a file importing the client, since a method is
	// often called in a file of that package that does not import it.
	pkgUses := map[string]bool{}
	dirSelectors := map[string]map[string]bool{}
	importers := map[string]bool{}
	scan := func(path string) {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Dir(path)
		if dirSelectors[dir] == nil {
			dirSelectors[dir] = map[string]bool{}
		}
		local := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "yardstick/internal/client" {
				local = "client"
				if imp.Name != nil {
					local = imp.Name.Name
				}
				importers[dir] = true
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				dirSelectors[dir][sel.Sel.Name] = true
				if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && local != "" && id.Name == local {
					pkgUses[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, dir := range []string{"../coord", "../../cmd", "../../bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				scan(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(importers) < 2 {
		t.Fatalf("found only %d packages importing the client; the layout moved and this test checks nothing", len(importers))
	}
	selectors := map[string]bool{}
	for dir := range importers {
		for name := range dirSelectors[dir] {
			selectors[name] = true
		}
	}

	// Rule (2): a kept function's signature keeps the names it mentions.
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
	for name := range exported {
		method := name[strings.IndexByte(name, '.')+1:]
		if pkgUses[name] || method != name && selectors[method] {
			keep(name)
		}
	}

	var dead []string
	for name := range exported {
		if !kept[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("client.%s has no caller in a non-test file under internal/coord, cmd/ or bench/: delete it or unexport it", name)
	}
	t.Logf("%d exported names, %d without a caller", len(exported), len(dead))
}

// recvName is the type name of a method receiver (T or *T).
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	return e.(*ast.Ident).Name
}
