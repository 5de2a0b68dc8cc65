package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFrontEndsDriveTheEngine keeps the evaluation recipe — sharded or
// sequential run, watched context, guard, stats flush, coverage view —
// from growing back into the front ends: non-test code in the service,
// the coordinator and the commands reaches those calls through an
// Engine, never directly. It parses (no type information), so the Space
// methods are matched by name on any receiver; nothing else in the front
// ends may carry those names.
func TestFrontEndsDriveTheEngine(t *testing.T) {
	// Package-level functions, by import path; the yardstick facade's
	// re-exports of the same functions count too.
	bannedFuncs := map[string][]string{
		"yardstick/internal/sharded": {"New"},
		"yardstick/internal/core":    {"NewCoverage", "Fingerprint"},
		"yardstick/internal/bdd":     {"Guard"},
		"yardstick":                  {"NewCoverage"},
	}
	bannedMethods := []string{"WatchContext", "FlushStats"}

	root := filepath.Join("..", "..")
	dirs := []string{"internal/service", "internal/coord"}
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if c.IsDir() {
			dirs = append(dirs, "cmd/"+c.Name())
		}
	}

	fset := token.NewFileSet()
	files := 0
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				files++
				// Local name of each import that has banned functions.
				banned := map[string][]string{}
				for _, imp := range file.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					names, ok := bannedFuncs[path]
					if !ok {
						continue
					}
					local := path[strings.LastIndex(path, "/")+1:]
					if imp.Name != nil {
						local = imp.Name.Name
					}
					banned[local] = names
				}
				ast.Inspect(file, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
						for _, name := range banned[id.Name] {
							if sel.Sel.Name == name {
								t.Errorf("%s: %s.%s — drive internal/engine instead", fset.Position(sel.Pos()), id.Name, name)
							}
						}
					}
					for _, name := range bannedMethods {
						if sel.Sel.Name == name {
							t.Errorf("%s: .%s — a guarded stage is the engine's to run", fset.Position(sel.Pos()), name)
						}
					}
					return true
				})
			}
		}
	}
	if files < 10 {
		t.Fatalf("parsed only %d front-end files; the layout moved and this test checks nothing", files)
	}
}
