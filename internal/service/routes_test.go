package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPackageDocListsRoutes holds the endpoint list of the package
// comment in service.go to the patterns Handler mounts: a mounted
// pattern missing from the list fails, and so does a listed route that
// is not mounted. A listed route is an indented line after "Endpoints"
// that starts with a method; its query string is not part of the
// pattern.
func TestPackageDocListsRoutes(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "service.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := file.Doc.Text()
	_, list, ok := strings.Cut(doc, "Endpoints")
	if !ok {
		t.Fatal("the package comment has no Endpoints list")
	}
	line := regexp.MustCompile(`(?m)^\s+(GET|HEAD|POST|PUT|PATCH|DELETE)\s+(/[^\s?]*)`)
	listed := map[string]bool{}
	for _, m := range line.FindAllStringSubmatch(list, -1) {
		listed[m[1]+" "+m[2]] = true
	}

	mounted := map[string]bool{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Handler" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "HandleFunc" {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					pattern, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					mounted[pattern] = true
				}
			}
			return true
		})
	}
	if len(mounted) < 10 {
		t.Fatalf("found only %d mounted patterns in Handler; the layout moved and this test checks nothing", len(mounted))
	}

	var missing, stale []string
	for p := range mounted {
		if !listed[p] {
			missing = append(missing, p)
		}
	}
	for p := range listed {
		if !mounted[p] {
			stale = append(stale, p)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, p := range missing {
		t.Errorf("Handler mounts %q but the package comment's endpoint list leaves it out", p)
	}
	for _, p := range stale {
		t.Errorf("the package comment lists %q but Handler does not mount it", p)
	}
}
