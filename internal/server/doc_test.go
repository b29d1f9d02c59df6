package server_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"smtdram/internal/server"
)

// TestPackageDocListsEveryEndpoint: the package comment's endpoint list is the
// mux. Its "METHOD /path" lines must equal the patterns Handler registers,
// read from server.go's source, and the live mux must resolve each of those
// to itself.
func TestPackageDocListsEveryEndpoint(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "server.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^\t(GET|POST|PUT|DELETE)\s+(/\S*)`)
	var documented []string
	for _, l := range strings.Split(f.Doc.Text(), "\n") {
		if m := line.FindStringSubmatch(l); m != nil {
			documented = append(documented, m[1]+" "+m[2])
		}
	}

	var registered []string
	ast.Inspect(f, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Handler" {
			return true
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "HandleFunc" {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					pat, _ := strconv.Unquote(lit.Value)
					registered = append(registered, pat)
				}
			}
			return true
		})
		return false
	})

	srv := server.New(server.Config{})
	defer srv.Close()
	mux, ok := srv.Handler().(*http.ServeMux)
	if !ok {
		t.Fatal("Handler is not a *http.ServeMux")
	}
	for _, pat := range registered {
		method, path, _ := strings.Cut(pat, " ")
		req := httptest.NewRequest(method, strings.ReplaceAll(path, "{id}", "j-1"), nil)
		if _, got := mux.Handler(req); got != pat {
			t.Errorf("the mux resolves %s to %q, not to itself", pat, got)
		}
	}
	slices.Sort(documented)
	slices.Sort(registered)
	if !slices.Equal(documented, registered) {
		t.Fatalf("package comment lists %d endpoints, Handler registers %d:\n doc %q\n mux %q",
			len(documented), len(registered), documented, registered)
	}
}
