package collective

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneInjectionSchedule holds schedule.go's seam: the package has exactly
// one network.Source implementation - one type with a Next(now int64) method
// returning network.SrcStatus - so every strategy, pattern and flow-control
// variant injects through the same schedule.
func TestOneInjectionSchedule(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var sources []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Next" || !isSourceNext(fd.Type) {
				continue
			}
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				sources = append(sources, id.Name)
			}
		}
	}
	if len(sources) != 1 {
		t.Errorf("%d types implement network.Source %v, want exactly one", len(sources), sources)
	}
}

// isSourceNext reports whether ft is network.Source's Next: one int64
// parameter and a network.SrcStatus among the results.
func isSourceNext(ft *ast.FuncType) bool {
	params := ft.Params.List
	if len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	if id, ok := params[0].Type.(*ast.Ident); !ok || id.Name != "int64" {
		return false
	}
	if ft.Results == nil {
		return false
	}
	for _, r := range ft.Results.List {
		sel, ok := r.Type.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "network" && sel.Sel.Name == "SrcStatus" {
			return true
		}
	}
	return false
}
