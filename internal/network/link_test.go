package network

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestCompensationSeam holds link.go's seam: each packet-atomic compensation
// constant of DESIGN §2 is read in exactly one function of the package
// (besides parameter validation and the calendar horizon, which bound every
// parameter), and the VC slot cost is charged only inside link.go. A
// sub-packet link model then changes those bodies and nothing else.
func TestCompensationSeam(t *testing.T) {
	fields := []string{"InjectTokens", "EscapeDelay", "VCLookahead"}
	exempt := map[string]bool{"Params.validate": true, "calendarHorizon": true}
	readers := map[string]map[string]bool{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn := "package-level declaration in " + name
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = funcName(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					for _, field := range fields {
						if n.Sel.Name == field && !exempt[fn] {
							if readers[field] == nil {
								readers[field] = map[string]bool{}
							}
							readers[field][fn] = true
						}
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "vcCost" && name != "link.go" {
						t.Errorf("%s: %s charges vcCost outside link.go", fset.Position(n.Pos()), fn)
					}
				}
				return true
			})
		}
	}
	for _, field := range fields {
		var fns []string
		for fn := range readers[field] {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		if len(fns) != 1 {
			t.Errorf("Params.%s is read in %d functions %v, want exactly one", field, len(fns), fns)
		}
	}
}

// funcName names a declared function the way the seam test reports it:
// Recv.Name for methods (pointer receivers without the star), else Name.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
