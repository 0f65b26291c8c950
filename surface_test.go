package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDecisionSurface pins the decision surface of the production code
// under internal/ and cmd/: policy.Decider is the one interface declaring
// or embedding a Decide* method, and these are the only Decide* methods.
// Every provider has one body, DecideScatterAt. The six other methods, on
// three of the seven provider types, are one-call wrappers kept because
// bench/ladder.go, frozen as the benchmark yardstick, calls them; nothing
// outside bench/ calls them:
//
//	cluster.Router.Decide, DecideBatch   ladder.go:218, 294–295
//	pdp.Engine.DecideAt, DecideBatchAt   ladder.go:300–301
//	ha.Ensemble.DecideAt, DecideBatchAt  ladder.go:304–305
//
// A new Decide* method or interface fails this test: route the decision
// through policy.Decider, policy.Decide or policy.DecideBatch.
func TestDecisionSurface(t *testing.T) {
	wantMethods := []string{
		"internal/cluster.Router.Decide",
		"internal/cluster.Router.DecideBatch",
		"internal/cluster.Router.DecideScatterAt",
		"internal/discovery.Client.DecideScatterAt",
		"internal/ha.Ensemble.DecideAt",
		"internal/ha.Ensemble.DecideBatchAt",
		"internal/ha.Ensemble.DecideScatterAt",
		"internal/ha.Failable.DecideScatterAt",
		"internal/pdp.Client.DecideScatterAt",
		"internal/pdp.Engine.DecideAt",
		"internal/pdp.Engine.DecideBatchAt",
		"internal/pdp.Engine.DecideScatterAt",
		"internal/resilience.StaleCache.DecideScatterAt",
	}
	wantInterfaces := []string{
		"internal/policy.Decider",
	}

	var methods, interfaces []string
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			pkg := filepath.ToSlash(filepath.Dir(path))
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv != nil && strings.HasPrefix(decl.Name.Name, "Decide") {
						methods = append(methods, pkg+"."+receiverType(decl.Recv.List[0].Type)+"."+decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok {
							continue
						}
						for _, m := range it.Methods.List {
							if len(m.Names) > 0 && strings.HasPrefix(m.Names[0].Name, "Decide") {
								interfaces = append(interfaces, pkg+"."+ts.Name.Name)
								break
							}
							if len(m.Names) == 0 && typeName(m.Type) == "policy.Decider" {
								interfaces = append(interfaces, pkg+"."+ts.Name.Name+" (embeds policy.Decider)")
								break
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(methods)
	slices.Sort(interfaces)
	if !slices.Equal(methods, wantMethods) {
		t.Errorf("Decide* methods:\n  %s\nwant:\n  %s", strings.Join(methods, "\n  "), strings.Join(wantMethods, "\n  "))
	}
	if !slices.Equal(interfaces, wantInterfaces) {
		t.Errorf("interfaces declaring or embedding a Decide* method:\n  %s\nwant:\n  %s", strings.Join(interfaces, "\n  "), strings.Join(wantInterfaces, "\n  "))
	}
}

// receiverType names a method receiver's type without its pointer star.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	return typeName(e)
}

// typeName renders an identifier or a package-qualified one.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return typeName(e.X) + "." + e.Sel.Name
	}
	return ""
}
