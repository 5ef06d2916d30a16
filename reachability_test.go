package stemroot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the exported functions under internal/ that no
// non-test file calls, and why each stays. TestEveryExportHasACaller fails
// when an entry gains a caller or disappears, so the list cannot rot.
var callerAllowlist = map[string]string{
	"core.Plan.SimTimeEstimate": "estimator the core tests score plans with",
	"gpu.Simulator.RunSpecs":    "helper the engine goldens are recorded through",
	"kernelgen.DefaultLimits":   "limits the engine goldens are recorded under",
	"kernelgen.Spec.NewStream":  "allocating twin of InitStream the engine oracle's reference loop draws from",
}

// stdlibMethods are satisfied-by-name standard-library interfaces (fmt,
// error, sort, heap, flag, io): their callers live outside this tree.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Set": true, "Read": true, "Write": true, "Close": true,
}

// TestEveryExportHasACaller is the name-based floor of the rule "reachable
// from a binary, an example or the public package": every exported
// function or method declared under internal/ must be named in some
// non-test file other than at a function declaration, or be on
// callerAllowlist with a reason. Name-based means a same-named identifier
// anywhere counts, so it under-reports; it never flags reachable code.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // qualified name → position
	used := map[string]bool{}       // bare identifier → named outside a func declaration
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if !strings.HasPrefix(filepath.ToSlash(path), "internal/") || !fn.Name.IsExported() {
				continue
			}
			q := f.Name.Name + "."
			if fn.Recv != nil {
				if stdlibMethods[fn.Name.Name] {
					continue
				}
				q += recvName(fn.Recv.List[0].Type) + "."
			}
			declared[q+fn.Name.Name] = fset.Position(fn.Pos()).String()
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) < 100 {
		t.Fatalf("walked only %d exported functions under internal/: run from the module root", len(declared))
	}
	var bad []string
	for q, pos := range declared {
		has := used[q[strings.LastIndexByte(q, '.')+1:]]
		_, listed := callerAllowlist[q]
		switch {
		case !has && !listed:
			bad = append(bad, pos+": "+q+" has no caller outside tests: delete it, or allowlist it with a reason")
		case has && listed:
			bad = append(bad, pos+": "+q+" is allowlisted but now has a caller: drop the entry")
		}
	}
	for q := range callerAllowlist {
		if _, ok := declared[q]; !ok {
			bad = append(bad, "allowlist: "+q+" is no longer declared: drop the entry")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	if len(callerAllowlist) > 25 {
		t.Errorf("allowlist holds %d names; the ceiling is 25", len(callerAllowlist))
	}
}

// recvName unwraps *T and T[P] down to the receiver's type name.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	}
	return e.(*ast.Ident).Name
}
