package matrix

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

// references are kept although no execution path calls them: surviving
// tests compare the implementation that runs against them.
var references = map[string]string{
	"AddMulScalar":         "the ikj loop the packed Strict GEMM is bit-compared with",
	"AddMulScalarFMA":      "the math.FMA loop the packed Fast GEMM is bit-compared with",
	"SolveLowerUnitScalar": "the substitution the blocked forward solve is bit-compared with",
	"SolveUpperScalar":     "the substitution the blocked backward solve is compared with",
}

// valueAPI are the leaves of the Dense value type that users of the facade
// reach through the hetgrid.Matrix alias and that other packages' tests
// build inputs and comparisons from; none is a second implementation of
// anything.
var valueAPI = map[string]string{
	"NewFromRows":   "literal construction of a small matrix",
	"EqualApprox":   "comparison of a result with a reference to a tolerance",
	"FrobeniusNorm": "norm of a matrix or residual",
	"InfNorm":       "norm of a matrix or residual",
	"OneNorm":       "norm of a matrix or residual",
	"SwapRows":      "row permutation in place",
	"RandomRank1":   "generator of the perfectly balanceable rank-1 case, used by internal/svd's tests",
}

// TestExportedAPIIsReached: every exported function and method of this
// package is named by a selector in some non-test file outside it — the
// engine, the kernels, the facade, cmd/, examples/, bench/ — or is listed
// above with its reason. It exists so that a tier of whole-matrix routines no
// execution path reaches cannot grow back beside the per-block kernels.
//
// The match is by identifier, not by type: a method called At is "reached"
// by any x.At anywhere. That makes this a fence against drift, not a proof of
// reachability.
func TestExportedAPIIsReached(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	nonTestGo := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}

	here, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, path := range here {
		if !nonTestGo(path) {
			continue
		}
		for _, d := range parse(path).Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				exported[fn.Name.Name] = true
			}
		}
	}

	const root, self = "../..", "../../internal/matrix"
	selected := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Build output (.bench_build holds the benchmark's Go cache),
			// VCS data and this package itself do not count as callers.
			if path == self || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !nonTestGo(d.Name()) {
			return nil
		}
		ast.Inspect(parse(path), func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selected[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unreached []string
	for name := range exported {
		if !selected[name] && references[name] == "" && valueAPI[name] == "" {
			unreached = append(unreached, name)
		}
	}
	sort.Strings(unreached)
	for _, name := range unreached {
		t.Errorf("matrix.%s is exported, but no non-test file outside the package names it and it is in neither list: delete it, or record why it stays", name)
	}
	for _, list := range []map[string]string{references, valueAPI} {
		for name := range list {
			if !exported[name] {
				t.Errorf("%s is listed as kept, but the package exports no such function or method", name)
			}
		}
	}
}
