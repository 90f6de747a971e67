package hetgrid

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

// apiFences are the internal packages whose exported functions and methods
// must each be named by a selector in some non-test file outside the
// package — another internal package, the facade, cmd/, examples/, bench/
// — or be listed here with the reason they stay.
var apiFences = []struct {
	dir  string
	kept map[string]string
}{
	{"internal/matrix", map[string]string{
		// References no execution path calls: surviving tests compare the
		// implementation that runs against them.
		"AddMulScalar":         "the ikj loop the packed Strict GEMM is bit-compared with",
		"AddMulScalarFMA":      "the math.FMA loop the packed Fast GEMM is bit-compared with",
		"SolveLowerUnitScalar": "the substitution the blocked forward solve is bit-compared with",
		"SolveUpperScalar":     "the substitution the blocked backward solve is compared with",
		// Leaves of the Dense value type that users of the facade reach
		// through the hetgrid.Matrix alias and that other packages' tests
		// build inputs and comparisons from; none is a second
		// implementation of anything.
		"NewFromRows":   "literal construction of a small matrix",
		"EqualApprox":   "comparison of a result with a reference to a tolerance",
		"FrobeniusNorm": "norm of a matrix or residual",
		"InfNorm":       "norm of a matrix or residual",
		"OneNorm":       "norm of a matrix or residual",
		"SwapRows":      "row permutation in place",
		"RandomRank1":   "generator of the perfectly balanceable rank-1 case, used by internal/svd's tests",
	}},
	{"internal/engine", map[string]string{
		// Methods of an interface, reached through it.
		"CloseCause": "CauseCloser's method: the engine closes its fabric through the interface",
		"Unwrap":     "error's unwrap method: errors.Is and errors.As call it",
	}},
	{"internal/core", map[string]string{
		"Solve2x2Exact": "the independently coded 2×2 closed form the general exact solver is compared with",
	}},
	{"internal/plan", nil},
	{"internal/plancache", nil},
	{"internal/service", map[string]string{
		"Read": "limitedReader's io.Reader method: the JSON decoder reads the body through the interface",
	}},
}

// TestExportedAPIIsReached holds each package of apiFences to its rule. It
// exists so that what no execution path reaches — a tier of whole-matrix
// routines beside the per-block kernels, a second entry point to a kernel,
// a collective nothing calls — cannot grow back silently.
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

	// The selectors of every non-test file, by the directory it is in.
	selectedIn := map[string]map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Build output (.bench_build holds the benchmark's Go cache) and
			// VCS data do not count as callers.
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !nonTestGo(d.Name()) {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if selectedIn[dir] == nil {
			selectedIn[dir] = map[string]bool{}
		}
		ast.Inspect(parse(path), func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selectedIn[dir][sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, fence := range apiFences {
		t.Run(filepath.Base(fence.dir), func(t *testing.T) {
			here, err := filepath.Glob(filepath.Join(fence.dir, "*.go"))
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
			var unreached []string
			for name := range exported {
				reached := fence.kept[name] != ""
				for dir, selected := range selectedIn {
					reached = reached || dir != fence.dir && selected[name]
				}
				if !reached {
					unreached = append(unreached, name)
				}
			}
			sort.Strings(unreached)
			for _, name := range unreached {
				t.Errorf("%s.%s is exported, but no non-test file outside the package names it and it is not listed as kept: delete it, unexport it, or record why it stays", filepath.Base(fence.dir), name)
			}
			for name := range fence.kept {
				if !exported[name] {
					t.Errorf("%s is listed as kept, but the package exports no such function or method", name)
				}
			}
		})
	}
}
