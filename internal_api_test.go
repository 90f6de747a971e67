package hetgrid

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// kept lists, per package directory, the exported functions and methods
// that stay although no caller outside the package names them, each with
// the reason. Every package under internal/ and the facade (".") is fenced
// whether or not it has an entry here.
var kept = map[string]map[string]string{
	"internal/matrix": {
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
	},
	"internal/engine": {
		// Methods of an interface, reached through it.
		"CloseCause": "CauseCloser's method: the engine closes its fabric through the interface",
		"Unwrap":     "error's unwrap method: errors.Is and errors.As call it",
	},
	"internal/core": {
		"Solve2x2Exact": "the independently coded 2×2 closed form the general exact solver is compared with",
		"Feasible":      "the constraint check r_i·t_ij·c_j ≤ 1 tests apply to every solver's and planning path's output",
	},
	"internal/distribution": {
		// The closed-form reference the engine's flat-broadcast counters
		// and the simulator's counters are tested equal to.
		"MMCommVolume":       "closed-form MatMul traffic, compared with engine and simulator counters",
		"LUCommVolume":       "closed-form LU traffic, compared with engine and simulator counters",
		"CholeskyCommVolume": "closed-form Cholesky traffic, compared with engine and simulator counters",
		"QRCommVolume":       "closed-form QR traffic, compared with the engine's counters",
		"MasterVolume":       "closed-form scatter and gather traffic, compared with the engine's counters",
	},
	"internal/grid": {
		// References tests compare an implementation with.
		"EnumerateAll":    "Theorem 1's brute force: the optimum over every arrangement is compared with the non-decreasing ones' optimum",
		"HookLengthCount": "the closed-form count EnumerateNonDecreasing's count is compared with",
		// Property checks the solver's tests apply to its output.
		"IsNonDecreasing": "the canonical-form property core's tests check on solver output",
		"Transpose":       "the symmetry core's tests check solver output under",
	},
	"internal/kernels": {
		"LUOpCounts":       "the simulator's LU charging rule, compared with the replay's and engine's attributed operations",
		"CholeskyOpCounts": "the simulator's Cholesky charging rule, compared with the replay's and engine's attributed operations",
	},
	"internal/leakcheck": {
		"Settle": "the tests' one goroutine-leak check; only tests call it, in four packages and the facade's conformance matrix",
	},
	"internal/obs": {
		"WriteTo": "io.WriterTo's method; the package's own /metrics handler renders through it",
	},
	"internal/onedim": {
		"BruteForceAllocate":   "the exhaustive search Sequence's counts are compared with",
		"BruteForceLUSequence": "the exhaustive search LUSequence's cost is compared with",
	},
	"internal/run": {
		// The TCP suites of internal/engine/net drive the supervisor's
		// steps on every process themselves, as a multi-process
		// coordinator will.
		"Attempt": "one attempt on one process's partial fabric, driven by the TCP suites in internal/engine/net",
		"Next":    "the pure transition the TCP drift-chaos suite applies between its attempts",
		"StartK":  "the resume step the TCP drift-chaos suite checks after each transition",
		"Fold":    "folds an attempt's statistics in the TCP drift-chaos suite",
		"Advance": "carries the statistics across a transition in the TCP drift-chaos suite",
	},
	"internal/service": {
		"Read": "limitedReader's io.Reader method: the JSON decoder reads the body through the interface",
	},
}

// callersOf returns whether a non-test file in dir may count as a caller of
// the package in fenced. Any other directory calls an internal package; the
// facade's callers are the programs and the benchmark, since internal
// packages cannot import it and its own tests do not count.
func callersOf(fenced, dir string) bool {
	if dir == fenced {
		return false
	}
	if fenced != "." {
		return true
	}
	for _, top := range []string{"cmd", "examples", "bench", "README.md"} {
		if dir == top || strings.HasPrefix(dir, top+"/") {
			return true
		}
	}
	return false
}

// TestExportedAPIIsReached holds every package under internal/ and the
// facade to one rule: each exported function and method is named by a
// selector in some non-test file that may call it (see callersOf) — for
// the facade, README.md's Go blocks count too — or is listed in kept with
// the reason it stays. It exists so that what no execution path reaches —
// a tier of whole-matrix routines beside the per-block kernels, a second
// entry point to a kernel, a collective nothing calls — cannot grow back
// silently, in a package that exists today or one added later.
//
// A package-level function is reached only through a selector pkg.Name
// whose pkg is the calling file's import name for its package (alias or
// default), so a same-named function of another package does not hide it.
// A method is matched by identifier, not by type: a method called At is
// "reached" by any x.At anywhere. That makes this a fence against drift,
// not a proof of reachability.
func TestExportedAPIIsReached(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// The non-test files by the directory they are in, each package's name,
	// the exported functions and methods each package under internal/ and
	// the facade declares, and every exported package-level name of the
	// facade.
	files := map[string][]*ast.File{}
	pkgNames := map[string]string{}
	funcs := map[string]map[string]bool{".": {}}
	methods := map[string]map[string]bool{".": {}}
	facade := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Build output (.bench_build holds the benchmark's Go cache),
			// VCS data and fuzz corpora hold no callers.
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		f := parse(path)
		files[dir] = append(files[dir], f)
		pkgNames[dir] = f.Name.Name
		if dir == "." || strings.HasPrefix(dir, "internal/") {
			if funcs[dir] == nil {
				funcs[dir], methods[dir] = map[string]bool{}, map[string]bool{}
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					if fn.Recv == nil {
						funcs[dir][fn.Name.Name] = true
					} else {
						methods[dir][fn.Name.Name] = true
					}
				}
			}
		}
		if dir == "." {
			packageNames(f, facade)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// README's Go blocks are callers of the facade.
	files["README.md"] = readmeGoBlocks(t, fset, facade)

	// The selectors of each caller: every selected identifier, and every
	// pkg.Name resolved to the directory of the package pkg imports, as
	// "dir.Name".
	selectedIn := map[string]map[string]bool{}
	qualifiedIn := map[string]map[string]bool{}
	for caller, parsed := range files {
		selected, qualified := map[string]bool{}, map[string]bool{}
		for _, f := range parsed {
			imported := map[string]string{}
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				dir, ok := strings.CutPrefix(path, "hetgrid/")
				if path == "hetgrid" {
					dir, ok = ".", true
				}
				if !ok {
					continue
				}
				name := pkgNames[dir]
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imported[name] = dir
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					selected[sel.Sel.Name] = true
					if x, ok := sel.X.(*ast.Ident); ok && imported[x.Name] != "" {
						qualified[imported[x.Name]+"."+sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		selectedIn[caller], qualifiedIn[caller] = selected, qualified
	}

	for dir := range kept {
		if funcs[dir] == nil {
			t.Errorf("kept lists %s, which is not a package under internal/ or the facade", dir)
		}
	}
	dirs := make([]string, 0, len(funcs))
	for dir := range funcs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		pkg := filepath.Base(dir)
		if dir == "." {
			pkg = "hetgrid"
		}
		t.Run(pkg, func(t *testing.T) {
			reached := func(name string, by map[string]map[string]bool, key string) bool {
				if kept[dir][name] != "" {
					return true
				}
				for caller, selected := range by {
					if callersOf(dir, caller) && selected[key] {
						return true
					}
				}
				return false
			}
			var unreached []string
			for name := range funcs[dir] {
				if !reached(name, qualifiedIn, dir+"."+name) {
					unreached = append(unreached, name)
				}
			}
			for name := range methods[dir] {
				if !reached(name, selectedIn, name) {
					unreached = append(unreached, name)
				}
			}
			sort.Strings(unreached)
			for _, name := range slices.Compact(unreached) {
				t.Errorf("%s.%s is exported, but no non-test file that may call it names it and it is not listed as kept: delete it, unexport it, or record why it stays", pkg, name)
			}
			for name := range kept[dir] {
				if !funcs[dir][name] && !methods[dir][name] {
					t.Errorf("%s.%s is listed as kept, but the package exports no such function or method", pkg, name)
				}
			}
		})
	}
}

// readmeGoBlocks parses each ```go block of README.md — its import lines
// at file level, the rest as a function body — and fails the test on a
// block that does not parse or a hetgrid.X that is not among the facade's
// exported names, so README cannot show deleted API.
func readmeGoBlocks(t *testing.T, fset *token.FileSet, facade map[string]bool) []*ast.File {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := regexp.MustCompile("(?s)```go\n(.*?)```").FindAllStringSubmatch(string(readme), -1)
	if len(blocks) == 0 {
		t.Error("README.md has no Go block")
	}
	var files []*ast.File
	for i, m := range blocks {
		var imports, body []string
		for _, line := range strings.Split(m[1], "\n") {
			if strings.HasPrefix(line, "import ") {
				imports = append(imports, line)
			} else {
				body = append(body, line)
			}
		}
		src := "package readme\n" + strings.Join(imports, "\n") + "\nfunc _() {\n" + strings.Join(body, "\n") + "\n}\n"
		f, err := parser.ParseFile(fset, fmt.Sprintf("README.md Go block %d", i+1), src, parser.SkipObjectResolution)
		if err != nil {
			t.Errorf("README.md's Go block %d does not parse: %v", i+1, err)
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "hetgrid" && !facade[sel.Sel.Name] {
					t.Errorf("README.md's Go block %d names hetgrid.%s, which the facade does not export", i+1, sel.Sel.Name)
				}
			}
			return true
		})
		files = append(files, f)
	}
	return files
}

// packageNames adds the exported package-level names f declares — types,
// functions, constants and variables — to into.
func packageNames(f *ast.File, into map[string]bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				into[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						into[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							into[n.Name] = true
						}
					}
				}
			}
		}
	}
}
