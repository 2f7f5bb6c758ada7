package repro

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// servingDeps pins the exact in-repo dependency closure (module prefix
// stripped, binary included) of each serving binary: a daemon links only
// what it serves. The router reaches dispatch, and through it the solver
// kernels, only via wire's SessionSnapshot alias.
var servingDeps = map[string]string{
	"cmd/schedd": `cmd/schedd internal/alloc internal/breaker internal/check
		internal/cliflag internal/core internal/dispatch internal/fallback internal/fault
		internal/feas internal/ideal internal/interval internal/journal internal/maxflow
		internal/metric internal/numeric internal/online internal/opt internal/pack
		internal/partition internal/power internal/schedule internal/server
		internal/server/wire internal/sim internal/task internal/trace internal/yds`,
	"cmd/schedrouter": `cmd/schedrouter internal/breaker internal/check internal/cliflag
		internal/cluster internal/dispatch internal/feas internal/interval internal/maxflow
		internal/metric internal/numeric internal/opt internal/pack internal/power
		internal/schedule internal/server/wire internal/sim internal/task`,
}

// repoDeps returns the in-repo dependency closure of the package in
// dir, binary included, module prefix stripped. It reads the sources
// itself rather than asking the go command, so the test cache sees
// every file it depends on.
func repoDeps(t *testing.T, dir string) []string {
	t.Helper()
	seen := map[string]bool{}
	var walk func(string)
	walk = func(dir string) {
		if seen[dir] {
			return
		}
		seen[dir] = true
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if rel, ok := strings.CutPrefix(imp, "repro/"); ok {
				walk(rel)
			}
		}
	}
	walk(dir)
	deps := make([]string, 0, len(seen))
	for d := range seen {
		deps = append(deps, d)
	}
	slices.Sort(deps)
	return deps
}

// TestServingBinaryImports fails naming each package that joins a serving
// binary's dependency set, and each pinned package that left it (tighten
// the pin in the change that shrinks the graph).
func TestServingBinaryImports(t *testing.T) {
	for dir, pinned := range servingDeps {
		want, got := strings.Fields(pinned), repoDeps(t, dir)
		for _, p := range got {
			if !slices.Contains(want, p) {
				t.Errorf("%s now depends on %s; a serving binary links only what it serves", dir, p)
			}
		}
		for _, p := range want {
			if !slices.Contains(got, p) {
				t.Errorf("%s no longer depends on %s; remove it from the pin", dir, p)
			}
		}
	}
}
