package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wallClockFuncs are the package time functions that read the wall
// clock or arm a wall timer.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "AfterFunc": true, "NewTimer": true,
	"After": true, "NewTicker": true, "Sleep": true,
}

// wallClockUses lists every non-test file under internal/ and cmd/,
// outside this package, that uses wallClockFuncs directly, with how
// many uses it may have. Time taken through a Clock is not counted, so
// a virtual-clock deployment sees none of these. A file missing here,
// or over its count, fails TestWallClockUsesAllowlisted; a count that
// falls may be lowered here.
var wallClockUses = map[string]int{
	"cmd/legion-bench/main.go":     2,
	"cmd/legion/main.go":           2,
	"internal/binding/cache.go":    1,
	"internal/experiments/e15.go":  2,
	"internal/experiments/e18.go":  4,
	"internal/experiments/e19.go":  9,
	"internal/health/health.go":    1,
	"internal/obs/obs.go":          1,
	"internal/obs/plane.go":        4,
	"internal/persist/segstore.go": 1,
	"internal/persist/store.go":    1,
	"internal/rt/caller.go":        1,
	"internal/rt/impl.go":          1,
	"internal/rt/node.go":          2,
	"internal/sim/chaos.go":        3,
	"internal/sim/workload.go":     6,
	"internal/trace/trace.go":      4,
	"internal/transport/mem.go":    2,
	"internal/transport/tcp.go":    1,
}

// TestWallClockUsesAllowlisted holds the wall clock to the files that
// use it today: new code takes its time from a clock.Clock.
func TestWallClockUsesAllowlisted(t *testing.T) {
	got := map[string]int{}
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == "../../internal/clock" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			n, err := countWallClockUses(path)
			if n > 0 {
				got[strings.TrimPrefix(filepath.ToSlash(path), "../../")] = n
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	files := make([]string, 0, len(got))
	for f := range got {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		n := got[f]
		switch want, ok := wallClockUses[f]; {
		case !ok:
			t.Errorf("%s uses the wall clock %d times; take time from a clock.Clock", f, n)
		case n > want:
			t.Errorf("%s uses the wall clock %d times, %d allowed", f, n, want)
		case n < want:
			t.Logf("%s uses the wall clock %d times; its allowance of %d may be lowered", f, n, want)
		}
	}
}

// countWallClockUses counts the references to wallClockFuncs in the Go
// file at path, through whatever name the file imports time under.
func countWallClockUses(path string) (int, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	name := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			name = "time"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return 0, nil
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if sel, ok := node.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name && wallClockFuncs[sel.Sel.Name] {
				n++
			}
		}
		return true
	})
	return n, nil
}
