// Command legion-e2e is the repository's benchmark of record: four named
// closed-loop workloads against the real code, end-to-end metrics from an
// untraced run, per-layer metrics and a span trace from a traced one.
// BENCHMARK.json at the repository root registers it; README.md in this
// directory is the glossary.
//
//	bash benchmark/run.sh -workload warm_mem -seed 1 -seconds 18 -trace 0
//	bash benchmark/run.sh compare a.json b.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// buildDir is where everything built or scratch lives, inside the
// checkout and ignored by git.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "op-stream seed")
	seconds := flag.Int("seconds", 24, "measured seconds (whole windows of 3 s)")
	trace := flag.Int("trace", 0, "1: record spans and run the per-layer probes")
	out := flag.String("out", "", "results JSON to append this run to (default benchmark/out/results.json)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := runMain(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "legion-e2e:", err)
		os.Exit(1)
	}
}

func runMain(workload string, seed uint64, seconds int, trace bool, out string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	tmpBase := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(tmpBase, 0o755); err != nil {
		return err
	}
	tmpRoot, err := os.MkdirTemp(tmpBase, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpRoot)
	r := &run{
		workload: workload, seed: seed, measure: time.Duration(seconds) * time.Second, trace: trace,
		callers: numCallers(), root: root, tmpRoot: tmpRoot,
		outDir: filepath.Join(root, "benchmark", "out"),
	}
	if out == "" {
		out = filepath.Join(r.outDir, "results.json")
	}

	// SIGINT/SIGTERM: children die with the process group's signal or
	// are killed here; the scratch directory goes either way.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		r.killTracked()
		os.RemoveAll(tmpRoot)
		os.Exit(130)
	}()

	m, err := r.execute()
	if err != nil {
		return err
	}
	rec := r.record(m, spec)
	rec.print(os.Stdout, spec)
	if err := appendResult(out, rec); err != nil {
		return fmt.Errorf("write %s: %w", out, err)
	}
	line, err := rec.contractLine(spec)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !rec.Correct {
		return errors.New("run is not correct: " + strings.Join(rec.Violations, "; "))
	}
	return nil
}

// findRoot walks up from the working directory to the checkout root:
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or above it")
		}
		dir = parent
	}
}

// goBuild builds pkg (relative to root) into out, with the Go build
// cache inside the checkout unless the environment already names one.
func goBuild(root, out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = root
	cmd.Env = os.Environ()
	if os.Getenv("GOCACHE") == "" {
		cmd.Env = append(cmd.Env, "GOCACHE="+filepath.Join(root, buildDir, "gocache"))
	}
	if outb, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, outb)
	}
	return nil
}

// commit names the checkout's commit, or "unknown" outside git (the
// driver's checkout is a plain directory).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	outb, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outb))
}

// header is what a results record says about where it was measured.
type header struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	ChildMaxProcs int     `json:"child_gomaxprocs"`
	Callers       int     `json:"callers"`
	Seed          uint64  `json:"seed"`
	Windows       int     `json:"windows"`
	WindowSeconds float64 `json:"window_s"`
	Trace         bool    `json:"trace"`
	StreamDigest  string  `json:"stream_digest"`
	When          string  `json:"when"`
}

func (r *run) header(m *measured) header {
	return header{
		Commit: commit(r.root), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), ChildMaxProcs: childProcs(), Callers: r.callers,
		Seed: r.seed, Windows: len(m.rates), WindowSeconds: m.windowSecs, Trace: r.trace,
		StreamDigest: fmt.Sprintf("%016x", m.digest), When: time.Now().UTC().Format(time.RFC3339),
	}
}
