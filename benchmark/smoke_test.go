package main

import (
	"math"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs each workload for one short traced window
// in this process (procs_tcp builds and spawns real legiond children)
// and checks the names: every metric BENCHMARK.json declares is
// measured and finite, and every metric measured is declared. Nothing
// here asserts a timing.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, root := testSpec(t)
	declared := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = true
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := &run{workload: name, seed: 5, measure: 2 * time.Second, trace: true, quick: true,
				callers: numCallers(), root: root, tmpRoot: t.TempDir(), outDir: t.TempDir()}
			m, err := r.execute()
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || len(m.violations) != 0 || m.attempted == 0 {
				t.Fatalf("attempted %d failed %d violations %v", m.attempted, m.failed, m.violations)
			}
			rec := r.record(m, spec)
			for _, traced := range []bool{false, true} {
				rec.Header.Trace = traced
				if _, err := rec.contractLine(spec); err != nil {
					t.Error(err)
				}
			}
			for name, v := range m.metrics {
				if !declared[name] {
					t.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %q = %v", name, v)
				}
			}
			for _, ms := range spec.EndToEnd {
				if m.metrics[ms.Name] <= 0 {
					t.Errorf("end-to-end metric %q = %v, must never be 0", ms.Name, m.metrics[ms.Name])
				}
			}
			if len(m.spans) == 0 || m.spans["gen.op"].Count == 0 || m.spans["rt.call"].Count == 0 {
				t.Errorf("traced run recorded spans %+v", m.spans)
			}
			r.mu.Lock()
			left := len(r.procs)
			r.mu.Unlock()
			if left != 0 {
				t.Errorf("%d child processes not reaped", left)
			}
		})
	}
}
