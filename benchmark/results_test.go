package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testSpec(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

// TestSpecAndWorkloadsAgree: BENCHMARK.json and the code name the same
// workloads, and no metric name is declared twice.
func TestSpecAndWorkloadsAgree(t *testing.T) {
	spec, _ := testSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workloadNames[i])
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range ungated {
		if spec.unitOf(m.Name) != m.Unit {
			t.Errorf("ungated metric %q: unit %q here, %q in BENCHMARK.json", m.Name, m.Unit, spec.unitOf(m.Name))
		}
	}
	for _, name := range mustBeZero {
		if !seen[name] {
			t.Errorf("count %q that must stay zero is not declared", name)
		}
	}
}

func TestContractLineNeedsEveryDeclaredMetric(t *testing.T) {
	spec, _ := testSpec(t)
	rec := &record{Workload: "warm_mem", Correct: true, Attempted: 10, Metrics: make(map[string]value)}
	for _, m := range spec.EndToEnd {
		rec.Metrics[m.Name] = value{Value: 1.5, Unit: m.Unit}
	}
	line, err := rec.contractLine(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool            `json:"correct"`
		Attempted *uint64          `json:"attempted"`
		Failed    *uint64          `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != len(spec.EndToEnd) {
		t.Errorf("contract line %s", line)
	}
	delete(rec.Metrics, "setup_s")
	if _, err := rec.contractLine(spec); err == nil {
		t.Error("a missing declared metric must be an error")
	}
	rec.Metrics["setup_s"] = value{Value: math.NaN(), Unit: "s"}
	if _, err := rec.contractLine(spec); err == nil {
		t.Error("a NaN metric must be an error")
	}
}

func TestResultsFileAppendsAndRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "set.json")
	for i := 0; i < 3; i++ {
		rec := &record{Workload: "warm_mem", Correct: true, Attempted: uint64(i + 1),
			Header:  header{Seed: uint64(i), When: time.Now().UTC().Format(time.RFC3339)},
			Metrics: map[string]value{"ops_per_s": {Value: 1000 + float64(i), Unit: "1/s"}},
			Spans:   map[string]spanSummary{"gen.op": {Count: 3, P50Us: 1.5, SelfP50Us: 0.5}}}
		if err := appendResult(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	f, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 3 || f.Runs[2].Attempted != 3 || f.Runs[1].Metrics["ops_per_s"].Value != 1001 || f.Runs[0].Spans["gen.op"].Count != 3 {
		t.Errorf("read back %+v", f.Runs)
	}
	if got := valuesOf(f, "warm_mem", "ops_per_s"); len(got) != 3 {
		t.Errorf("valuesOf = %v", got)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	for _, tc := range []struct {
		ms   metricSpec
		a, b []float64
		want string
	}{
		{lower, tight(100), tight(103), same},
		{lower, tight(100), tight(120), worse},
		{lower, tight(100), tight(80), better},
		{higher, tight(100), tight(80), worse},
		{higher, tight(100), tight(120), better},
		{higher, tight(100), tight(95), same},
		// The sets disagree with themselves by more than the bound:
		// nothing can be said about the difference between them.
		{lower, []float64{60, 80, 100, 120, 140}, tight(130), unresolved},
	} {
		if got := judge(tc.ms, tc.a, tc.b); got.verdict != tc.want {
			t.Errorf("%s a=%v b=%v: %s, want %s (row %+v)", tc.ms.Name, tc.a, tc.b, got.verdict, tc.want, got)
		}
	}
}

func TestCompareFlagsNonZeroCounts(t *testing.T) {
	spec, _ := testSpec(t)
	mk := func(failShare float64, traced bool) *resultsFile {
		f := &resultsFile{}
		for i := 0; i < 5; i++ {
			m := map[string]value{"fail_share": {Value: failShare}}
			for _, ms := range spec.EndToEnd {
				m[ms.Name] = value{Value: 100 + float64(i)*0.1, Unit: ms.Unit}
			}
			f.Runs = append(f.Runs, record{Workload: "warm_mem", Header: header{Trace: traced}, Metrics: m})
		}
		return f
	}
	rows := compareFiles(spec, mk(0, false), mk(0, false))
	if len(rows) != len(spec.EndToEnd)+1 {
		t.Fatalf("%d rows, want %d", len(rows), len(spec.EndToEnd)+1)
	}
	for _, r := range rows {
		if r.verdict != same {
			t.Errorf("identical sets: %+v", r)
		}
	}
	bad := compareFiles(spec, mk(0, false), mk(0.001, false))
	if last := bad[len(bad)-1]; last.metric != "fail_share" || last.verdict != worse {
		t.Errorf("failures in b not flagged: %+v", last)
	}
	if rows := compareFiles(spec, mk(0, true), mk(0, true)); len(rows) != 0 {
		t.Errorf("traced runs must not feed end-to-end rows: %+v", rows)
	}
}
