package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are written down. The harness reads
// it at run time instead of repeating it.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// ungated are end-to-end metrics BENCHMARK.json lists under per_layer,
// where the driver reports but does not gate them; `compare` still
// judges them, on untraced runs, with these bounds. op_p99_us is there
// because this machine cannot resolve it within the largest bound the
// contract allows (README, Run-to-run spread); the other two exist on
// one workload only, and end_to_end is flat: every metric on every
// workload.
var ungated = []struct {
	workload string // "" = every workload
	metricSpec
}{
	{"", metricSpec{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.25}},
	{"ckpt_failover", metricSpec{Name: "ckpt_objs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}},
	{"ckpt_failover", metricSpec{Name: "recover_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}},
}

// mustBeZero are the correctness counts: any value above zero fails the
// run (and `compare`).
var mustBeZero = []string{"fail_share", "acked_lost", "multi_incarnation"}

// value is one metric as the contract line and the results file carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run in a results file.
type record struct {
	Header     header                 `json:"header"`
	Workload   string                 `json:"workload"`
	Correct    bool                   `json:"correct"`
	Attempted  uint64                 `json:"attempted"`
	Failed     uint64                 `json:"failed"`
	Samples    uint64                 `json:"latency_samples"`
	Rates      []float64              `json:"window_ops_per_s"`
	P50s       []float64              `json:"window_p50_us"`
	P99s       []float64              `json:"window_p99_us"`
	Violations []string               `json:"violations,omitempty"`
	Metrics    map[string]value       `json:"metrics"`
	Spans      map[string]spanSummary `json:"spans,omitempty"`
}

// resultsFile is a set of runs: `-out` appends, `compare` reads two.
type resultsFile struct {
	Runs []record `json:"runs"`
}

func (s *benchSpec) unitOf(name string) string {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

func (r *run) record(m *measured, spec *benchSpec) *record {
	rec := &record{
		Header: r.header(m), Workload: r.workload,
		Correct:   m.failed == 0 && len(m.violations) == 0,
		Attempted: m.attempted, Failed: m.failed, Samples: m.samples, Rates: m.rates, P50s: m.p50s, P99s: m.p99s,
		Violations: m.violations, Metrics: make(map[string]value, len(m.metrics)), Spans: m.spans,
	}
	for name, v := range m.metrics {
		rec.Metrics[name] = value{Value: v, Unit: spec.unitOf(name)}
	}
	return rec
}

// declared returns the metrics the contract line carries for this kind
// of run: end to end from an untraced run, per layer from a traced one.
func (rec *record) declared(spec *benchSpec) []metricSpec {
	if rec.Header.Trace {
		return spec.PerLayer
	}
	return spec.EndToEnd
}

// contractLine is the last line of standard output: one JSON object
// with exactly correct, attempted, failed and metrics. A declared metric
// the run did not produce, or one that is not a finite number, is an
// error: the names in BENCHMARK.json and in the code must agree.
func (rec *record) contractLine(spec *benchSpec) (string, error) {
	metrics := make(map[string]value)
	for _, ms := range rec.declared(spec) {
		v, ok := rec.Metrics[ms.Name]
		if !ok {
			return "", fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", ms.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %q is not finite (%v)", ms.Name, v.Value)
		}
		metrics[ms.Name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	return string(line), err
}

// print writes the human-readable report: header, every metric by name
// with its unit, the span digest of a traced run.
func (rec *record) print(w io.Writer, spec *benchSpec) {
	h := rec.Header
	fmt.Fprintf(w, "legion-e2e %s  commit %s  %s  nproc %d  GOMAXPROCS %d (children %d)  callers %d (closed loop)\n",
		rec.Workload, h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.ChildMaxProcs, h.Callers)
	fmt.Fprintf(w, "seed %d  stream %s  windows %d x %gs  tracing %v\n", h.Seed, h.StreamDigest, h.Windows, h.WindowSeconds, h.Trace)
	fmt.Fprintf(w, "attempted %d  failed %d  latency samples %d\n", rec.Attempted, rec.Failed, rec.Samples)
	if rec.Samples < 1000 {
		fmt.Fprintln(w, "note: fewer than 10 samples lie beyond op_p99_us")
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", name, v.Value, v.Unit)
	}
	if rec.Header.Trace {
		fmt.Fprintf(w, "budget.coverage base: op_p50_us = %.4f us; trace.overhead_share base: untraced windows of this run\n",
			rec.Metrics["op_p50_us"].Value)
		spans := make([]string, 0, len(rec.Spans))
		for name := range rec.Spans {
			spans = append(spans, name)
		}
		sort.Strings(spans)
		for _, name := range spans {
			s := rec.Spans[name]
			fmt.Fprintf(w, "  span %-26s n=%-7d p50 %12.3f us  self p50 %12.3f us\n", name, s.Count, s.P50Us, s.SelfP50Us)
		}
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds rec to the set of runs at path (created if absent).
func appendResult(path string, rec *record) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, *rec)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
