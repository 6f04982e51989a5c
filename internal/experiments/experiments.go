// Package experiments implements the evaluation harness. The paper is
// a design document with no measured tables or figures, so each
// experiment here reproduces a *claim*: the binding-cost hierarchy of
// Fig 17, the distributed-systems principle and combining-tree argument
// of §5, class cloning, stale-binding recovery, object lifecycle and
// replication semantics. DESIGN.md carries the full experiment index;
// EXPERIMENTS.md records claim vs. measured outcome. cmd/legion-bench
// prints these tables.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Scale selects how big an experiment runs.
type Scale int

const (
	// Quick keeps every experiment under a couple of seconds; used by
	// tests and -quick harness runs.
	Quick Scale = iota
	// Full is the EXPERIMENTS.md configuration.
	Full
)

// Table is one experiment's regenerated result.
type Table struct {
	ID      string // e.g. "E3"
	Title   string
	Claim   string // the paper claim being validated, with section
	Columns []string
	Rows    [][]string
	// Finding summarizes whether the claim held in this run.
	Finding string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "Claim: %s\n\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Finding != "" {
		fmt.Fprintf(&sb, "\nFinding: %s\n", t.Finding)
	}
	return sb.String()
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(scale Scale) (*Table, error)
}

// All lists every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "binding-path", RunE1},
		{"E2", "cache-sweep", RunE2},
		{"E3", "combining-tree", RunE3},
		{"E4", "class-cloning", RunE4},
		{"E5", "stale-bindings", RunE5},
		{"E6", "lifecycle", RunE6},
		{"E7", "replication", RunE7},
		{"E8", "creation", RunE8},
		{"E9", "system-scale", RunE9},
		{"E10", "class-location", RunE10},
		{"E11", "inheritance", RunE11},
		{"E12", "security", RunE12},
		{"E13", "propagation-ablation", RunE13},
		{"E14", "scheduling-ablation", RunE14},
		{"E15", "wide-area-latency", RunE15},
		{"E16", "fault-churn", RunE16},
		{"E17", "trace-attribution", RunE17},
		{"E18", "crash-recovery", RunE18},
		{"E19", "live-migration", RunE19},
		{"E20", "observability", RunE20},
		{"E21", "segment-store", RunE21},
		{"E22", "des-scale", RunE22},
	}
}

// Find returns the runner with the given id (case-insensitive), or nil.
func Find(id string) *Runner {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) || strings.EqualFold(r.Name, id) {
			return &r
		}
	}
	return nil
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
}

func ratio(a, b uint64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

func per1k(count uint64, refs int) string {
	if refs == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", float64(count)*1000/float64(refs))
}
