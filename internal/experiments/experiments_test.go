package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// tier1 lists the claims that only the tests run, each at the
// configuration EXPERIMENTS.md publishes. Their runs take under a
// second each, so they need no Quick variant and no place in
// legion-bench; All keeps the timed and scale claims.
var tier1 = []struct {
	ID  string
	Run func() (*Table, error)
}{
	{"E1", runE1},
	{"E2", runE2},
	{"E3", runE3},
	{"E4", runE4},
	{"E5", runE5},
	{"E6", runE6},
	{"E7", runE7},
	{"E8", runE8},
	{"E9", runE9},
	{"E10", runE10},
	{"E11", runE11},
	{"E12", runE12},
	{"E13", runE13},
	{"E14", runE14},
	{"E20", runE20},
	{"E21", runE21},
}

// TestAllQuick runs every claim, the ones in All at Quick scale and the
// tier1 ones at their published configuration, and checks the
// structural invariants of the produced tables: rows exist, column
// arity matches, and the paper-claim verdict is positive ("holds"). A
// tier1 claim logs its table, so -v prints the numbers EXPERIMENTS.md
// quotes.
//
// E15 and E17 judge single-call latencies against a model, so they run
// alone first: sharing the CPUs with E16's churn stretches every
// simulated hop (E15 read 2.1x its hop model so). The others then run
// in parallel.
func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-heavy")
	}
	alone := map[string]bool{"E15": true, "E17": true}
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			if !alone[r.ID] {
				t.Parallel()
			}
			checkTable(t, r.ID, func() (*Table, error) { return r.Run(Quick) })
		})
	}
	for _, r := range tier1 {
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			t.Log("\n" + checkTable(t, r.ID, r.Run).Format())
		})
	}
}

// checkTable runs one claim and fails t unless its table is well
// formed and its verdict holds.
func checkTable(t *testing.T, id string, run func() (*Table, error)) *Table {
	t.Helper()
	tbl, err := run()
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	if tbl.ID != id {
		t.Errorf("table id %q, runner %q", tbl.ID, id)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Errorf("row %d has %d cells, %d columns", i, len(row), len(tbl.Columns))
		}
	}
	if tbl.Claim == "" || tbl.Title == "" {
		t.Error("missing claim/title")
	}
	if !strings.HasPrefix(tbl.Finding, "holds") {
		t.Errorf("claim did not hold: %s", tbl.Finding)
	}
	out := tbl.Format()
	if !strings.Contains(out, tbl.ID) || !strings.Contains(out, "Finding:") {
		t.Errorf("Format output malformed:\n%s", out)
	}
	return tbl
}

func TestFind(t *testing.T) {
	if r := Find("E19"); r == nil || r.ID != "E19" {
		t.Error("Find by id failed")
	}
	if r := Find("live-migration"); r == nil || r.ID != "E19" {
		t.Error("Find by name failed")
	}
	if r := Find("e22"); r == nil {
		t.Error("Find case-insensitive failed")
	}
	if Find("E99") != nil {
		t.Error("Find invented an experiment")
	}
	if Find("E3") != nil {
		t.Error("Find returned a claim that only the tests run")
	}
}

func TestHelpers(t *testing.T) {
	if us(1500*time.Nanosecond) != "1.5µs" {
		t.Errorf("us = %q", us(1500*time.Nanosecond))
	}
	if per1k(5, 0) != "n/a" || per1k(5, 1000) != "5.0" {
		t.Error("per1k wrong")
	}
	if byteSize(0) != "0B" || byteSize(2048) != "2KiB" || byteSize(1<<21) != "2MiB" {
		t.Error("byteSize wrong")
	}
}

func per1k(count uint64, refs int) string {
	if refs == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", float64(count)*1000/float64(refs))
}
