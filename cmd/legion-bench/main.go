// Command legion-bench regenerates the timed tables of EXPERIMENTS.md:
// E15–E19. The paper ("The Core Legion Object Model") publishes no
// measured tables; each experiment validates one of its claim-bearing
// sections instead. The other claims are checked by tier-1 tests, and
// E22's fan-in capacities by two Go benchmarks — see DESIGN.md for the
// index.
//
// Usage:
//
//	legion-bench                 # run every experiment at full scale
//	legion-bench -quick          # fast pass (same configurations the tests use)
//	legion-bench -run E15,E19    # selected experiments
//	legion-bench -list           # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-scale configurations")
	run := flag.String("run", "", "comma-separated experiment ids or names (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}

	var runners []experiments.Runner
	if *run == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			r := experiments.Find(strings.TrimSpace(id))
			if r == nil {
				fmt.Fprintf(os.Stderr, "legion-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, *r)
		}
	}

	failed := 0
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (%s) failed: %v\n", r.ID, r.Name, err)
			failed++
			continue
		}
		fmt.Println(tbl.Format())
		fmt.Printf("(%s completed in %s)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		if !strings.HasPrefix(tbl.Finding, "holds") {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "legion-bench: %d experiment(s) did not uphold their claim\n", failed)
		os.Exit(1)
	}
}
