package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/loid"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/wire"
)

// RunE19 validates live migration under traffic. Magistrates "perform
// the activation, deactivation, and migration of the Legion objects
// under their control" (§2.2, §3.8); this experiment holds migration to
// the hard version of that claim: moving a running object must not fail
// a single call. Three scenarios. (1) Objects are live-migrated while
// an open-loop client population hammers them: every offered call
// succeeds (arrivals during the drain are parked and replayed; late
// arrivals ride the one-hop forwarding tombstone) and each object ends
// with exactly one incarnation. (2) A host is crashed at every phase
// boundary of the migration protocol — after drain, after ship, after
// republish, after commit, source and destination variants — and every
// case settles with 100% call success, exactly one incarnation, and no
// state regression, through the same HostFailed/checkpoint-promotion
// machinery that handles ordinary crashes. (3) A deliberately skewed
// placement (every object on one host) is repaired by the rebalancer
// while traffic runs: load spreads across the jurisdiction with zero
// failed calls.
func RunE19(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E19",
		Title:   "Live migration under traffic, crash injection, rebalancing (§2.2, §3.7, §3.8)",
		Claim:   "live migration never fails a call: drained arrivals park and replay, late arrivals forward one hop, crashes at any phase boundary settle to exactly one incarnation with no state loss, and the rebalancer spreads a skewed placement under live traffic",
		Columns: []string{"scenario", "moves", "calls", "success", "incarnations", "state", "spread"},
	}

	under, err := e19UnderTraffic(scale)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, under.row())

	okAll := under.ok()
	phases := []string{"prepared", "shipped", "republished", "committed"}
	sides := []string{"src", "dest"}
	var crashRows []*e19Result
	for _, ph := range phases {
		for _, side := range sides {
			r, err := e19CrashAt(scale, ph, side)
			if err != nil {
				return nil, err
			}
			crashRows = append(crashRows, r)
			t.Rows = append(t.Rows, r.row())
			okAll = okAll && r.ok()
		}
	}

	reb, err := e19Rebalance(scale)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, reb.row())
	okAll = okAll && reb.ok()

	if okAll {
		t.Finding = fmt.Sprintf("holds: %d calls across all scenarios with zero failures, exactly one incarnation after every crash injection, no state regression, rebalancer spread %s",
			under.calls+reb.calls+sumCalls(crashRows), reb.spread)
	} else {
		bad := ""
		for _, r := range append(append([]*e19Result{under}, crashRows...), reb) {
			if !r.ok() {
				bad += " " + r.name
			}
		}
		t.Finding = "NOT holding:" + bad
	}
	return t, nil
}

func sumCalls(rs []*e19Result) int {
	n := 0
	for _, r := range rs {
		n += r.calls
	}
	return n
}

// e19Result is one scenario's outcome.
type e19Result struct {
	name         string
	moves        int
	calls        int
	failures     int
	incarnations int // live copies of the migrated object after settling; 1 is correct
	regressed    bool
	spread       string
}

func (r *e19Result) ok() bool {
	return r.calls > 0 && r.failures == 0 && r.incarnations == 1 && !r.regressed
}

func (r *e19Result) row() []string {
	state := "preserved"
	if r.regressed {
		state = "REGRESSED"
	}
	spread := r.spread
	if spread == "" {
		spread = "-"
	}
	return []string{
		r.name,
		fmt.Sprintf("%d", r.moves),
		fmt.Sprintf("%d", r.calls),
		fmt.Sprintf("%.1f%%", float64(r.calls-r.failures)/float64(max(r.calls, 1))*100),
		fmt.Sprintf("%d", r.incarnations),
		state,
		spread,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// e19Retry is the client retry envelope every scenario runs under: the
// zero-failed-call guarantee is "no offered call fails within its
// deadline", with parked/bounced/forward-lost attempts healed by
// ordinary retry + binding refresh.
var e19Retry = rt.RetryPolicy{MaxAttempts: 30, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}

// e19Settle polls until l has exactly one live incarnation (and
// returns how many it last saw).
func e19Settle(s *sim.Sim, l loid.LOID, budget time.Duration) int {
	deadline := time.Now().Add(budget)
	n := s.Incarnations(l)
	for n != 1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = s.Incarnations(l)
	}
	return n
}

// e19Count reads an object's Work counter with retries.
func e19Count(cli *rt.Caller, l loid.LOID) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := cli.CallCtx(ctx, l, "Work")
	if err != nil {
		return 0, err
	}
	if err := res.Err(); err != nil {
		return 0, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return 0, err
	}
	return wire.AsUint64(raw)
}

// e19UnderTraffic live-migrates several objects, one after another,
// while an open-loop population calls the whole object set.
func e19UnderTraffic(scale Scale) (*e19Result, error) {
	objects, moves, runFor := 8, 4, 1500*time.Millisecond
	if scale == Full {
		objects, moves, runFor = 16, 12, 6*time.Second
	}
	s, err := sim.Build(sim.Config{
		HostsPerJurisdiction: 3,
		ObjectsPerClass:      objects,
		Clients:              4,
		CallTimeout:          250 * time.Millisecond,
		LoadReportEvery:      50 * time.Millisecond,
		Seed:                 19,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res := &e19Result{name: "migration under traffic"}

	// Open-loop traffic over every object for the whole scenario.
	var fr sim.FaultResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fr = s.RunFaultCalls(sim.FaultLoad{
			Duration: runFor,
			Deadline: 3 * time.Second,
			Pace:     2 * time.Millisecond,
			Retry:    e19Retry,
		})
	}()

	// Migrate each target to the next host over, under the traffic.
	time.Sleep(100 * time.Millisecond)
	jur := s.Sys.Jurisdictions[0]
	mag := jur.MagistrateImpl()
	for i := 0; i < moves; i++ {
		l := s.Flat[i%len(s.Flat)]
		var srcIdx int
		for _, p := range mag.Placements() {
			if p.Object.SameObject(l) {
				for hi, hl := range jur.Hosts {
					if hl.SameObject(p.Host) {
						srcIdx = hi
					}
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := s.MigrateObject(ctx, l, 0, (srcIdx+1)%len(jur.Hosts))
		cancel()
		if err != nil {
			return nil, fmt.Errorf("E19 migrate %v: %w", l, err)
		}
		res.moves++
	}
	wg.Wait()
	res.calls, res.failures = fr.Calls, fr.Failures

	res.incarnations = 1
	for _, l := range s.Flat[:min(moves, len(s.Flat))] {
		if n := e19Settle(s, l, 3*time.Second); n != 1 {
			res.incarnations = n
		}
	}
	if err := mag.CheckResidentCounts(); err != nil {
		return nil, fmt.Errorf("E19 under traffic: %w", err)
	}
	return res, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// e19CrashAt runs one migration with a host crash injected at the
// given phase boundary, on the given side, under open-loop traffic.
func e19CrashAt(scale Scale, phase, side string) (*e19Result, error) {
	runFor := 900 * time.Millisecond
	if scale == Full {
		runFor = 2 * time.Second
	}
	s, err := sim.Build(sim.Config{
		HostsPerJurisdiction: 3,
		ObjectsPerClass:      4,
		Clients:              2,
		CallTimeout:          250 * time.Millisecond,
		Seed:                 23,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res := &e19Result{name: fmt.Sprintf("crash %s at %s", side, phase)}

	jur := s.Sys.Jurisdictions[0]
	mag := jur.MagistrateImpl()
	target := s.Flat[0]
	hostIdx := func(h loid.LOID) int {
		for i, hl := range jur.Hosts {
			if hl.SameObject(h) {
				return i
			}
		}
		return -1
	}
	var srcIdx int
	for _, p := range mag.Placements() {
		if p.Object.SameObject(target) {
			srcIdx = hostIdx(p.Host)
		}
	}
	destIdx := (srcIdx + 1) % len(jur.Hosts)

	// Warm the counter so a post-settle read can prove no regression.
	pre, err := e19Count(s.Clients[0], target)
	if err != nil {
		return nil, fmt.Errorf("E19 warm: %w", err)
	}

	// The injection: at the chosen phase boundary, power-fail the
	// chosen side and deliver the failure notice, exactly as an ideal
	// detector would.
	var once sync.Once
	mag.SetMigrateHook(func(ph string, obj, srcH, destH loid.LOID) {
		if ph != phase || !obj.SameObject(target) {
			return
		}
		once.Do(func() {
			victim := srcIdx
			if side == "dest" {
				victim = destIdx
			}
			_, _ = s.CrashHostAndDetect(0, victim)
		})
	})

	var fr sim.FaultResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fr = s.RunFaultCalls(sim.FaultLoad{
			Duration: runFor,
			Deadline: 6 * time.Second,
			Pace:     3 * time.Millisecond,
			Retry:    e19Retry,
		})
	}()

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	// The migration itself may legitimately report an error (it aborted
	// into a crash); what must hold is the caller-visible invariant
	// checked below, not the driver's verdict.
	_ = s.MigrateObject(ctx, target, 0, destIdx)
	cancel()
	wg.Wait()
	res.moves = 1
	res.calls, res.failures = fr.Calls, fr.Failures

	res.incarnations = e19Settle(s, target, 5*time.Second)
	post, err := e19Count(s.Clients[0], target)
	if err != nil {
		return nil, fmt.Errorf("E19 crash %s at %s: post-settle probe: %w", side, phase, err)
	}
	// The counter was pre before the crash and every traffic hit only
	// grew it; any value below the warm count means migrated state was
	// lost.
	res.regressed = post <= pre
	// Whichever way the migration settled, the Magistrate's kept
	// per-host resident counts must equal a recount of its table.
	if err := mag.CheckResidentCounts(); err != nil {
		return nil, fmt.Errorf("E19 crash %s at %s: %w", side, phase, err)
	}
	return res, nil
}

// e19Rebalance skews every object onto one host, then lets the
// rebalancer repair the placement while traffic runs.
func e19Rebalance(scale Scale) (*e19Result, error) {
	objects, runFor := 9, 2500*time.Millisecond
	if scale == Full {
		objects, runFor = 18, 8*time.Second
	}
	s, err := sim.Build(sim.Config{
		HostsPerJurisdiction: 3,
		ObjectsPerClass:      objects,
		Clients:              3,
		CallTimeout:          250 * time.Millisecond,
		LoadReportEvery:      30 * time.Millisecond,
		Seed:                 29,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res := &e19Result{name: "rebalancer (skewed start)"}

	if err := s.SkewPlacement(0, 0); err != nil {
		return nil, err
	}
	before, err := s.PlacementCounts(0)
	if err != nil {
		return nil, err
	}

	reb, err := s.NewRebalancer(0)
	if err != nil {
		return nil, err
	}
	reb.HotFactor = 1.2
	reb.SustainRounds = 1
	reb.MaxMovesPerRound = 2

	var fr sim.FaultResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fr = s.RunFaultCalls(sim.FaultLoad{
			Duration: runFor,
			Deadline: 3 * time.Second,
			Pace:     2 * time.Millisecond,
			Retry:    e19Retry,
		})
	}()

	time.Sleep(150 * time.Millisecond)
	deadline := time.Now().Add(runFor - 300*time.Millisecond)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		n, err := reb.RoundNow(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("E19 rebalance round: %w", err)
		}
		res.moves += n
		if n == 0 && res.moves > 0 {
			break // converged
		}
		time.Sleep(60 * time.Millisecond)
	}
	wg.Wait()
	res.calls, res.failures = fr.Calls, fr.Failures

	after, err := s.PlacementCounts(0)
	if err != nil {
		return nil, err
	}
	res.spread = fmt.Sprintf("%v -> %v", before, after)
	maxC, minC := after[0], after[0]
	for _, c := range after {
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}
	res.incarnations = 1
	for _, l := range s.Flat {
		if n := s.Incarnations(l); n != 1 {
			res.incarnations = n
		}
	}
	// The rebalancer must have actually spread the skew: no host may
	// hold more than ~60% of the population afterwards.
	if res.moves == 0 || maxC > objects*3/5 {
		res.regressed = true // reuse the flag: the scenario claim failed
	}
	if err := s.Sys.Jurisdictions[0].MagistrateImpl().CheckResidentCounts(); err != nil {
		return nil, fmt.Errorf("E19 rebalance: %w", err)
	}
	return res, nil
}
