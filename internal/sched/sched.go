// Package sched implements Scheduling Agents. Scheduling is
// "intentionally left out of the core object model, except for a few
// hooks" (§3.7): classes record a Scheduling Agent per object, and
// Magistrates accept host suggestions through the second parameter of
// Activate(LOID, LOID) (§3.8). A Scheduling Agent is an ordinary
// Legion object whose PickHost member function turns a candidate host
// list into a placement suggestion; the policies here are the
// mechanisms the paper expects policy authors to build.
package sched

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/rt"
)

// The Scheduling Agent's remote methods.
var (
	PickHost   = rt.M1("PickHost", rt.LOIDListParam("candidates"), rt.LOIDParam("host"))
	PolicyName = rt.M0("PolicyName", rt.StringParam("name"))
)

var server = rt.NewServer("LegionSchedulingAgent",
	rt.Serve1(PickHost, (*Agent).pickHost),
	rt.Serve0(PolicyName, func(a *Agent, _ context.Context) (string, error) { return a.policy.Name(), nil }),
)

// Interface is the member-function set of a Scheduling Agent.
var Interface = server.Interface()

// Policy chooses one host from a non-empty candidate list. ask lets
// load-aware policies query candidate Host Objects for their load
// vectors (it may be nil for load-oblivious policies).
type Policy interface {
	Pick(candidates []loid.LOID, ask func(loid.LOID) (host.Load, error)) (loid.LOID, error)
	Name() string
}

// RoundRobin rotates over the candidates. Lock-free: the cursor is a
// single atomic counter, so concurrent PickHost invocations neither
// serialize nor allocate.
type RoundRobin struct {
	i atomic.Uint64
}

func (p *RoundRobin) Pick(cs []loid.LOID, _ func(loid.LOID) (host.Load, error)) (loid.LOID, error) {
	return cs[(p.i.Add(1)-1)%uint64(len(cs))], nil
}

func (p *RoundRobin) Name() string { return "round-robin" }

// Random picks uniformly at random from a lock-free splitmix64
// stream (the same generator the Caller uses for address selection):
// one atomic add per pick, no locks, no allocation.
type Random struct {
	state atomic.Uint64
}

// NewRandom builds a seeded random policy.
func NewRandom(seed int64) *Random {
	p := &Random{}
	p.state.Store(uint64(seed) ^ 0x5DEECE66D)
	return p
}

func (p *Random) Pick(cs []loid.LOID, _ func(loid.LOID) (host.Load, error)) (loid.LOID, error) {
	s := p.state.Add(0x9E3779B97F4A7C15)
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	s *= 0x94D049BB133111EB
	s ^= s >> 31
	hi, _ := bits.Mul64(s, uint64(len(cs)))
	return cs[hi], nil
}

func (p *Random) Name() string { return "random" }

// LeastLoaded queries every candidate's load vector and picks the
// host with the lowest Score (residents + backlog + dispatch rate +
// checkpoint pressure — the same hotness number the Magistrate's
// placement and the rebalancer use). Unreachable hosts are skipped.
// Hysteresis keeps the previous pick while it trails the best by less
// than the margin, so placement doesn't flap between hosts whose
// scores differ only by transient queue noise.
type LeastLoaded struct {
	// Hysteresis is the score margin the previous pick may trail the
	// best candidate by and still be chosen again; zero disables it.
	Hysteresis float64

	mu       sync.Mutex
	lastPick loid.LOID
}

// NewLeastLoaded builds the policy with the default hysteresis margin.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{Hysteresis: 0.5} }

func (p *LeastLoaded) Pick(cs []loid.LOID, ask func(loid.LOID) (host.Load, error)) (loid.LOID, error) {
	if ask == nil {
		return cs[0], nil
	}
	p.mu.Lock()
	last := p.lastPick
	p.mu.Unlock()
	best := loid.Nil
	bestScore, lastScore := 0.0, 0.0
	haveLast := false
	for _, c := range cs {
		ld, err := ask(c)
		if err != nil {
			continue
		}
		s := ld.Score()
		if best.IsNil() || s < bestScore {
			best, bestScore = c, s
		}
		if c.SameObject(last) {
			lastScore, haveLast = s, true
		}
	}
	if best.IsNil() {
		return loid.Nil, fmt.Errorf("sched: no candidate host reachable")
	}
	if haveLast && lastScore < bestScore+p.Hysteresis {
		best = last
	}
	p.mu.Lock()
	p.lastPick = best
	p.mu.Unlock()
	return best, nil
}

func (p *LeastLoaded) Name() string { return "least-loaded" }

// Agent is the Scheduling Agent object implementation.
type Agent struct {
	policy Policy
	obj    *rt.Object
}

// NewAgent builds a Scheduling Agent with the given policy.
func NewAgent(policy Policy) *Agent {
	return &Agent{policy: policy}
}

// Interface implements rt.Impl.
func (a *Agent) Interface() *idl.Interface { return Interface }

// Bind implements rt.Binder.
func (a *Agent) Bind(o *rt.Object) { a.obj = o }

// Dispatch implements rt.Impl.
func (a *Agent) Dispatch(inv *rt.Invocation) ([][]byte, error) { return server.Dispatch(a, inv) }

// pickHost asks the policy for one of cs; a load-aware policy reads
// the candidates' load vectors within the caller's deadline.
func (a *Agent) pickHost(ctx context.Context, cs []loid.LOID) (loid.LOID, error) {
	if len(cs) == 0 {
		return loid.Nil, fmt.Errorf("sched: empty candidate list")
	}
	return a.policy.Pick(cs, func(h loid.LOID) (host.Load, error) {
		return host.GetLoad.Call(ctx, a.obj.Caller().To(h))
	})
}

// SaveState implements rt.Impl (policies are configuration, not
// state).
func (a *Agent) SaveState() ([]byte, error) { return nil, nil }

// RestoreState implements rt.Impl.
func (a *Agent) RestoreState([]byte) error { return nil }
