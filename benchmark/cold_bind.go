package main

import (
	"context"
	"fmt"

	"repro/internal/bindagent"
	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
)

// cold_bind: the Fig 17 escalation path. The working set is 16× the
// client cache and 4× the agent cache by construction, and the pick is
// uniform (not zipf) so that no percentile straddles two latency modes:
// about an eighth of the calls hit the client cache, the median sits in
// the agent/class path, and the 5 % of steps that first deactivate
// their object put the p99 in the stale-binding → re-activate path.
// binding (Add, evict, invalidate: writes, beside warm_mem's pure
// reads), bindagent, class, magistrate, host and persist (inert
// save/restore) do the work; the rt hot path is a small share.
const (
	coldObjects         = 4096
	coldClientCache     = 256
	coldAgentCache      = 1024
	coldDeactivateShare = 50 // per mille
)

type coldBind struct {
	s *sim.Sim
	// nodes are the resolver nodes this file adds to the deployment.
	nodes []*rt.Node
	// magOf maps an object to the client of the Magistrate holding it.
	magOf map[loid.LOID]*magistrate.Client
}

func (w *coldBind) mix() opMix { return opMix{variantPermille: coldDeactivateShare} }

func (w *coldBind) setup(r *run) error {
	objects := coldObjects
	if r.quick {
		objects = 512 // still 2× the client cache
	}
	s, err := sim.Build(sim.Config{
		Jurisdictions: 2, HostsPerJurisdiction: 2,
		LeafAgents: 2, AgentFanout: 2, AgentCacheSize: coldAgentCache,
		Classes: 1, ObjectsPerClass: objects,
		Clients: r.callers, ClientCacheSize: coldClientCache,
		CallTimeout: callTimeout,
	})
	if err != nil {
		return err
	}
	w.s = s
	w.magOf = make(map[loid.LOID]*magistrate.Client, objects)
	for _, j := range s.Sys.Jurisdictions {
		mc := magistrate.NewClient(s.Sys.BootClient(), j.Magistrate)
		held, err := mc.ListObjects()
		if err != nil {
			return fmt.Errorf("list objects of %v: %w", j.Magistrate, err)
		}
		for _, l := range held {
			w.magOf[l.ID()] = mc
		}
	}
	return nil
}

// attach gives the caller a resolver that records a span around every
// Binding Agent round trip. The wrapper is installed in untraced runs
// too (where its recorder is nil), so both kinds of run are wired alike.
func (w *coldBind) attach(cs *callerState) error {
	cs.caller, cs.objs = w.s.Clients[cs.id], partition(w.s.Flat, cs.id, len(w.s.Clients))
	node, err := rt.NewNode(w.s.Sys.Trans, w.s.Reg, fmt.Sprintf("bench-resolver%d", cs.id))
	if err != nil {
		return err
	}
	w.nodes = append(w.nodes, node)
	raw := rt.NewCaller(node, cs.caller.Self(), nil)
	raw.Timeout = callTimeout
	leaf := w.s.Sys.Leaves[cs.id%len(w.s.Sys.Leaves)]
	cs.caller.SetResolver(&tracedResolver{inner: bindagent.NewClient(raw, leaf.LOID, leaf.Addr), cs: cs})
	return nil
}

func (w *coldBind) prepare(cs *callerState, o op) (loid.LOID, string, []byte, error) {
	target := cs.objs[o.obj]
	if o.variant {
		mc := w.magOf[target.ID()]
		if mc == nil {
			return target, "", nil, fmt.Errorf("no magistrate holds %v", target)
		}
		cs.cur.begin("magistrate.deactivate", cs.opSeq)
		err := mc.Deactivate(target)
		cs.cur.end()
		if err != nil {
			return target, "", nil, fmt.Errorf("deactivate %v: %w", target, err)
		}
	}
	return target, "Work", nil, nil
}

func (w *coldBind) verify(cs *callerState, o op, res *rt.Result) (int, error) {
	return verifyWork(cs, o, res)
}

func (w *coldBind) registry() *metrics.Registry { return w.s.Reg }

func (w *coldBind) clientCallers() []*rt.Caller { return w.s.Clients }

func (w *coldBind) system() *sim.Sim { return w.s }

func (w *coldBind) finish(map[string]float64) []string { return nil }

func (w *coldBind) close() {
	for _, n := range w.nodes {
		n.Close()
	}
	w.nodes = nil
	if w.s != nil {
		w.s.Close()
	}
}

// tracedResolver wraps a caller's Binding Agent client with spans. The
// communication layer consults its resolver synchronously on the
// calling goroutine, so the spans nest under that caller's rt.call.
type tracedResolver struct {
	inner *bindagent.Client
	cs    *callerState
}

func (t *tracedResolver) Resolve(l loid.LOID) (binding.Binding, error) {
	return t.ResolveCtx(context.Background(), l)
}

func (t *tracedResolver) Refresh(stale binding.Binding) (binding.Binding, error) {
	return t.RefreshCtx(context.Background(), stale)
}

func (t *tracedResolver) ResolveCtx(ctx context.Context, l loid.LOID) (binding.Binding, error) {
	t.cs.cur.begin("bindagent.resolve", t.cs.opSeq)
	defer t.cs.cur.end()
	return t.inner.ResolveCtx(ctx, l)
}

func (t *tracedResolver) RefreshCtx(ctx context.Context, stale binding.Binding) (binding.Binding, error) {
	t.cs.cur.begin("bindagent.refresh", t.cs.opSeq)
	defer t.cs.cur.end()
	return t.inner.RefreshCtx(ctx, stale)
}
