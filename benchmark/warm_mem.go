package main

import (
	"fmt"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/transport"
)

// warm_mem: the §5.2.1 common case. One client node calls one server
// node over the in-process fabric with every binding pre-cached, so
// rt + wire + buf + the binding-cache hit path do all the work and
// transport.tcp, bindagent, class, magistrate, host and persist do none:
// a change to any of those must not move this workload.

const warmMemObjects = 64

type warmMem struct {
	reg     *metrics.Registry
	fabric  *transport.Fabric
	server  *rt.Node
	client  *rt.Node
	objs    []loid.LOID
	callers []*rt.Caller
}

func (w *warmMem) mix() opMix { return opMix{} }

func (w *warmMem) setup(r *run) error {
	w.reg = metrics.NewRegistry()
	w.fabric = transport.NewFabric(w.reg)
	var err error
	if w.server, err = rt.NewNode(w.fabric, w.reg, "bench-srv"); err != nil {
		return err
	}
	if w.client, err = rt.NewNode(w.fabric, w.reg, "bench-cli"); err != nil {
		return err
	}
	w.objs = w.objs[:0]
	for i := 0; i < warmMemObjects; i++ {
		l := loid.New(700, uint64(i+1), loid.DeriveKey(fmt.Sprintf("bench/warm/%d", i)))
		// Default (mailbox) dispatch: the configuration an ordinary
		// user object runs with.
		if _, err := w.server.Spawn(l, sim.NewWorkerImpl()); err != nil {
			return err
		}
		w.objs = append(w.objs, l)
	}
	w.callers = w.callers[:0]
	for c := 0; c < r.callers; c++ {
		self := loid.New(701, uint64(c+1), loid.DeriveKey(fmt.Sprintf("bench/cli/%d", c)))
		cl := rt.NewCaller(w.client, self, nil)
		cl.Timeout = callTimeout
		for _, l := range w.objs {
			cl.AddBinding(binding.Forever(l, w.server.Address()))
		}
		w.callers = append(w.callers, cl)
	}
	return nil
}

func (w *warmMem) attach(cs *callerState) error {
	cs.caller, cs.objs = w.callers[cs.id], partition(w.objs, cs.id, len(w.callers))
	return nil
}

func (w *warmMem) prepare(cs *callerState, o op) (loid.LOID, string, []byte, error) {
	return cs.objs[o.obj], "Work", nil, nil
}

func (w *warmMem) verify(cs *callerState, o op, res *rt.Result) (int, error) {
	return verifyWork(cs, o, res)
}

func (w *warmMem) registry() *metrics.Registry { return w.reg }

func (w *warmMem) clientCallers() []*rt.Caller { return w.callers }

// finish checks that the layers this workload bypasses were not used.
func (w *warmMem) finish(e map[string]float64) []string {
	var broken []string
	for _, inv := range []struct {
		metric string
		want   float64
	}{{"bindagent.requests", 0}, {"binding.l0_hit_ratio", 1}, {"rt.stale_retries", 0}} {
		if e[inv.metric] != inv.want {
			broken = append(broken, fmt.Sprintf("bypass invariant: %s = %v on warm_mem, want %v", inv.metric, e[inv.metric], inv.want))
		}
	}
	return broken
}

func (w *warmMem) close() {
	if w.client != nil {
		w.client.Close()
	}
	if w.server != nil {
		w.server.Close()
	}
	if w.fabric != nil {
		w.fabric.Close()
	}
}
