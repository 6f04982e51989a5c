package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bindagent"
	"repro/internal/binding"
	"repro/internal/buf"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Per-layer numbers. Counters and ratios are read from registries the
// layers already publish (metrics.Registry, binding.Cache.Stats) as
// deltas over the measured stretch, so a layer the workload bypasses
// reads 0. Timed numbers come from probe rigs: after the workload, a
// traced run calls each layer's public API from outside with the
// workload's own input shapes and times it. The rigs are the same in
// every traced run, whatever the workload, so a layer metric means one
// thing everywhere. Nothing is measured from inside internal/.

// counterSnap is one reading of the layers' counters.
type counterSnap struct {
	reg        map[string]uint64
	l0         binding.Stats
	agentHits  uint64
	agentMiss  uint64
	classLabel []string // req/ counters of derived class objects
}

func snapshotCounters(w workload) counterSnap {
	s := counterSnap{reg: make(map[string]uint64)}
	for _, nv := range w.registry().Counters() {
		s.reg[nv.Name] = nv.Value
	}
	for _, c := range w.clientCallers() {
		st := c.Cache().Stats()
		s.l0.Hits += st.Hits
		s.l0.Misses += st.Misses
		s.l0.Expired += st.Expired
		s.l0.Evictions += st.Evictions
	}
	if d, ok := w.(deployed); ok {
		sys := d.system().Sys
		for _, leaf := range sys.Leaves {
			// An agent that cannot be asked reads as no lookups.
			h, m, _ := bindagent.NewClient(sys.BootClient(), leaf.LOID, leaf.Addr).CacheStats()
			s.agentHits += h
			s.agentMiss += m
		}
		for _, cl := range d.system().Classes {
			s.classLabel = append(s.classLabel, "req/obj/"+cl.Class().ID().String())
		}
	}
	return s
}

func (s counterSnap) sum(match func(name string) bool) uint64 {
	var total uint64
	for name, v := range s.reg {
		if match(name) {
			total += v
		}
	}
	return total
}

// layerCounters writes the counter-derived layer metrics: after − before.
func layerCounters(e map[string]float64, before, after counterSnap) {
	delta := func(match func(string) bool) float64 {
		return float64(after.sum(match) - before.sum(match))
	}
	prefix := func(p string) func(string) bool {
		return func(n string) bool { return strings.HasPrefix(n, p) }
	}
	exact := func(p string) func(string) bool { return func(n string) bool { return n == p } }
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}

	e["binding.l0_hit_ratio"] = ratio(after.l0.Hits-before.l0.Hits,
		after.l0.Misses+after.l0.Expired-before.l0.Misses-before.l0.Expired)
	e["binding.evictions"] = float64(after.l0.Evictions - before.l0.Evictions)
	// A request that reaches a node no longer hosting its target is a
	// call whose first wave went to a dead address.
	e["rt.stale_retries"] = delta(func(n string) bool { return strings.HasSuffix(n, "/stale-target") })
	e["transport.mem_frames"] = delta(exact("net/sent"))
	e["transport.tcp_dropped"] = delta(exact("net/tcp_dropped"))
	e["bindagent.requests"] = delta(prefix("req/bindagent/"))
	e["bindagent.l1_hit_ratio"] = ratio(after.agentHits-before.agentHits, after.agentMiss-before.agentMiss)
	e["class.requests"] = delta(func(n string) bool {
		if strings.HasPrefix(n, "req/class/") {
			return true
		}
		for _, l := range after.classLabel {
			if n == l {
				return true
			}
		}
		return false
	})
	e["magistrate.requests"] = delta(prefix("req/magistrate/"))
	e["magistrate.bulk_adopted"] = delta(exact("mag/bulk_adopted_objects"))
}

const (
	probeBatches = 5
	probeBatchN  = 20000
)

// batchNs times n calls of fn as one batch, probeBatches times over, and
// returns the median cost per call in nanoseconds; setup (may be nil)
// runs untimed before each batch. For operations too short to time one
// by one.
func batchNs(n int, setup func(), fn func(i int)) float64 {
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// eachNs times n calls of fn one by one and returns the median in
// nanoseconds; prep (may be nil) runs untimed before each call.
func eachNs(n int, prep func(i int) error, fn func(i int) error) (float64, error) {
	took := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if prep != nil {
			if err := prep(i); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		took = append(took, float64(time.Since(t0)))
	}
	return median(took), nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeLayers runs every rig and writes the timed layer metrics, then
// the figures derived from them: the budget and the DES service times.
func (r *run) probeLayers(e map[string]float64) error {
	method, argLen, resLen := "Work", 0, 8
	if r.workload == "procs_tcp" {
		method, argLen, resLen = "Echo", procsSmall, procsSmall
	}
	small := probeWire(e, "", method, argLen, resLen)
	bulk := probeWire(e, "_bulk", "Echo", procsBulk, procsBulk)
	probeBufAndCache(e, r.callers)
	if err := probeRT(e, small); err != nil {
		return fmt.Errorf("rt rig: %w", err)
	}
	if err := probeTCP(e, small, bulk); err != nil {
		return fmt.Errorf("tcp rig: %w", err)
	}
	if err := r.probeBindingPath(e); err != nil {
		return fmt.Errorf("binding-path rig: %w", err)
	}
	if err := r.probePersist(e); err != nil {
		return fmt.Errorf("persist rig: %w", err)
	}
	if r.workload != "ckpt_failover" {
		if err := r.failoverDrill(e); err != nil {
			return fmt.Errorf("failover drill: %w", err)
		}
	}
	derive(e, r.workload)
	return nil
}

// probeWire times marshal and parse of one call's two frames (request
// and reply) of the given shape, and returns the request frame.
func probeWire(e map[string]float64, suffix, method string, argLen, resLen int) []byte {
	target := loid.New(700, 1, loid.DeriveKey("bench/probe"))
	env := security.Env(loid.New(701, 1, loid.DeriveKey("bench/probe/cli")))
	addr := oa.Single(oa.MemElement(1))
	var args [][]byte
	if argLen > 0 {
		args = [][]byte{make([]byte, argLen)}
	}
	results := [][]byte{make([]byte, resLen)}
	req, rep := make([]byte, 0, 64<<10), make([]byte, 0, 64<<10)
	marshal := func(int) {
		req = wire.AppendRequest(req[:0], wire.KindRequest, 1, target, method, &env, addr, args)
		rep = wire.AppendReply(rep[:0], 1, target, wire.OK, "", results, addr)
	}
	var views [][]byte
	sink := 0
	parse := func(int) {
		for _, data := range [][]byte{req, rep} {
			f := wire.GetFrame()
			if err := f.Parse(data); err != nil {
				panic(err) // a frame this file just marshalled
			}
			sink += int(f.TargetID().ClassID) + len(f.Method())
			views = f.ArgViews(views[:0])
			f.Close()
		}
	}
	e["wire.marshal"+suffix+"_ns"] = batchNs(probeBatchN, nil, marshal)
	e["wire.parse"+suffix+"_ns"] = batchNs(probeBatchN, nil, parse)
	if suffix == "" {
		e["wire.frame_bytes"] = float64(len(req) + len(rep))
		m0 := mallocs()
		for i := 0; i < probeBatchN; i++ {
			marshal(i)
			parse(i)
		}
		e["wire.allocs_per_op"] = float64(mallocs()-m0) / probeBatchN
	}
	return append([]byte(nil), req...)
}

// parallel runs fn(i) n times on each of g goroutines and returns the
// wall time per call as one goroutine sees it.
func parallelNs(g, n int, fn func(worker, i int)) float64 {
	return batchNs(1, nil, func(int) {
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					fn(w, i)
				}
			}(w)
		}
		wg.Wait()
	}) / float64(n)
}

// probeBufAndCache times the buffer pool and the binding cache, alone
// and under as many goroutines as the workload has callers.
func probeBufAndCache(e map[string]float64, callers int) {
	getRelease := func(int) { buf.Get().Release() }
	e["buf.get_release_ns"] = batchNs(probeBatchN, nil, getRelease)
	e["buf.get_release_par_ns"] = parallelNs(callers, probeBatchN, func(_, i int) { getRelease(i) })

	addr := oa.Single(oa.MemElement(1))
	lo := func(i int) loid.LOID { return loid.NewNoKey(800, uint64(i+1)) }
	cache := binding.NewCache(coldClientCache)
	for i := 0; i < coldClientCache; i++ {
		cache.Add(binding.Forever(lo(i), addr))
	}
	hit := func(i int) {
		if _, ok := cache.Get(lo(i % warmMemObjects)); !ok {
			panic("binding probe: resident LOID missed")
		}
	}
	e["binding.get_hit_ns"] = batchNs(probeBatchN, nil, func(i int) { hit(i) })
	e["binding.get_hit_par_ns"] = parallelNs(callers, probeBatchN, func(w, i int) { hit(i + w*7) })
	// Add into the full cache: every Add evicts the oldest entry.
	next := coldClientCache
	e["binding.add_evict_ns"] = batchNs(probeBatchN, nil, func(int) {
		cache.Add(binding.Forever(lo(next), addr))
		next++
	})
	big := binding.NewCache(2 * probeBatchN)
	e["binding.invalidate_ns"] = batchNs(probeBatchN,
		func() {
			for i := 0; i < probeBatchN; i++ {
				big.Add(binding.Forever(lo(i), addr))
			}
		},
		func(i int) { big.InvalidateLOID(lo(i)) })
}

// probeRT times whole calls between two nodes on a fresh fabric — to an
// inline-dispatch object and to a mailbox one — and a raw one-way frame
// hop between two endpoints.
func probeRT(e map[string]float64, frame []byte) error {
	fabric := transport.NewFabric(nil)
	defer fabric.Close()
	server, err := rt.NewNode(fabric, nil, "probe-srv")
	if err != nil {
		return err
	}
	defer server.Close()
	client, err := rt.NewNode(fabric, nil, "probe-cli")
	if err != nil {
		return err
	}
	defer client.Close()
	inline := loid.New(700, 1, loid.DeriveKey("bench/probe/inline"))
	mailbox := loid.New(700, 2, loid.DeriveKey("bench/probe/mailbox"))
	if _, err := server.Spawn(inline, sim.NewWorkerImpl(), rt.WithInlineDispatch()); err != nil {
		return err
	}
	if _, err := server.Spawn(mailbox, sim.NewWorkerImpl()); err != nil {
		return err
	}
	c := rt.NewCaller(client, loid.New(701, 1, loid.DeriveKey("bench/probe/cli")), nil)
	c.Timeout = callTimeout
	c.AddBinding(binding.Forever(inline, server.Address()))
	c.AddBinding(binding.Forever(mailbox, server.Address()))
	call := func(l loid.LOID) func(int) error {
		return func(int) error {
			res, err := c.Call(l, "Work")
			if err != nil {
				return err
			}
			return res.Err()
		}
	}
	for _, l := range []loid.LOID{inline, mailbox} { // pools and timers warm
		if _, err := eachNs(2000, nil, call(l)); err != nil {
			return err
		}
	}
	inlineNs, err := eachNs(probeBatchN, nil, call(inline))
	if err != nil {
		return err
	}
	m0 := mallocs()
	mailboxNs, err := eachNs(probeBatchN, nil, call(mailbox))
	if err != nil {
		return err
	}
	e["rt.allocs_per_call"] = float64(mallocs()-m0) / probeBatchN
	e["rt.call_inline_ns"] = inlineNs
	e["rt.mailbox_ns"] = mailboxNs - inlineNs

	a, err := fabric.NewEndpoint()
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := fabric.NewEndpoint()
	if err != nil {
		return err
	}
	defer b.Close()
	received := 0
	a.SetFrameHandler(func(*buf.Buffer, []byte, bool) {})
	b.SetFrameHandler(func(*buf.Buffer, []byte, bool) { received++ })
	fb := buf.Get()
	defer fb.Release()
	fb.B = append(fb.B, frame...)
	var sendErr error
	e["transport.mem_hop_ns"] = batchNs(probeBatchN, nil, func(int) {
		if err := a.SendBuf(b.Element(), fb); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil || received != probeBatches*probeBatchN {
		return fmt.Errorf("mem hop: delivered %d of %d frames (%v)", received, probeBatches*probeBatchN, sendErr)
	}
	return nil
}

// probeTCP ping-pongs raw frames between two transport.TCP endpoints on
// loopback: the first send pays the dial, then small and bulk frames
// give the per-frame and per-byte round trips.
func probeTCP(e map[string]float64, small, bulk []byte) error {
	tr := &transport.TCP{}
	a, err := tr.NewEndpoint()
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tr.NewEndpoint()
	if err != nil {
		return err
	}
	defer b.Close()
	back := make(chan error, 1) // one ping outstanding at a time
	a.SetFrameHandler(func(*buf.Buffer, []byte, bool) { back <- nil })
	b.SetFrameHandler(func(fb *buf.Buffer, _ []byte, _ bool) {
		if err := b.SendBuf(a.Element(), fb); err != nil {
			back <- err
		}
	})
	ping := func(frame []byte) func(int) error {
		fb := buf.Get()
		fb.B = append(fb.B, frame...)
		return func(int) error {
			if err := a.SendBuf(b.Element(), fb); err != nil {
				return err
			}
			select {
			case err := <-back:
				return err
			case <-time.After(callTimeout):
				return fmt.Errorf("no echo within %v", callTimeout)
			}
		}
	}
	pingSmall, pingBulk := ping(small), ping(bulk)
	t0 := time.Now()
	if err := pingSmall(0); err != nil {
		return err
	}
	first := time.Since(t0)
	// Every reactor shard in both directions dialled before timing.
	if _, err := eachNs(64, nil, pingSmall); err != nil {
		return err
	}
	smallNs, err := eachNs(3000, nil, pingSmall)
	if err != nil {
		return err
	}
	bulkNs, err := eachNs(600, nil, pingBulk)
	if err != nil {
		return err
	}
	e["transport.tcp_rtt_small_us"] = smallNs / 1e3
	e["transport.tcp_rtt_bulk_us"] = bulkNs / 1e3
	e["transport.tcp_dial_ms"] = (float64(first) - smallNs) / 1e6
	return nil
}

// probeBindingPath builds a small cold_bind-like deployment (mem store)
// and times one tier of the Fig 17 path at a time through the tiers'
// own clients.
func (r *run) probeBindingPath(e map[string]float64) error {
	s, err := sim.Build(sim.Config{HostsPerJurisdiction: 2, ObjectsPerClass: 64, Clients: 1, CallTimeout: callTimeout})
	if err != nil {
		return err
	}
	defer s.Close()
	boot := s.Sys.BootClient()
	leaf := s.Sys.Leaves[0]
	agent := bindagent.NewClient(boot, leaf.LOID, leaf.Addr)
	obj := func(i int) loid.LOID { return s.Flat[i%len(s.Flat)] }
	const n = 400

	hitNs, err := eachNs(n, nil, func(i int) error { _, err := agent.Resolve(obj(0)); return err })
	if err != nil {
		return err
	}
	missNs, err := eachNs(n,
		func(i int) error { return agent.InvalidateLOID(obj(i)) },
		func(i int) error { _, err := agent.Resolve(obj(i)); return err })
	if err != nil {
		return err
	}
	classNs, err := eachNs(n, nil, func(i int) error { _, err := s.Classes[0].GetBinding(obj(i)); return err })
	if err != nil {
		return err
	}
	mag := magistrate.NewClient(boot, s.Sys.Jurisdictions[0].Magistrate)
	deactNs, err := eachNs(n,
		func(i int) error {
			if i == 0 {
				return nil
			}
			_, err := mag.Activate(obj(i-1), loid.Nil)
			return err
		},
		func(i int) error { return mag.Deactivate(obj(i)) })
	if err != nil {
		return err
	}
	if _, err := mag.Activate(obj(n-1), loid.Nil); err != nil {
		return err
	}
	actNs, err := eachNs(n,
		func(i int) error { return mag.Deactivate(obj(i)) },
		func(i int) error { _, err := mag.Activate(obj(i), loid.Nil); return err })
	if err != nil {
		return err
	}
	hc := host.NewClient(boot, s.Sys.Jurisdictions[0].Hosts[0])
	state := make([]byte, ckptStateSize)
	fresh := func(i int) loid.LOID { return loid.NewNoKey(950, uint64(i+1)) }
	startNs, err := eachNs(n, nil, func(i int) error {
		_, err := hc.StartObject(fresh(i), sim.WorkerImplName, state)
		return err
	})
	if err != nil {
		return err
	}
	stopNs, err := eachNs(n, nil, func(i int) error { _, _, err := hc.StopObject(fresh(i)); return err })
	if err != nil {
		return err
	}
	e["bindagent.resolve_hit_us"] = hitNs / 1e3
	e["bindagent.resolve_us"] = missNs / 1e3
	e["class.getbinding_us"] = classNs / 1e3
	e["magistrate.deactivate_us"] = deactNs / 1e3
	e["magistrate.activate_us"] = actNs / 1e3
	e["host.start_us"] = startNs / 1e3
	e["host.stop_us"] = stopNs / 1e3
	return nil
}

// probePersist times the segment store alone, fsync on, with the
// 1 KiB records ckpt_failover checkpoints.
func (r *run) probePersist(e map[string]float64) error {
	dir, err := os.MkdirTemp(r.tmpRoot, "persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := persist.NewSegmentStore(dir, persist.SegmentOptions{})
	if err != nil {
		return err
	}
	defer st.Close()
	opr := func(i int) persist.OPR {
		return persist.OPR{LOID: loid.NewNoKey(990, uint64(i+1)), Impl: sim.WorkerImplName, State: make([]byte, ckptStateSize)}
	}
	var addrs []persist.PersistentAddress
	putNs, err := eachNs(40, nil, func(i int) error {
		a, err := st.Put(opr(i))
		addrs = append(addrs, a)
		return err
	})
	if err != nil {
		return err
	}
	const batch = 500
	oprs := make([]persist.OPR, batch)
	perRec := make([]float64, 0, 3)
	for b := 0; b < cap(perRec); b++ {
		for i := range oprs {
			oprs[i] = opr(1000 + b*batch + i)
		}
		t0 := time.Now()
		got, err := st.PutBatch(oprs)
		if err != nil {
			return err
		}
		perRec = append(perRec, float64(time.Since(t0))/batch)
		addrs = append(addrs, got...)
	}
	g := newStream(r.seed, probeStream)
	getNs, err := eachNs(2000, nil, func(int) error { _, err := st.Get(addrs[g.intn(len(addrs))]); return err })
	if err != nil {
		return err
	}
	var onDisk int64
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		if info, err := f.Info(); err == nil {
			onDisk += info.Size()
		}
	}
	e["persist.put_us"] = putNs / 1e3
	e["persist.putbatch_us_per_rec"] = median(perRec) / 1e3
	e["persist.get_us"] = getNs / 1e3
	e["persist.bytes_per_user_byte"] = float64(onDisk) / float64(len(addrs)*ckptStateSize)
	return nil
}

// failoverDrill is one ckpt_failover cycle on a tenth of its
// population. A traced run of another workload takes the failover
// metrics from it, so that they are measured, not absent, there too.
func (r *run) failoverDrill(e map[string]float64) error {
	small := &run{quick: true, seed: r.seed, callers: r.callers, tmpRoot: r.tmpRoot}
	w := &ckptFailover{}
	defer w.close()
	if err := w.setup(small); err != nil {
		return err
	}
	callers, _, err := newCallers(w, small, time.Now())
	if err != nil {
		return err
	}
	if err := w.cycle(0, quickLoadPhase, callers, nil); err != nil {
		return err
	}
	if tot := totalsOf(callers, time.Second); tot.failed > 0 || tot.firstErr != nil {
		return fmt.Errorf("%d of %d ops failed: %v", tot.failed, tot.attempted, tot.firstErr)
	}
	w.finish(e)
	return nil
}

// derive computes what follows from the probes: rt's residual, the
// budget reconciled against the run's own median, and the five service
// times the DES model is to be calibrated with. A tier's self time is
// its span minus the spans of the tiers it calls.
func derive(e map[string]float64, workload string) {
	hops := 2 * e["transport.mem_hop_ns"]
	outside := e["wire.marshal_ns"] + e["wire.parse_ns"] + 2*e["buf.get_release_ns"] + e["binding.get_hit_ns"]
	warmCall := e["rt.call_inline_ns"] + e["rt.mailbox_ns"]
	// What is left of a warm call once the layers reachable from outside
	// are taken away: pending table, futures, timers, dispatch.
	e["rt.residual_ns"] = warmCall - outside - hops

	var path float64 // ns along the blocking path of this workload's median op
	switch workload {
	case "procs_tcp":
		path = warmCall - hops + e["transport.tcp_rtt_small_us"]*1e3
	case "cold_bind":
		// The L2 path: client miss, agent miss, class lookup, then the
		// call itself and the cache insert that evicts.
		path = e["bindagent.resolve_us"]*1e3 + e["binding.add_evict_ns"] + warmCall
	default:
		path = warmCall
	}
	e["budget.coverage"] = path / (e["op_p50_us"] * 1e3)

	e["des.net_hop_us"] = e["transport.mem_hop_ns"] / 1e3
	e["des.agent_self_us"] = e["bindagent.resolve_us"] - e["class.getbinding_us"]
	e["des.class_self_us"] = e["class.getbinding_us"]
	e["des.activate_self_us"] = e["magistrate.activate_us"] - e["host.start_us"]
	e["des.host_self_us"] = e["host.start_us"]
}
