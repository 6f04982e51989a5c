// Package bench holds one testing.B benchmark per experiment in
// EXPERIMENTS.md (E1..E12). The narrative tables are produced by
// cmd/legion-bench; these benchmarks measure the steady-state per-
// operation cost of the same mechanisms, so regressions show up in
// `go test -bench=. -benchmem`.
package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/class"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func buildSim(b *testing.B, cfg sim.Config) *sim.Sim {
	b.Helper()
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	s, err := sim.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

func mustCall(b *testing.B, c *rt.Caller, target loid.LOID, method string, args ...[]byte) *rt.Result {
	b.Helper()
	res, err := c.Call(target, method, args...)
	if err != nil {
		b.Fatal(err)
	}
	if res.Code != wire.OK {
		b.Fatalf("%s: %v %s", method, res.Code, res.ErrText)
	}
	return res
}

// mustOK is the guard for benchmark goroutines spawned by
// b.RunParallel: b.Fatal must only be called from the benchmark
// goroutine itself, so parallel bodies report through b.Error and
// return false so the body can bail out.
func mustOK(b *testing.B, res *rt.Result, err error) bool {
	if err != nil {
		b.Error(err)
		return false
	}
	if res.Code != wire.OK {
		b.Errorf("call failed: %v %s", res.Code, res.ErrText)
		return false
	}
	return true
}

// mustNoErr is the non-parallel helper for setup errors in benchmarks.
func mustNoErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE1BindingPath measures one invocation with the binding
// present at each level of the Fig 17 escalation path.
func BenchmarkE1BindingPath(b *testing.B) {
	s := buildSim(b, sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
	obj := s.Flat[0]
	cli := s.Clients[0]
	cl := s.Classes[0]
	mag := magistrate.NewClient(s.Sys.BootClient(), s.Sys.Jurisdictions[0].Magistrate)
	mustCall(b, cli, obj, "Work")

	b.Run("L0-local-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustCall(b, cli, obj, "Work")
		}
	})
	b.Run("L1-agent-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cli.Cache().InvalidateLOID(obj)
			mustCall(b, cli, obj, "Work")
		}
	})
	b.Run("L2-class-table", func(b *testing.B) {
		leaf := s.Sys.Leaves[0]
		for i := 0; i < b.N; i++ {
			cli.Cache().InvalidateLOID(obj)
			if res, err := s.Sys.BootClient().CallAddr(leaf.Addr, leaf.LOID, "InvalidateLOID", wire.LOID(obj)); err != nil || res.Code != wire.OK {
				b.Fatal(err)
			}
			mustCall(b, cli, obj, "Work")
		}
	})
	b.Run("L3-magistrate-activate", func(b *testing.B) {
		leaf := s.Sys.Leaves[0]
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := mag.Deactivate(obj); err != nil {
				b.Fatal(err)
			}
			if err := cl.NotifyDeactivated(obj); err != nil {
				b.Fatal(err)
			}
			cli.Cache().InvalidateLOID(obj)
			s.Sys.BootClient().CallAddr(leaf.Addr, leaf.LOID, "InvalidateLOID", wire.LOID(obj))
			b.StartTimer()
			mustCall(b, cli, obj, "Work")
		}
	})
}

// BenchmarkE2CacheSweep measures per-reference cost as the client
// binding cache shrinks below the working set (§5.2.1).
func BenchmarkE2CacheSweep(b *testing.B) {
	for _, size := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("cache=%d", size), func(b *testing.B) {
			s := buildSim(b, sim.Config{
				Classes: 1, ObjectsPerClass: 64, Clients: 1,
				ClientCacheSize: size, Seed: 42,
			})
			cli := s.Clients[0]
			for _, o := range s.Flat { // warm all levels above the client
				mustCall(b, cli, o, "Work")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, cli, s.Flat[i%len(s.Flat)], "Work")
			}
		})
	}
}

// BenchmarkE3CombiningTree measures a cold binding resolution under
// flat agents vs a fanout-4 tree (§5.2.2).
func BenchmarkE3CombiningTree(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		fanout int
	}{{"flat", 0}, {"tree-fanout4", 4}} {
		b.Run(cfg.name, func(b *testing.B) {
			s := buildSim(b, sim.Config{
				LeafAgents: 4, AgentFanout: cfg.fanout,
				Classes: 1, ObjectsPerClass: 8, Clients: 1, ClientCacheSize: 1,
			})
			cli := s.Clients[0]
			for _, o := range s.Flat {
				mustCall(b, cli, o, "Work")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, cli, s.Flat[i%len(s.Flat)], "Work")
			}
		})
	}
}

// BenchmarkE4ClassCloning measures Create throughput with and without
// clones of a hot class (§5.2.2).
func BenchmarkE4ClassCloning(b *testing.B) {
	for _, clones := range []int{0, 3} {
		b.Run(fmt.Sprintf("clones=%d", clones), func(b *testing.B) {
			s := buildSim(b, sim.Config{
				Jurisdictions: 2, HostsPerJurisdiction: 2,
				Classes: 1, ObjectsPerClass: 1, Clients: 1,
			})
			targets := []*class.Client{s.Classes[0]}
			for i := 0; i < clones; i++ {
				cloneL, cloneB, err := s.Classes[0].Clone(loid.Nil)
				if err != nil {
					b.Fatal(err)
				}
				s.Sys.BootClient().AddBinding(cloneB)
				targets = append(targets, class.NewClient(s.Sys.BootClient(), cloneL))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := targets[i%len(targets)].Create(nil, loid.Nil, loid.Nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5StaleBindings measures the repaired-call cost: every
// iteration deactivates the object so the cached binding is stale and
// the communication layer must refresh it (§4.1.4).
func BenchmarkE5StaleBindings(b *testing.B) {
	s := buildSim(b, sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
	obj := s.Flat[0]
	cli := s.Clients[0]
	mag := magistrate.NewClient(s.Sys.BootClient(), s.Sys.Jurisdictions[0].Magistrate)
	mustCall(b, cli, obj, "Work")
	b.Run("healthy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustCall(b, cli, obj, "Work")
		}
	})
	b.Run("stale-per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := mag.Deactivate(obj); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			mustCall(b, cli, obj, "Work") // detect stale, refresh, reactivate
		}
	})
}

// BenchmarkE6Lifecycle measures one deactivate+reactivate cycle per
// state size (Fig 11).
func BenchmarkE6Lifecycle(b *testing.B) {
	for _, size := range []uint64{0, 1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("state=%d", size), func(b *testing.B) {
			s := buildSim(b, sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
			obj := s.Flat[0]
			cli := s.Clients[0]
			mag := magistrate.NewClient(s.Sys.BootClient(), s.Sys.Jurisdictions[0].Magistrate)
			mustCall(b, cli, obj, "Pad", wire.Uint64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mag.Deactivate(obj); err != nil {
					b.Fatal(err)
				}
				if _, err := mag.Activate(obj, loid.Nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Replication measures one call to a 3-replica object under
// each address semantic (§4.3).
func BenchmarkE7Replication(b *testing.B) {
	for _, sem := range []oa.Semantic{oa.SemAll, oa.SemRandom, oa.SemOrdered} {
		b.Run(sem.String(), func(b *testing.B) {
			s := buildSim(b, sim.Config{
				Jurisdictions: 1, HostsPerJurisdiction: 3,
				Classes: 1, ObjectsPerClass: 1, Clients: 1,
			})
			repLOID := loid.New(900, 1, loid.DeriveKey("replicated"))
			var elems []oa.Element
			for _, hl := range s.Sys.Jurisdictions[0].Hosts {
				hc := host.NewClient(s.Sys.BootClient(), hl)
				addr, err := hc.StartObject(repLOID, sim.WorkerImplName, nil)
				if err != nil {
					b.Fatal(err)
				}
				elems = append(elems, addr.Primary())
			}
			cli := s.Clients[0]
			cli.AddBinding(bindingForeverB(repLOID, oa.Replicated(sem, 1, elems...)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, cli, repLOID, "Work")
			}
		})
	}
}

// BenchmarkE8Creation measures Create and Derive (§3.7, §4.2).
func BenchmarkE8Creation(b *testing.B) {
	b.Run("create", func(b *testing.B) {
		s := buildSim(b, sim.Config{
			Jurisdictions: 2, HostsPerJurisdiction: 2,
			Classes: 1, ObjectsPerClass: 1, Clients: 1,
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Classes[0].Create(nil, loid.Nil, loid.Nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("derive", func(b *testing.B) {
		s := buildSim(b, sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Classes[0].Derive(fmt.Sprintf("S%d", i), "", nil, 0, loid.Nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9SystemScale measures a 95%-local reference as the system
// grows; per-op cost should stay flat (§5.2).
func BenchmarkE9SystemScale(b *testing.B) {
	for _, hosts := range []int{2, 8} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			s := buildSim(b, sim.Config{
				Jurisdictions: hosts / 2, HostsPerJurisdiction: 2,
				LeafAgents: hosts / 2, AgentFanout: 4,
				Classes: 2, ObjectsPerClass: hosts * 2, Clients: 1, Seed: 5,
			})
			cli := s.Clients[0]
			home := s.Flat[:4]
			for _, o := range home {
				mustCall(b, cli, o, "Work")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var target loid.LOID
				if i%20 != 0 { // 95% local
					target = home[i%len(home)]
				} else {
					target = s.Flat[i%len(s.Flat)]
				}
				mustCall(b, cli, target, "Work")
			}
		})
	}
}

// BenchmarkE10ClassLocation measures a cold resolve through class
// chains of increasing depth (§4.1.3).
func BenchmarkE10ClassLocation(b *testing.B) {
	for _, depth := range []int{1, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := buildSim(b, sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
			cur := s.Classes[0]
			boot := s.Sys.BootClient()
			for d := 0; d < depth; d++ {
				subL, subB, err := cur.Derive(fmt.Sprintf("C%d", d), "", nil, 0, loid.Nil)
				if err != nil {
					b.Fatal(err)
				}
				boot.AddBinding(subB)
				cur = class.NewClient(boot, subL)
			}
			obj, _, err := cur.Create(nil, loid.Nil, loid.Nil)
			if err != nil {
				b.Fatal(err)
			}
			cli := s.Clients[0]
			leaf := s.Sys.Leaves[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cli.Cache().InvalidateLOID(obj)
				// Cold agent: drop the object binding; keep pair caches,
				// which is the steady state the paper argues from.
				boot.CallAddr(leaf.Addr, leaf.LOID, "InvalidateLOID", wire.LOID(obj))
				b.StartTimer()
				mustCall(b, cli, obj, "Work")
			}
		})
	}
}

// BenchmarkE11Inheritance measures instance creation for classes with
// increasing numbers of InheritFrom bases (§2.1).
func BenchmarkE11Inheritance(b *testing.B) {
	for _, bases := range []int{0, 4} {
		b.Run(fmt.Sprintf("bases=%d", bases), func(b *testing.B) {
			s := buildSim(b, sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
			boot := s.Sys.BootClient()
			target := s.Classes[0]
			for i := 0; i < bases; i++ {
				implName := fmt.Sprintf("bench.base%d", i)
				method := fmt.Sprintf("M%d", i)
				ifc := idl.NewInterface(fmt.Sprintf("B%d", i), idl.MethodSig{Name: method})
				s.Sys.Impls.MustRegister(implName, func() rt.Impl {
					return &rt.Behavior{Iface: ifc, Handlers: map[string]rt.Handler{
						method: func(*rt.Invocation) ([][]byte, error) { return nil, nil },
					}}
				})
				baseL, baseB, err := s.Classes[0].Derive(fmt.Sprintf("B%d", i), implName, ifc, 0, loid.Nil)
				if err != nil {
					b.Fatal(err)
				}
				boot.AddBinding(baseB)
				if err := target.InheritFrom(baseL); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := target.Create(nil, loid.Nil, loid.Nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12Security measures per-call MayI overhead (§2.4).
func BenchmarkE12Security(b *testing.B) {
	policies := []struct {
		name   string
		policy security.Policy
	}{
		{"none", nil},
		{"allow-all", security.AllowAll{}},
		{"acl", nil},       // filled below
		{"keyed-acl", nil}, // filled below
	}
	for i := range policies {
		p := &policies[i]
		b.Run(p.name, func(b *testing.B) {
			s := buildSim(b, sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
			obj := s.Flat[0]
			cli := s.Clients[0]
			caller := loid.New(300, 1, loid.DeriveKey("client/0"))
			switch p.name {
			case "acl":
				a := security.NewACL(nil)
				a.Allow(caller, "*")
				p.policy = a
			case "keyed-acl":
				k := security.NewKeyedACL()
				k.Allow(caller, "*")
				p.policy = k
			}
			o, ok := s.Sys.FindObject(obj)
			if !ok {
				b.Fatal("object not found")
			}
			o.SetPolicy(p.policy)
			mustCall(b, cli, obj, "Work")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, cli, obj, "Work")
			}
		})
	}
}

func bindingForeverB(l loid.LOID, addr oa.Address) binding.Binding {
	return binding.Forever(l, addr)
}

// BenchmarkParallelInvoke measures end-to-end invocation throughput
// under concurrency: GOMAXPROCS client callers sharing one client node
// hammer a single object on one server node. It exercises the whole
// fast path at once — binding-cache Get, caller randomness, the node's
// pending-future table, marshal buffers, and the transport — so lock
// contention anywhere on that path shows up as lost ops/sec. There is
// no corresponding paper figure: this backs the qualitative scalability
// claim of §5.2.1 that a cached binding makes an invocation as close to
// a raw message send as possible, under load. Run with -benchmem; see
// EXPERIMENTS.md.
//
// mem and tcp call an inline leaf whose Work returns nothing, so their
// allocs/op is the runtime's own cost of a whole call, caller and server.
// mem-mailbox is the call the benchmark rig's rt.allocs_per_call counts:
// default mailbox dispatch to a sim.worker, whose Work returns one 8-byte
// result (the handler's result slice and bytes are two of its allocs).
func BenchmarkParallelInvoke(b *testing.B) {
	b.Run("mem", func(b *testing.B) {
		f := transport.NewFabric(nil)
		defer f.Close()
		benchParallelInvoke(b, f, f, nil, false)
	})
	b.Run("tcp", func(b *testing.B) {
		benchParallelInvoke(b, &transport.TCP{}, &transport.TCP{}, nil, false)
	})
	b.Run("mem-mailbox", func(b *testing.B) {
		f := transport.NewFabric(nil)
		defer f.Close()
		benchParallelInvoke(b, f, f, nil, true)
	})
}

// BenchmarkParallelInvokeTraced is BenchmarkParallelInvoke with the
// distributed tracer installed at the default 1-in-64 sampling AND the
// observability plane's serve-path observer — the configuration
// legiond's -debug-addr turns on. The acceptance bar is that it stays
// within a few percent of the untraced numbers (EXPERIMENTS.md records
// both): an unsampled call pays one atomic load plus one atomic add,
// the sampled 1-in-64 pays span assembly, and the observer pays two
// interned-histogram observes — zero allocations in steady state.
func BenchmarkParallelInvokeTraced(b *testing.B) {
	tracer := func() *trace.Tracer {
		return trace.New(trace.Config{SampleEvery: trace.DefaultSampleEvery})
	}
	b.Run("mem", func(b *testing.B) {
		f := transport.NewFabric(nil)
		defer f.Close()
		benchParallelInvoke(b, f, f, tracer(), false)
	})
	b.Run("tcp", func(b *testing.B) {
		benchParallelInvoke(b, &transport.TCP{}, &transport.TCP{}, tracer(), false)
	})
}

// benchParallelInvoke drives Work at one object: an inline leaf, or with
// mailbox a default-option sim.worker. The server node is built on srvTr
// and the client node on cliTr; the tcp rows pass two TCP values, as two
// processes would have, so each call crosses a real socket rather than
// the same-process path.
func benchParallelInvoke(b *testing.B, srvTr, cliTr transport.Transport, tracer *trace.Tracer, mailbox bool) {
	server, err := rt.NewNode(srvTr, nil, "bench-srv")
	mustNoErr(b, err)
	defer server.Close()
	clientNode, err := rt.NewNode(cliTr, nil, "bench-cli")
	mustNoErr(b, err)
	defer clientNode.Close()
	if tracer != nil {
		server.SetTracer(tracer)
		clientNode.SetTracer(tracer)
		// The serve-path observer rides along wherever the tracer does
		// (legiond installs both behind -debug-addr); it must not move
		// the allocation count.
		server.SetObserver(obs.NewNodeObserver(metrics.NewRegistry(), obs.NewRecorder("bench", 256), 0))
	}

	target := loid.New(700, 1, loid.DeriveKey("bench/parallel"))
	if mailbox {
		_, err = server.Spawn(target, sim.NewWorkerImpl())
	} else {
		impl := &rt.Behavior{
			Iface: idl.NewInterface("BenchWorker", idl.MethodSig{Name: "Work"}),
			Handlers: map[string]rt.Handler{
				"Work": func(*rt.Invocation) ([][]byte, error) { return nil, nil },
			},
		}
		// Work is a leaf method (no nested calls, never blocks), so it is
		// exactly what inline dispatch is for: requests execute on the
		// delivering goroutine with no mailbox handoff.
		_, err = server.Spawn(target, impl, rt.WithConcurrency(runtime.GOMAXPROCS(0)), rt.WithInlineDispatch())
	}
	mustNoErr(b, err)
	bind := binding.Forever(target, server.Address())

	var callerSeq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := callerSeq.Add(1)
		c := rt.NewCaller(clientNode, loid.New(701, id, loid.DeriveKey(fmt.Sprintf("bench/cli/%d", id))), nil)
		c.Timeout = 10 * time.Second
		c.AddBinding(bind)
		for pb.Next() {
			res, err := c.Call(target, "Work")
			if !mustOK(b, res, err) {
				return
			}
		}
	})
}

// BenchmarkE13Propagation measures one stale-chase round (deactivate,
// then all clients call) with binding propagation off vs on (§4.1.4).
func BenchmarkE13Propagation(b *testing.B) {
	for _, subscribed := range []bool{false, true} {
		name := "off"
		if subscribed {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			s := buildSim(b, sim.Config{
				LeafAgents: 4, Clients: 4, HostsPerJurisdiction: 3,
				Classes: 1, ObjectsPerClass: 8, Seed: 21,
			})
			cl := s.Classes[0]
			if subscribed {
				for _, leaf := range s.Sys.Leaves {
					if err := cl.SubscribeAgent(leaf.LOID, leaf.Addr); err != nil {
						b.Fatal(err)
					}
				}
			}
			for _, c := range s.Clients {
				for _, o := range s.Flat {
					mustCall(b, c, o, "Work")
				}
			}
			mag := magistrate.NewClient(s.Sys.BootClient(), s.Sys.Jurisdictions[0].Magistrate)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target := s.Flat[i%len(s.Flat)]
				if err := mag.Deactivate(target); err != nil {
					b.Fatal(err)
				}
				for _, c := range s.Clients {
					mustCall(b, c, target, "Work")
				}
			}
		})
	}
}

// BenchmarkE14Scheduling measures one unpinned Create under the
// magistrate default vs a least-loaded Scheduling Agent (§3.7).
func BenchmarkE14Scheduling(b *testing.B) {
	for _, policy := range []string{"round-robin", "least-loaded-agent"} {
		b.Run(policy, func(b *testing.B) {
			s := buildSim(b, sim.Config{
				HostsPerJurisdiction: 3,
				Classes:              1, ObjectsPerClass: 1, Clients: 1,
			})
			if policy == "least-loaded-agent" {
				agent, err := s.Sys.NewSchedulingAgent(core.SchedLeastLoadedImpl)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Classes[0].SetDefaultSchedulingAgent(agent); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Classes[0].Create(nil, loid.Nil, loid.Nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE15WideArea measures a cached reference under simulated
// wide-area latency (hop count dominates; §1, §5.2).
func BenchmarkE15WideArea(b *testing.B) {
	s := buildSim(b, sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1, CallTimeout: 30 * time.Second})
	s.Sys.Fabric.SetLatency(time.Millisecond)
	obj := s.Flat[0]
	cli := s.Clients[0]
	mustCall(b, cli, obj, "Work")
	b.Run("L0-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustCall(b, cli, obj, "Work")
		}
	})
	b.Run("L1-agent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cli.Cache().InvalidateLOID(obj)
			mustCall(b, cli, obj, "Work")
		}
	})
}

// BenchmarkCheckpointStorm measures the jurisdiction store under a
// checkpoint storm: 64 writers per core Put OPRs as fast as they can,
// and every acknowledged Put must be durable. In the append-only
// SegmentStore concurrent writers pile onto one group commit and share
// a single fsync.
func BenchmarkCheckpointStorm(b *testing.B) {
	storm := func(b *testing.B, st persist.Store) {
		state := make([]byte, 256)
		for i := range state {
			state[i] = byte(i)
		}
		var seq atomic.Uint64
		b.SetBytes(int64(len(state)))
		// A storm means many hosts flushing at once — far more writers
		// than cores. Group commit only shows its absorption with
		// concurrent blocked writers, so oversubscribe deliberately.
		b.SetParallelism(64)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				o := persist.OPR{
					LOID:  loid.NewNoKey(990, seq.Add(1)),
					Impl:  "bench/storm",
					State: state,
				}
				if _, err := st.Put(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("segment", func(b *testing.B) {
		st, err := persist.NewSegmentStore(b.TempDir(), persist.SegmentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		storm(b, st)
	})
}
