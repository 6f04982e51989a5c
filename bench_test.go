// Package bench holds the invocation allocation gates: CI runs
// BenchmarkParallelInvoke and BenchmarkParallelInvokeTraced and fails
// when a whole call costs more allocations than its budget. End-to-end
// performance is measured by the harness under benchmark/.
package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

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
// mem and tcp call a concurrent leaf whose Work returns nothing, so their
// allocs/op is the runtime's own cost of a whole call, caller and server.
// mem-mailbox is the call the benchmark rig's rt.allocs_per_call counts:
// default mailbox dispatch to a sim.worker, whose Work returns one 8-byte
// result (the handler's result slice and bytes are two of its allocs).
// mem-callers is that call in the shape of the warm_mem workload: each
// goroutine calls its own sim.worker through its own Caller, on one
// shared client node, with a real metrics.Registry, so the only lines
// two goroutines can both write are the runtime's own.
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
	b.Run("mem-callers", benchParallelCallers)
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

// benchParallelInvoke drives Work at one object: a leaf spawned
// WithConcurrency(GOMAXPROCS), or with mailbox a default-option
// sim.worker. The server node is built on srvTr and the client node on
// cliTr; the tcp rows pass two TCP values, as two processes would have,
// so each call crosses a real socket rather than the same-process path.
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
		server.SetObserver(obs.NewNodeObserver(metrics.NewRegistry(), obs.NewRecorder("bench")))
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
		// Work keeps no state, so every processor may run it at once: a
		// waiting caller serves its own request from the mailbox.
		_, err = server.Spawn(target, impl, rt.WithConcurrency(runtime.GOMAXPROCS(0)))
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

// benchParallelCallers is the mem-callers row: one Caller and one
// default-option sim.worker per goroutine, the callers sharing one
// client node, both nodes and the fabric counting into one registry.
func benchParallelCallers(b *testing.B) {
	reg := metrics.NewRegistry()
	f := transport.NewFabric(reg)
	defer f.Close()
	server, err := rt.NewNode(f, reg, "bench-srv")
	mustNoErr(b, err)
	defer server.Close()
	clientNode, err := rt.NewNode(f, reg, "bench-cli")
	mustNoErr(b, err)
	defer clientNode.Close()

	var callerSeq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := callerSeq.Add(1)
		target := loid.New(700, id, loid.DeriveKey(fmt.Sprintf("bench/callers/%d", id)))
		if _, err := server.Spawn(target, sim.NewWorkerImpl()); err != nil {
			b.Error(err)
			return
		}
		c := rt.NewCaller(clientNode, loid.New(701, id, loid.DeriveKey(fmt.Sprintf("bench/cli/%d", id))), nil)
		c.Timeout = 10 * time.Second
		c.AddBinding(binding.Forever(target, server.Address()))
		for pb.Next() {
			res, err := c.Call(target, "Work")
			if !mustOK(b, res, err) {
				return
			}
		}
	})
}
