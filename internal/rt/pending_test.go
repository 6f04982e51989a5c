package rt

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/binding"
	"repro/internal/buf"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestPendingTableCallerShards: K callers on one node, more than there
// are shards, mix every way a call enters and leaves the pending table:
// sync calls, InvokeCtx futures, cancelled contexts, reply timeouts, a
// two-element wave one of whose sends fails locally (adjustPending) and
// co-resident calls that bypass the table. Every reply reaches its own
// future; every id a caller draws carries its shard and is drawn once;
// the table is empty afterwards; and each node's Served is the exact
// number of serves, the co-resident ones included. It also caught a
// pooled reply timer whose fire was still in flight ending a later
// call's wave with a false timeout (putTimer). CI runs it at -race -cpu
// 1,2,4,8.
func TestPendingTableCallerShards(t *testing.T) {
	if s, c := unsafe.Sizeof(pendingShard{}), unsafe.Sizeof(serveStripe{}); s != lineSize || c != lineSize {
		t.Fatalf("pending shard %d B, serve stripe %d B, want %d each", s, c, lineSize)
	}
	fab, nodes := newTestFabricNodes(t, 2)
	local, remote := loid.NewNoKey(256, 2), echoLOID
	// Concurrent, so a co-resident call bypasses the table.
	spawnEcho(t, nodes[0], local, WithConcurrency(4))
	spawnEcho(t, nodes[1], remote)
	silent, err := fab.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	silent.SetFrameHandler(func(*buf.Buffer, []byte, bool) {})
	t.Cleanup(func() { silent.Close() })
	dead, err := fab.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	deadElem := dead.Element()
	dead.Close()

	const (
		callers = pendingShards + 4
		rounds  = 8
	)
	var (
		idMu sync.Mutex
		ids  = map[uint64]bool{}
	)
	cs := make([]*Caller, callers)
	shards := map[uint8]int{}
	for k := range cs {
		cs[k] = clientOn(nodes[0], loid.NewNoKey(300, uint64(k+1)))
		cs[k].AddBinding(binding.Forever(remote, nodes[1].Address()))
		cs[k].AddBinding(binding.Forever(local, nodes[0].Address()))
		shards[cs[k].shard]++
	}
	if len(shards) != pendingShards {
		t.Fatalf("%d callers were dealt %d shards, want all %d", callers, len(shards), pendingShards)
	}
	var drawn, remoteServes, localServes atomic.Uint64
	var wg sync.WaitGroup
	for k, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arg := make([]byte, 16)
			for r := range rounds {
				binary.BigEndian.PutUint64(arg, uint64(k))
				binary.BigEndian.PutUint64(arg[8:], uint64(r))
				own := func(what string, res *Result, err error) {
					if err != nil || res.Code != wire.OK || len(res.Results) != 1 || string(res.Results[0]) != string(arg) {
						t.Errorf("caller %d round %d %s: %v %v, want its own reply", k, r, what, res, err)
					}
				}
				// A sync call: one id, one serve on node 1.
				res, err := c.Call(remote, "Echo", arg)
				own("sync", res, err)
				drawn.Add(1)
				remoteServes.Add(1)

				// An InvokeCtx future: the id it holds is this
				// caller's shard's, and no other call has drawn it.
				f, err := c.InvokeCtx(context.Background(), remote, "Echo", arg)
				if err != nil {
					t.Error(err)
					return
				}
				drawn.Add(1)
				remoteServes.Add(1)
				idMu.Lock()
				if ids[f.id] || uint8(f.id&(pendingShards-1)) != c.shard {
					t.Errorf("caller %d (shard %d) drew id %#x: reused %v", k, c.shard, f.id, ids[f.id])
				}
				ids[f.id] = true
				idMu.Unlock()
				res, err = f.Wait(time.Second)
				own("future", res, err)

				// A cancelled context and a reply timeout to an
				// endpoint that never answers: each id leaves the
				// table through cancel.
				cancelled, cancel := context.WithCancel(context.Background())
				cancel()
				if res, err := c.CallAddrCtx(cancelled, oa.Single(silent.Element()), remote, "Echo", arg); err != nil || res.Code != wire.ErrDeadlineExceeded {
					t.Errorf("cancelled call: %v %v", res, err)
				}
				c.Timeout = 2 * time.Millisecond
				if res, err := c.CallAddrCtx(context.Background(), oa.Single(silent.Element()), remote, "Echo", arg); err != nil || res.Code != wire.ErrUnavailable || res.ErrText != ErrTimeout.Error() {
					t.Errorf("timed-out call: %v %v", res, err)
				}
				c.Timeout = time.Second
				drawn.Add(2)

				// A two-element wave whose send to a closed endpoint
				// fails locally: adjustPending expects one reply.
				wave := oa.Replicated(oa.SemAll, 0, deadElem, nodes[1].Element())
				if r%2 == 1 {
					wave = oa.Replicated(oa.SemAll, 0, nodes[1].Element(), deadElem)
				}
				res, err = c.CallAddrCtx(context.Background(), wave, remote, "Echo", arg)
				own("wave", res, err)
				drawn.Add(1)
				remoteServes.Add(1)

				// A co-resident call: no id, one serve on node 0.
				res, err = c.Call(local, "Echo", arg)
				own("co-resident", res, err)
				localServes.Add(1)
			}
		}()
	}
	wg.Wait()

	seq := uint64(0)
	for i := range nodes[0].pending {
		s := &nodes[0].pending[i]
		s.mu.Lock()
		if len(s.m) != 0 {
			t.Errorf("shard %d holds %d futures after every call returned", i, len(s.m))
		}
		seq += s.seq
		s.mu.Unlock()
	}
	if want := drawn.Load(); seq != want {
		t.Errorf("the shards drew %d ids, want one per call that left the node (%d)", seq, want)
	}
	if got, want := nodes[1].Served(), remoteServes.Load(); got != want {
		t.Errorf("node 1 Served = %d, want %d", got, want)
	}
	if got, want := nodes[0].Served(), localServes.Load(); got != want {
		t.Errorf("node 0 Served = %d, want %d (co-resident serves)", got, want)
	}
}

// BenchmarkPendingTable times the caller side's bookkeeping of one call
// alone: the correlation id and table entry (newFuture), the reply's
// match (completeReply) and the future's recycle (putFuture), one Caller
// per goroutine on one node, as warm_mem's callers share their client
// node. Run at -cpu 1,2,4: a line two callers both write shows as ns/op
// that grows with the goroutines.
func BenchmarkPendingTable(b *testing.B) {
	fab := transport.NewFabric(nil)
	defer fab.Close()
	n, err := NewNode(fab, nil, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	reply := wire.AppendReply(nil, 0, loid.Nil, wire.OK, "", nil, n.Address())
	var seq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		c := NewCaller(n, loid.NewNoKey(701, seq.Add(1)), nil)
		var fr wire.Frame
		if err := fr.Parse(reply); err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			f := n.newFuture(c.shard, 1, true)
			fr.ID = f.id
			n.completeReply(&fr)
			<-f.ch
			n.putFuture(f)
		}
	})
}
