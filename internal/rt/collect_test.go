//go:build go1.24

package rt

import (
	"context"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/loid"
	"repro/internal/wire"
)

// TestKilledObjectCollectable: once an object that has served calls is
// killed, nothing in the runtime keeps its Impl alive — in particular
// not the dispatch goroutine that served it, now idle in the pool.
func TestKilledObjectCollectable(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	srv := nodes[0]
	c := clientOn(nodes[1], clientLOID)
	l := loid.NewNoKey(505, 1)
	impl := &echoImpl{}
	wp := weak.Make(impl)
	if _, err := srv.Spawn(l, impl); err != nil {
		t.Fatal(err)
	}
	impl = nil
	for i := 0; i < 3; i++ {
		res, err := c.CallAddrCtx(context.Background(), srv.Address(), l, "Echo", []byte("x"))
		if err != nil || res.Code != wire.OK {
			t.Fatalf("call: %v %v", res, err)
		}
	}
	srv.Kill(l)
	// The serving goroutine may still be on its way back to idle.
	deadline := time.Now().Add(5 * time.Second)
	for wp.Value() != nil && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if wp.Value() != nil {
		t.Error("a killed object's Impl is still reachable")
	}
}
