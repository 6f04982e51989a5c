package rt

import (
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestCallSurvivesMessageLoss injects probabilistic loss and checks
// that the communication layer's retransmission keeps calls
// succeeding (§4.1.4: the layer absorbs transient failures).
func TestCallSurvivesMessageLoss(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	n0, _ := NewNode(f, nil, "srv")
	defer n0.Close()
	n1, _ := NewNode(f, nil, "cli")
	defer n1.Close()
	spawnEcho(t, n0, echoLOID)

	r := newMapResolver()
	r.set(binding.Forever(echoLOID, n0.Address()))
	c := NewCaller(n1, clientLOID, r)
	c.Timeout = 100 * time.Millisecond
	c.Retry.MaxAttempts = 13

	f.SetLoss(0.25, 7) // 25% of all messages vanish
	okCount := 0
	for i := 0; i < 30; i++ {
		res, err := c.Call(echoLOID, "Echo", []byte("x"))
		if err == nil && res.Code == wire.OK {
			okCount++
		}
	}
	// With 12 rounds of retransmission per call, the failure
	// probability per call is negligible.
	if okCount < 28 {
		t.Errorf("only %d/30 calls survived 25%% loss", okCount)
	}
}

// TestCallSurvivesLossWithoutResolver checks the retransmit path when
// there is no resolver at all: the cached binding is valid, messages
// are just being dropped.
func TestCallSurvivesLossWithoutResolver(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	n0, _ := NewNode(f, nil, "srv")
	defer n0.Close()
	n1, _ := NewNode(f, nil, "cli")
	defer n1.Close()
	spawnEcho(t, n0, echoLOID)

	c := NewCaller(n1, clientLOID, nil)
	c.Timeout = 100 * time.Millisecond
	c.Retry.MaxAttempts = 13
	c.AddBinding(binding.Forever(echoLOID, n0.Address()))

	f.SetLoss(0.25, 11)
	okCount := 0
	for i := 0; i < 30; i++ {
		res, err := c.Call(echoLOID, "Echo", []byte("x"))
		if err == nil && res.Code == wire.OK {
			okCount++
		}
	}
	if okCount < 28 {
		t.Errorf("only %d/30 calls survived loss without resolver", okCount)
	}
}

// TestPartitionAndHeal checks that a network partition makes calls
// fail cleanly and that they recover when the partition heals.
func TestPartitionAndHeal(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	n0, _ := NewNode(f, nil, "srv")
	defer n0.Close()
	n1, _ := NewNode(f, nil, "cli")
	defer n1.Close()
	spawnEcho(t, n0, echoLOID)

	c := NewCaller(n1, clientLOID, nil)
	c.Timeout = 100 * time.Millisecond
	c.Retry.MaxAttempts = 2
	c.AddBinding(binding.Forever(echoLOID, n0.Address()))

	srvID, _ := oa.MemID(n0.Element())
	cliID, _ := oa.MemID(n1.Element())
	f.Block(srvID, cliID)
	res, err := c.Call(echoLOID, "Echo", []byte("x"))
	if err == nil && res.Code == wire.OK {
		t.Fatal("call succeeded across a partition")
	}
	f.Unblock(srvID, cliID)
	c.AddBinding(binding.Forever(echoLOID, n0.Address())) // cache may have dropped it
	res, err = c.Call(echoLOID, "Echo", []byte("x"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call after heal: %v %v", res, err)
	}
}

// TestPartitionHealRecoversViaResolver: with a resolver present (the
// normal deployment shape — §3.6 Binding Agents), a healed partition
// needs NO manual cache intervention: the failed call invalidates the
// cached binding, the refresh path re-resolves, and the cache ends the
// episode warm again.
func TestPartitionHealRecoversViaResolver(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	n0, _ := NewNode(f, nil, "srv")
	defer n0.Close()
	n1, _ := NewNode(f, nil, "cli")
	defer n1.Close()
	spawnEcho(t, n0, echoLOID)

	r := newMapResolver()
	r.set(binding.Forever(echoLOID, n0.Address()))
	c := NewCaller(n1, clientLOID, r)
	c.Timeout = 100 * time.Millisecond
	c.Retry.MaxAttempts = 2

	// Warm the cache, then partition.
	if res, err := c.Call(echoLOID, "Echo", []byte("warm")); err != nil || res.Code != wire.OK {
		t.Fatalf("warm call: %v %v", res, err)
	}
	srvID, _ := oa.MemID(n0.Element())
	cliID, _ := oa.MemID(n1.Element())
	f.Block(srvID, cliID)
	if res, err := c.Call(echoLOID, "Echo", []byte("x")); err == nil && res.Code == wire.OK {
		t.Fatal("call succeeded across a partition")
	}

	// Heal. The next call must succeed with no manual AddBinding or
	// cache invalidation — resolution machinery alone recovers it.
	f.Unblock(srvID, cliID)
	res, err := c.Call(echoLOID, "Echo", []byte("y"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call after heal (no manual cache repair): %v %v", res, err)
	}
	// And the cache is warm again: one more call must not consult the
	// resolver.
	r.mu.Lock()
	before := r.resolves + r.refreshs
	r.mu.Unlock()
	if res, err := c.Call(echoLOID, "Echo", []byte("z")); err != nil || res.Code != wire.OK {
		t.Fatalf("post-heal cached call: %v %v", res, err)
	}
	r.mu.Lock()
	after := r.resolves + r.refreshs
	r.mu.Unlock()
	if after != before {
		t.Errorf("binding cache not recovered: resolver consulted %d more times", after-before)
	}
}

// TestLatencyDoesNotBreakProtocol runs the full request/reply exchange
// under simulated wide-area latency.
func TestLatencyDoesNotBreakProtocol(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	f.SetLatency(20 * time.Millisecond)
	n0, _ := NewNode(f, nil, "srv")
	defer n0.Close()
	n1, _ := NewNode(f, nil, "cli")
	defer n1.Close()
	spawnEcho(t, n0, echoLOID)
	c := clientOn(n1, clientLOID)
	c.AddBinding(binding.Forever(echoLOID, n0.Address()))
	start := time.Now()
	res, err := c.Call(echoLOID, "Echo", []byte("x"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call: %v %v", res, err)
	}
	if rtt := time.Since(start); rtt < 35*time.Millisecond {
		t.Errorf("round trip %v, want >= ~40ms under 20ms one-way latency", rtt)
	}
}

// TestExpiredBindingTriggersResolution: a TTL'd binding that has
// lapsed must not be used; the resolver is consulted again.
func TestExpiredBindingTriggersResolution(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	n0, _ := NewNode(f, nil, "srv")
	defer n0.Close()
	n1, _ := NewNode(f, nil, "cli")
	defer n1.Close()
	spawnEcho(t, n0, echoLOID)

	r := newMapResolver()
	r.set(binding.Forever(echoLOID, n0.Address()))
	c := NewCaller(n1, clientLOID, r)
	c.Timeout = time.Second
	// Seed an already-expiring binding.
	c.AddBinding(binding.Until(echoLOID, n0.Address(), time.Now().Add(20*time.Millisecond)))
	time.Sleep(40 * time.Millisecond)
	res, err := c.Call(echoLOID, "Echo", []byte("x"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call after expiry: %v %v", res, err)
	}
	if r.resolves == 0 {
		t.Error("resolver never consulted despite expired binding")
	}
}

// TestPanicInHandlerIsConfined: a panicking method is reported as an
// object exception (ErrApp), and the object keeps serving.
func TestPanicInHandlerIsConfined(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	impl := &Behavior{
		Iface: idl.NewInterface("Panicky",
			idl.MethodSig{Name: "Boom"}, idl.MethodSig{Name: "Fine"}),
		Handlers: map[string]Handler{
			"Boom": func(inv *Invocation) ([][]byte, error) {
				panic("kaboom")
			},
			"Fine": func(inv *Invocation) ([][]byte, error) {
				return [][]byte{[]byte("ok")}, nil
			},
		},
	}
	l := loid.NewNoKey(256, 50)
	if _, err := nodes[0].Spawn(l, impl); err != nil {
		t.Fatal(err)
	}
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(l, nodes[0].Address()))
	res, err := c.Call(l, "Boom")
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.ErrApp {
		t.Errorf("panic reported as %v", res.Code)
	}
	res, err = c.Call(l, "Fine")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("object died after panic: %v %v", res, err)
	}
}
