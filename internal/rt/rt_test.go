package rt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/buf"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/wire"
)

// echoImpl answers Echo(x) -> x and counts invocations.
type echoImpl struct {
	mu    sync.Mutex
	calls int
	state []byte
}

func (e *echoImpl) Interface() *idl.Interface {
	return idl.NewInterface("Echo",
		idl.MethodSig{Name: "Echo",
			Params:  []idl.Param{{Name: "x", Type: idl.TBytes}},
			Returns: []idl.Param{{Name: "x", Type: idl.TBytes}}},
		idl.MethodSig{Name: "Fail"},
	)
}

func (e *echoImpl) Dispatch(inv *Invocation) ([][]byte, error) {
	switch inv.Method {
	case "Echo":
		e.mu.Lock()
		e.calls++
		e.mu.Unlock()
		a, err := inv.Arg(0)
		if err != nil {
			return nil, err
		}
		return [][]byte{a}, nil
	case "Fail":
		return nil, errors.New("intentional failure")
	}
	return nil, &NoSuchMethodError{Method: inv.Method}
}

func (e *echoImpl) SaveState() ([]byte, error) { return e.state, nil }
func (e *echoImpl) RestoreState(s []byte) error {
	e.state = append([]byte(nil), s...)
	return nil
}

func newTestFabricNodes(t *testing.T, n int) (*transport.Fabric, []*Node) {
	t.Helper()
	f := transport.NewFabric(nil)
	t.Cleanup(func() { f.Close() })
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := NewNode(f, nil, fmt.Sprintf("n%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = node
	}
	return f, nodes
}

func spawnEcho(t *testing.T, n *Node, l loid.LOID, opts ...SpawnOption) *echoImpl {
	t.Helper()
	impl := &echoImpl{}
	if _, err := n.Spawn(l, impl, opts...); err != nil {
		t.Fatal(err)
	}
	return impl
}

func clientOn(n *Node, self loid.LOID) *Caller {
	c := NewCaller(n, self, nil)
	c.Timeout = time.Second
	return c
}

var (
	echoLOID   = loid.NewNoKey(256, 1)
	clientLOID = loid.NewNoKey(300, 1)
)

func TestCallRoundTrip(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	spawnEcho(t, nodes[0], echoLOID)
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
	res, err := c.Call(echoLOID, "Echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Result(0)
	if err != nil || string(out) != "ping" {
		t.Fatalf("Result = %q, %v", out, err)
	}
}

func TestInvokeIsNonBlocking(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	// slow handler
	block := make(chan struct{})
	impl := &Behavior{
		Iface: idl.NewInterface("Slow", idl.MethodSig{Name: "Slow"}),
		Handlers: map[string]Handler{
			"Slow": func(inv *Invocation) ([][]byte, error) {
				<-block
				return nil, nil
			},
		},
	}
	if _, err := nodes[0].Spawn(loid.NewNoKey(256, 9), impl); err != nil {
		t.Fatal(err)
	}
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(loid.NewNoKey(256, 9), nodes[0].Address()))
	start := time.Now()
	f, err := c.InvokeCtx(context.Background(), loid.NewNoKey(256, 9), "Slow")
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("Invoke blocked")
	}
	close(block)
	if res, err := f.Wait(2 * time.Second); err != nil || res.Code != wire.OK {
		t.Fatalf("Wait = %v, %v", res, err)
	}
}

func TestAppError(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	spawnEcho(t, nodes[0], echoLOID)
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
	res, err := c.Call(echoLOID, "Fail")
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.ErrApp || res.ErrText != "intentional failure" {
		t.Errorf("res = %+v", res)
	}
	if !IsCode(res.Err(), wire.ErrApp) {
		t.Error("IsCode mismatch")
	}
}

func TestNoSuchMethod(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	spawnEcho(t, nodes[0], echoLOID)
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
	res, err := c.Call(echoLOID, "Nope")
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.ErrNoSuchMethod {
		t.Errorf("code = %v", res.Code)
	}
}

func TestNoSuchObjectSignalsStaleBinding(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	c := clientOn(nodes[1], clientLOID)
	c.Retry.MaxAttempts = 1
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
	res, err := c.Call(echoLOID, "Echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.ErrNoSuchObject {
		t.Errorf("code = %v, want no-such-object", res.Code)
	}
}

// mapResolver is a test Resolver backed by a mutable table.
type mapResolver struct {
	mu       sync.Mutex
	table    map[loid.LOID]binding.Binding
	resolves int
	refreshs int
}

func newMapResolver() *mapResolver {
	return &mapResolver{table: make(map[loid.LOID]binding.Binding)}
}

func (m *mapResolver) set(b binding.Binding) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.table[b.LOID.ID()] = b
}

func (m *mapResolver) ResolveCtx(_ context.Context, l loid.LOID) (binding.Binding, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resolves++
	b, ok := m.table[l.ID()]
	if !ok {
		return binding.Binding{}, errors.New("not found")
	}
	return b, nil
}

func (m *mapResolver) RefreshCtx(_ context.Context, stale binding.Binding) (binding.Binding, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshs++
	b, ok := m.table[stale.LOID.ID()]
	if !ok {
		return binding.Binding{}, errors.New("not found")
	}
	return b, nil
}

func TestResolverOnCacheMiss(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	spawnEcho(t, nodes[0], echoLOID)
	r := newMapResolver()
	r.set(binding.Forever(echoLOID, nodes[0].Address()))
	c := NewCaller(nodes[1], clientLOID, r)
	c.Timeout = time.Second
	for i := 0; i < 5; i++ {
		if _, err := c.Call(echoLOID, "Echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if r.resolves != 1 {
		t.Errorf("resolver consulted %d times, want 1 (then cached)", r.resolves)
	}
}

func TestStaleBindingRefreshAfterMigration(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)
	spawnEcho(t, nodes[0], echoLOID)
	r := newMapResolver()
	r.set(binding.Forever(echoLOID, nodes[0].Address()))
	c := NewCaller(nodes[2], clientLOID, r)
	c.Timeout = time.Second
	if _, err := c.Call(echoLOID, "Echo", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// "Migrate": kill on node 0, spawn on node 1, update the resolver
	// (the class would learn the new address), leaving the caller's
	// cached binding stale.
	nodes[0].Kill(echoLOID)
	spawnEcho(t, nodes[1], echoLOID)
	r.set(binding.Forever(echoLOID, nodes[1].Address()))
	res, err := c.Call(echoLOID, "Echo", []byte("2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.OK {
		t.Fatalf("post-migration call failed: %+v", res)
	}
	if r.refreshs != 1 {
		t.Errorf("refreshes = %d, want 1", r.refreshs)
	}
}

func TestRefreshBoundedByMaxRefresh(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	r := newMapResolver()
	r.set(binding.Forever(echoLOID, nodes[0].Address())) // points nowhere useful
	c := NewCaller(nodes[1], clientLOID, r)
	c.Timeout = 200 * time.Millisecond
	c.Retry.MaxAttempts = 4 // the first delivery and three refreshes
	res, err := c.Call(echoLOID, "Echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.ErrNoSuchObject {
		t.Errorf("code = %v", res.Code)
	}
	if r.refreshs != 3 {
		t.Errorf("refreshes = %d, want 3", r.refreshs)
	}
}

func TestUnboundWithoutResolver(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 1)
	c := clientOn(nodes[0], clientLOID)
	if _, err := c.Call(echoLOID, "Echo", []byte("x")); !errors.Is(err, ErrUnbound) {
		t.Errorf("err = %v, want ErrUnbound", err)
	}
}

func TestOneWayDelivery(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	got := make(chan []byte, 1)
	impl := &Behavior{
		Iface: idl.NewInterface("Sink", idl.MethodSig{Name: "Put", OneWay: true,
			Params: []idl.Param{{Name: "x", Type: idl.TBytes}}}),
		Handlers: map[string]Handler{
			"Put": func(inv *Invocation) ([][]byte, error) {
				got <- inv.Args[0]
				return nil, nil
			},
		},
	}
	sink := loid.NewNoKey(256, 2)
	if _, err := nodes[0].Spawn(sink, impl); err != nil {
		t.Fatal(err)
	}
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(sink, nodes[0].Address()))
	if err := c.OneWay(sink, "Put", []byte("datum")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if string(b) != "datum" {
			t.Errorf("got %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("one-way message never arrived")
	}
}

func TestBuiltinPingIamGetInterface(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	self := loid.New(256, 3, loid.DeriveKey("obj"))
	if _, err := nodes[0].Spawn(self, &echoImpl{}); err != nil {
		t.Fatal(err)
	}
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(self, nodes[0].Address()))

	if res, err := c.Call(self, "Ping"); err != nil || res.Code != wire.OK {
		t.Fatalf("Ping: %v %v", res, err)
	}
	res, err := c.Call(self, "Iam")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Iam: %v %v", res, err)
	}
	idArg, _ := res.Result(0)
	id, err := security.DecodeIdentity(idArg)
	if err != nil || id.LOID != self {
		t.Errorf("Iam identity = %v, %v", id, err)
	}
	res, err = c.Call(self, "GetInterface")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("GetInterface: %v %v", res, err)
	}
	raw, _ := res.Result(0)
	ifc, rest, err := idl.Unmarshal(raw)
	if err != nil || len(rest) != 0 {
		t.Fatalf("interface decode: %v", err)
	}
	for _, m := range []string{"Echo", "Ping", "Iam", "MayI", "GetInterface", "SaveState", "RestoreState"} {
		if !ifc.Has(m) {
			t.Errorf("full interface missing %s", m)
		}
	}
}

func TestSaveRestoreStateRemote(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	impl := spawnEcho(t, nodes[0], echoLOID)
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
	if res, err := c.Call(echoLOID, "RestoreState", []byte("persisted")); err != nil || res.Code != wire.OK {
		t.Fatalf("RestoreState: %v %v", res, err)
	}
	res, err := c.Call(echoLOID, "SaveState")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("SaveState: %v %v", res, err)
	}
	state, _ := res.Result(0)
	if string(state) != "persisted" {
		t.Errorf("state = %q", state)
	}
	if string(impl.state) != "persisted" {
		t.Errorf("impl state = %q", impl.state)
	}
}

func TestMayIPolicyEnforced(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	acl := security.NewACL(nil)
	acl.Allow(clientLOID, "Echo")
	impl := &echoImpl{}
	if _, err := nodes[0].Spawn(echoLOID, impl, WithPolicy(acl)); err != nil {
		t.Fatal(err)
	}
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))

	if res, _ := c.Call(echoLOID, "Echo", []byte("x")); res.Code != wire.OK {
		t.Errorf("granted call denied: %+v", res)
	}
	if res, _ := c.Call(echoLOID, "SaveState"); res.Code != wire.ErrDenied {
		t.Errorf("ungranted call allowed: %+v", res)
	}

	// MayI itself must be answerable to let callers probe access.
	res, err := c.Call(echoLOID, "MayI", wire.String("SaveState"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("MayI probe: %v %v", res, err)
	}
	allowed, _ := wire.AsBool(res.Results[0])
	if allowed {
		t.Error("MayI probe claimed access that is denied")
	}
	res, _ = c.Call(echoLOID, "MayI", wire.String("Echo"))
	allowed, _ = wire.AsBool(res.Results[0])
	if !allowed {
		t.Error("MayI probe denied granted method")
	}
}

func TestKillThenCallYieldsNoSuchObject(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	spawnEcho(t, nodes[0], echoLOID)
	c := clientOn(nodes[1], clientLOID)
	c.Retry.MaxAttempts = 1
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
	if !nodes[0].Kill(echoLOID) {
		t.Fatal("Kill reported no object")
	}
	if nodes[0].Kill(echoLOID) {
		t.Fatal("double Kill succeeded")
	}
	res, err := c.Call(echoLOID, "Echo", []byte("x"))
	if err != nil || res.Code != wire.ErrNoSuchObject {
		t.Errorf("call after kill: %v %v", res, err)
	}
}

func TestSpawnDuplicateRejected(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 1)
	spawnEcho(t, nodes[0], echoLOID)
	if _, err := nodes[0].Spawn(echoLOID, &echoImpl{}); err == nil {
		t.Fatal("duplicate spawn accepted")
	}
}

func TestNodeObjectsAndLookup(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 1)
	spawnEcho(t, nodes[0], echoLOID)
	if _, ok := nodes[0].Lookup(echoLOID); !ok {
		t.Error("Lookup missed")
	}
	if got := nodes[0].Objects(); len(got) != 1 || !got[0].SameObject(echoLOID) {
		t.Errorf("Objects = %v", got)
	}
}

func TestReplicationSemAllFirstReplyWins(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)
	spawnEcho(t, nodes[0], echoLOID)
	spawnEcho(t, nodes[1], echoLOID)
	addr := oa.Replicated(oa.SemAll, 0, nodes[0].Element(), nodes[1].Element())
	c := clientOn(nodes[2], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, addr))
	res, err := c.Call(echoLOID, "Echo", []byte("r"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("replicated call: %v %v", res, err)
	}
}

func TestReplicationFailoverAfterReplicaDeath(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)
	spawnEcho(t, nodes[0], echoLOID)
	spawnEcho(t, nodes[1], echoLOID)
	addr := oa.Replicated(oa.SemOrdered, 0, nodes[0].Element(), nodes[1].Element())
	c := clientOn(nodes[2], clientLOID)
	c.Timeout = 500 * time.Millisecond
	c.AddBinding(binding.Forever(echoLOID, addr))
	// Kill the first replica's entire node so sends fail fast.
	nodes[0].Close()
	res, err := c.Call(echoLOID, "Echo", []byte("r"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("failover call: %v %v", res, err)
	}
}

func TestReplicationSemRandomSpreadsLoad(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)
	i0 := spawnEcho(t, nodes[0], echoLOID)
	i1 := spawnEcho(t, nodes[1], echoLOID)
	addr := oa.Replicated(oa.SemRandom, 0, nodes[0].Element(), nodes[1].Element())
	c := clientOn(nodes[2], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, addr))
	for i := 0; i < 40; i++ {
		if res, err := c.Call(echoLOID, "Echo", []byte("x")); err != nil || res.Code != wire.OK {
			t.Fatal(err)
		}
	}
	i0.mu.Lock()
	c0 := i0.calls
	i0.mu.Unlock()
	i1.mu.Lock()
	c1 := i1.calls
	i1.mu.Unlock()
	if c0+c1 != 40 {
		t.Fatalf("replica calls %d+%d != 40", c0, c1)
	}
	if c0 == 0 || c1 == 0 {
		t.Errorf("SemRandom never used one replica: %d/%d", c0, c1)
	}
}

func TestFutureTimeout(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	block := make(chan struct{})
	defer close(block)
	impl := &Behavior{
		Iface: idl.NewInterface("Slow", idl.MethodSig{Name: "Slow"}),
		Handlers: map[string]Handler{
			"Slow": func(inv *Invocation) ([][]byte, error) { <-block; return nil, nil },
		},
	}
	slow := loid.NewNoKey(256, 4)
	nodes[0].Spawn(slow, impl)
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(slow, nodes[0].Address()))
	f, err := c.InvokeCtx(context.Background(), slow, "Slow")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(50 * time.Millisecond); err != ErrTimeout {
		t.Errorf("Wait = %v, want ErrTimeout", err)
	}
}

func TestPerObjectMetricsLabel(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	reg := metrics.NewRegistry()
	n0, _ := NewNode(f, reg, "n0")
	defer n0.Close()
	n1, _ := NewNode(f, reg, "n1")
	defer n1.Close()
	impl := &echoImpl{}
	n0.Spawn(echoLOID, impl, WithLabel("echo/e1"))
	c := clientOn(n1, clientLOID)
	c.AddBinding(binding.Forever(echoLOID, n0.Address()))
	for i := 0; i < 7; i++ {
		c.Call(echoLOID, "Echo", []byte("x"))
	}
	if got := reg.Counter("req/echo/e1").Value(); got != 7 {
		t.Errorf("req counter = %d, want 7", got)
	}
}

func TestCallerEnvPropagation(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	envCh := make(chan wire.Env, 1)
	impl := &Behavior{
		Iface: idl.NewInterface("EnvProbe", idl.MethodSig{Name: "Probe"}),
		Handlers: map[string]Handler{
			"Probe": func(inv *Invocation) ([][]byte, error) {
				envCh <- inv.Env
				return nil, nil
			},
		},
	}
	probe := loid.NewNoKey(256, 5)
	nodes[0].Spawn(probe, impl)
	c := clientOn(nodes[1], clientLOID)
	ra := loid.NewNoKey(400, 1)
	c.SetEnv(security.EnvWith(ra, ra, clientLOID))
	c.AddBinding(binding.Forever(probe, nodes[0].Address()))
	if _, err := c.Call(probe, "Probe"); err != nil {
		t.Fatal(err)
	}
	env := <-envCh
	if env.Responsible != ra || env.Calling != clientLOID {
		t.Errorf("env = %+v", env)
	}
}

func TestConcurrentCallsManyClients(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 5)
	spawnEcho(t, nodes[0], echoLOID)
	var wg sync.WaitGroup
	errs := make(chan error, 4*50)
	for i := 1; i < 5; i++ {
		c := clientOn(nodes[i], loid.NewNoKey(300, uint64(i)))
		c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
		wg.Add(1)
		go func(c *Caller) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				res, err := c.Call(echoLOID, "Echo", []byte("x"))
				if err != nil {
					errs <- err
					return
				}
				if res.Code != wire.OK {
					errs <- res.Err()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// ownTCP gives each node it is called for a TCP value of its own, as
// nodes in separate processes have, so calls between them cross real
// sockets. Every value counts into reg.
func ownTCP(reg *metrics.Registry) func() transport.Transport {
	return func() transport.Transport { return &transport.TCP{Registry: reg} }
}

// wantDials fails t unless some frame counted in reg crossed a socket.
func wantDials(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	if reg.Counter("net/tcp_dials").Value() == 0 {
		t.Error("net/tcp_dials = 0; no frame crossed a socket")
	}
}

func TestCallOverTCP(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := ownTCP(reg)
	n0, err := NewNode(tr(), nil, "t0")
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := NewNode(tr(), nil, "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	spawnEcho(t, n0, echoLOID)
	c := clientOn(n1, clientLOID)
	c.AddBinding(binding.Forever(echoLOID, n0.Address()))
	res, err := c.Call(echoLOID, "Echo", []byte("tcp"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("tcp call: %v %v", res, err)
	}
	out, _ := res.Result(0)
	if string(out) != "tcp" {
		t.Errorf("result = %q", out)
	}
	wantDials(t, reg)
}

func TestBehaviorDefaults(t *testing.T) {
	b := &Behavior{Iface: idl.NewInterface("B")}
	if s, err := b.SaveState(); err != nil || s != nil {
		t.Error("nil Save should yield empty state")
	}
	if err := b.RestoreState([]byte("x")); err != nil {
		t.Error("nil Restore should accept anything")
	}
	if _, err := b.Dispatch(&Invocation{Method: "zz"}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestOneWayToReplicatedAddress(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)
	got := make(chan uint64, 8)
	mkSink := func(tag uint64) *Behavior {
		return &Behavior{
			Iface: idl.NewInterface("Sink", idl.MethodSig{Name: "Put", OneWay: true}),
			Handlers: map[string]Handler{
				"Put": func(inv *Invocation) ([][]byte, error) {
					got <- tag
					return nil, nil
				},
			},
		}
	}
	sink := loid.NewNoKey(256, 60)
	nodes[0].Spawn(sink, mkSink(0))
	nodes[1].Spawn(sink, mkSink(1))
	addr := oa.Replicated(oa.SemAll, 0, nodes[0].Element(), nodes[1].Element())
	c := clientOn(nodes[2], clientLOID)
	c.AddBinding(binding.Forever(sink, addr))
	if err := c.OneWay(sink, "Put"); err != nil {
		t.Fatal(err)
	}
	// SemAll one-way reaches every replica.
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		select {
		case tag := <-got:
			seen[tag] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("replica delivery %d never arrived", i)
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("deliveries = %v, want both replicas", seen)
	}
}

func TestOneWayAddrBypassesResolution(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	got := make(chan struct{}, 1)
	impl := &Behavior{
		Iface: idl.NewInterface("Sink", idl.MethodSig{Name: "Put", OneWay: true}),
		Handlers: map[string]Handler{
			"Put": func(inv *Invocation) ([][]byte, error) {
				got <- struct{}{}
				return nil, nil
			},
		},
	}
	sink := loid.NewNoKey(256, 61)
	nodes[0].Spawn(sink, impl)
	c := clientOn(nodes[1], clientLOID) // no resolver, no cached binding
	if err := c.OneWayAddr(nodes[0].Address(), sink, "Put"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("OneWayAddr never delivered")
	}
	// By-LOID one-way without binding fails.
	if err := c.OneWay(loid.NewNoKey(256, 99), "Put"); err == nil {
		t.Error("unbound OneWay succeeded")
	}
}

func TestFutureDoneChannel(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	spawnEcho(t, nodes[0], echoLOID)
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
	f, err := c.InvokeCtx(context.Background(), echoLOID, "Echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-f.Done():
		if res.Code != wire.OK {
			t.Errorf("Done result = %v", res.Code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Done never fired")
	}
}

func TestResultHelpers(t *testing.T) {
	ok := &Result{Code: wire.OK, Results: [][]byte{[]byte("a")}}
	if ok.Err() != nil {
		t.Error("OK result has error")
	}
	if _, err := ok.Result(1); err == nil {
		t.Error("missing result index accepted")
	}
	bad := &Result{Code: wire.ErrDenied, ErrText: "no"}
	if bad.Err() == nil {
		t.Error("denied result has no error")
	}
	if _, err := bad.Result(0); err == nil {
		t.Error("Result on error reply succeeded")
	}
	if !IsCode(bad.Err(), wire.ErrDenied) || IsCode(bad.Err(), wire.ErrApp) {
		t.Error("IsCode misclassified")
	}
	if IsCode(nil, wire.ErrApp) {
		t.Error("IsCode(nil) true")
	}
	// Error strings mention the code.
	if s := bad.Err().Error(); !strings.Contains(s, "denied") || !strings.Contains(s, "no") {
		t.Errorf("error string = %q", s)
	}
	empty := &Result{Code: wire.ErrUnavailable}
	if s := empty.Err().Error(); !strings.Contains(s, "unavailable") {
		t.Errorf("error string = %q", s)
	}
}

func TestCallerAccessors(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 1)
	c := NewCaller(nodes[0], clientLOID, nil)
	if c.Self() != clientLOID {
		t.Error("Self wrong")
	}
	if c.Env().Calling != clientLOID {
		t.Error("default env wrong")
	}
	r := newMapResolver()
	c.SetResolver(r)
	cache := binding.NewCache(4)
	c.SetCache(cache)
	if c.Cache() != cache {
		t.Error("SetCache not applied")
	}
}

func TestNodeGarbageCounter(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	reg := metrics.NewRegistry()
	n0, _ := NewNode(f, reg, "g0")
	defer n0.Close()
	n1, _ := NewNode(f, reg, "g1")
	defer n1.Close()
	// Raw garbage straight to the endpoint.
	garbage := buf.Get()
	garbage.B = append(garbage.B, 0xde, 0xad)
	err := n1.ep.SendBuf(n0.Element(), garbage)
	garbage.Release()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("node/g0/garbage").Value() == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("garbage never counted")
}

func TestObjectMandatoryInterfaceStable(t *testing.T) {
	om := ObjectMandatory()
	for _, m := range []string{"Ping", "Iam", "MayI", "GetInterface", "SaveState", "RestoreState"} {
		if !om.Has(m) {
			t.Errorf("object-mandatory missing %s", m)
		}
	}
	if om.Len() != 6 {
		t.Errorf("object-mandatory has %d methods", om.Len())
	}
}

// TestReplicationDeadReplicaFastErrorDoesNotWin: a killed replica's
// node answers ErrNoSuchObject almost instantly, typically before the
// live replica's real reply. Under SemAll the fast failure must not
// defeat the slower success.
func TestReplicationDeadReplicaFastErrorDoesNotWin(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)
	// Replica on node 0 is dead (never spawned — its node answers
	// no-such-object immediately). Replica on node 1 is alive but slow.
	slowImpl := &Behavior{
		Iface: idl.NewInterface("Slow", idl.MethodSig{Name: "Work"}),
		Handlers: map[string]Handler{
			"Work": func(inv *Invocation) ([][]byte, error) {
				time.Sleep(30 * time.Millisecond)
				return [][]byte{[]byte("alive")}, nil
			},
		},
	}
	rep := loid.NewNoKey(256, 80)
	if _, err := nodes[1].Spawn(rep, slowImpl); err != nil {
		t.Fatal(err)
	}
	addr := oa.Replicated(oa.SemAll, 0, nodes[0].Element(), nodes[1].Element())
	c := clientOn(nodes[2], clientLOID)
	c.Retry.MaxAttempts = 1
	c.AddBinding(binding.Forever(rep, addr))
	for i := 0; i < 10; i++ {
		res, err := c.Call(rep, "Work")
		if err != nil {
			t.Fatal(err)
		}
		if res.Code != wire.OK {
			t.Fatalf("iteration %d: dead replica's error won: %v %s", i, res.Code, res.ErrText)
		}
	}
}

// TestReplicationAllDeadStillFails: when every replica is gone the
// caller gets a definitive failure, not a hang.
func TestReplicationAllDeadStillFails(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)
	rep := loid.NewNoKey(256, 81)
	addr := oa.Replicated(oa.SemAll, 0, nodes[0].Element(), nodes[1].Element())
	c := clientOn(nodes[2], clientLOID)
	c.Retry.MaxAttempts = 1
	c.Timeout = 500 * time.Millisecond
	c.AddBinding(binding.Forever(rep, addr))
	start := time.Now()
	res, err := c.Call(rep, "Work")
	if err != nil {
		t.Fatal(err)
	}
	if res.Code == wire.OK {
		t.Fatal("call succeeded with no replicas")
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("all-dead failure took %v", time.Since(start))
	}
}
