package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/oa"
)

func memID(t *testing.T, ep Endpoint) uint64 {
	t.Helper()
	id, ok := oa.MemID(ep.Element())
	if !ok {
		t.Fatal("not a mem element")
	}
	return id
}

// TestFabricCrashSilentlyDrops: traffic to a crashed endpoint vanishes
// without an error — the sender learns nothing until its own timers
// fire, exactly like a powered-off machine.
func TestFabricCrashSilentlyDrops(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFabric(reg)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)

	if !f.Crash(memID(t, b)) {
		t.Fatal("Crash reported unknown endpoint")
	}
	if !f.Crashed(memID(t, b)) {
		t.Fatal("Crashed() = false after Crash")
	}
	// Sends succeed (no error) but deliver nothing.
	if err := a.Send(b.Element(), []byte("into the void")); err != nil {
		t.Fatalf("send to crashed endpoint errored: %v (must be silent)", err)
	}
	// The crashed endpoint cannot send either.
	if err := b.Send(a.Element(), []byte("from the grave")); err != nil {
		t.Fatalf("send from crashed endpoint errored: %v (must be silent)", err)
	}
	time.Sleep(20 * time.Millisecond)
	col.mu.Lock()
	n := len(col.msgs)
	col.mu.Unlock()
	if n != 0 {
		t.Fatalf("crashed endpoint received %d messages", n)
	}
	if got := reg.Counter("net/crash-dropped").Value(); got != 2 {
		t.Errorf("net/crash-dropped = %d, want 2", got)
	}

	// Restart restores delivery with the same element identity.
	if !f.Restart(memID(t, b)) {
		t.Fatal("Restart reported unknown endpoint")
	}
	if err := a.Send(b.Element(), []byte("back")); err != nil {
		t.Fatal(err)
	}
	msgs := col.wait(t, 1)
	if string(msgs[0]) != "back" {
		t.Errorf("got %q after restart", msgs[0])
	}
}

// TestFabricPerLinkFaults: latency and loss scoped to one endpoint
// pair leave other links untouched.
func TestFabricPerLinkFaults(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	c, _ := f.NewEndpoint()
	colB, colC := newCollector(), newCollector()
	b.SetHandler(colB.handler)
	c.SetHandler(colC.handler)

	// Total loss on a↔b only.
	f.SetLinkLoss(memID(t, a), memID(t, b), 1.0)
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Element(), []byte("lost")); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(c.Element(), []byte("ok")); err != nil {
			t.Fatal(err)
		}
	}
	colC.wait(t, 10)
	colB.mu.Lock()
	got := len(colB.msgs)
	colB.mu.Unlock()
	if got != 0 {
		t.Fatalf("lossy link delivered %d/10", got)
	}

	// Heal the link; add latency instead. Delivery resumes, delayed.
	f.ClearLink(memID(t, a), memID(t, b))
	f.SetLinkLatency(memID(t, a), memID(t, b), 30*time.Millisecond)
	start := time.Now()
	if err := a.Send(b.Element(), []byte("slow")); err != nil {
		t.Fatal(err)
	}
	colB.wait(t, 1)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("per-link latency not applied: delivered in %v", d)
	}
}

// TestFabricDuplication: with duplication at 1.0 every message arrives
// twice — upper layers must tolerate at-least-once delivery.
func TestFabricDuplication(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFabric(reg)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	f.SetDuplicate(1.0)
	for i := 0; i < 5; i++ {
		if err := a.Send(b.Element(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 10) // 5 originals + 5 duplicates
	if got := reg.Counter("net/duplicated").Value(); got != 5 {
		t.Errorf("net/duplicated = %d, want 5", got)
	}
}

// TestFabricReorder: delayed delivery of a random subset reorders the
// stream; every message still arrives exactly once.
func TestFabricReorder(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFabric(reg)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	f.SetReorder(0.5, 5*time.Millisecond)
	const n = 40
	for i := 0; i < n; i++ {
		if err := a.Send(b.Element(), []byte(fmt.Sprintf("%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	msgs := col.wait(t, n)
	if len(msgs) != n {
		t.Fatalf("got %d messages, want %d", len(msgs), n)
	}
	seen := make(map[string]int, n)
	for _, m := range msgs {
		seen[string(m)]++
	}
	for i := 0; i < n; i++ {
		if seen[fmt.Sprintf("%02d", i)] != 1 {
			t.Fatalf("message %02d delivered %d times", i, seen[fmt.Sprintf("%02d", i)])
		}
	}
	if reg.Counter("net/reordered").Value() == 0 {
		t.Error("no messages were reordered at p=0.5")
	}
}

// TestFabricPartitionHeals: a Block/Unblock cycle must fully restore
// delivery in both directions (the transport half of the heal path;
// the binding-cache half is covered in rt's partition tests).
func TestFabricPartitionHeals(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	colA, colB := newCollector(), newCollector()
	a.SetHandler(colA.handler)
	b.SetHandler(colB.handler)

	f.Block(memID(t, a), memID(t, b))
	if err := a.Send(b.Element(), []byte("x")); err != ErrUnreachable {
		t.Fatalf("send across partition = %v, want ErrUnreachable", err)
	}
	if err := b.Send(a.Element(), []byte("x")); err != ErrUnreachable {
		t.Fatalf("reverse send across partition = %v, want ErrUnreachable", err)
	}

	f.Unblock(memID(t, a), memID(t, b))
	if err := a.Send(b.Element(), []byte("ping")); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if err := b.Send(a.Element(), []byte("pong")); err != nil {
		t.Fatalf("reverse send after heal: %v", err)
	}
	if got := colB.wait(t, 1); string(got[0]) != "ping" {
		t.Errorf("b got %q", got[0])
	}
	if got := colA.wait(t, 1); string(got[0]) != "pong" {
		t.Errorf("a got %q", got[0])
	}
}

// TestTCPDropSurfaced is the regression test for silent frame loss on
// writer death: when a destination dies with frames queued or
// mid-batch, the loss must be counted in net/tcp_dropped and reported
// to a subsequent Send as an error — never swallowed.
func TestTCPDropSurfaced(t *testing.T) {
	testLossSurfaced(t, tcpHarness)
}
