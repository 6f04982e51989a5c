package rt

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/wire"
)

// Migration gates. While an object migrates away, its source node
// first PARKS newly arriving requests (a bounded FIFO queue, replayed
// in order once the object's fate is settled) and then — once the
// object is running elsewhere — FORWARDS them with a one-hop
// tombstone. Both states live in one gate record so the park→forward
// transition happens under a single lock and the arrival order is
// never reshuffled across it.
//
// The invocation fast path pays one atomic load for all of this: the
// gate table is consulted only while n.nGates is nonzero, i.e. only on
// nodes that are actively migrating an object or still holding a
// tombstone for one.

// parkBound caps a gate's queue. Beyond it, arrivals are answered
// ErrUnavailable (retryable) — the caller's retry/refresh machinery
// absorbs the bounce, exactly as it absorbs transient message loss.
const parkBound = 512

// gate is the per-object migration gate: parking (forwarding=false) or
// a forwarding tombstone (forwarding=true). dead marks a gate that has
// been removed from the table but may still be held by a concurrent
// receiver.
type gate struct {
	forwarding bool
	dead       bool
	to         oa.Element
	exempt     loid.LOID
	q          wire.FrameQueue
}

// Park installs a drain gate for l: request frames arriving for l are
// queued in arrival order instead of delivered. Frames whose calling
// identity is exempt bypass the gate — the Host Object drains the
// mailbox to a quiesce point by calling SaveState through it, and that
// call must land. Parking an already-gated object fails.
func (n *Node) Park(l loid.LOID, exempt loid.LOID) error {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	if _, ok := n.gates[l.ID()]; ok {
		return fmt.Errorf("rt: object %v already gated on node %s", l, n.name)
	}
	if n.gates == nil {
		n.gates = make(map[loid.LOID]*gate)
	}
	n.gates[l.ID()] = &gate{exempt: exempt}
	n.nGates.Add(1)
	n.gateEpoch.Add(1) // after nGates: whoever sees the new epoch sees the gate
	return nil
}

// Unpark removes l's drain gate and replays the queued frames, in
// arrival order, into the still-local object's mailbox — the abort
// path of a migration. Replayed frames keep their position ahead of
// new arrivals: the replay happens before the gate comes out of the
// table, and receivers that already hold the gate observe dead and
// deliver normally. Returns the number of frames replayed.
func (n *Node) Unpark(l loid.LOID) int {
	n.gmu.Lock()
	g, ok := n.gates[l.ID()]
	if !ok || g.forwarding {
		n.gmu.Unlock()
		return 0
	}
	o, live := n.Lookup(l)
	replayed := 0
	for f := g.q.Pop(); f != nil; f = g.q.Pop() {
		switch {
		case !live:
			n.bounceParked(f, "object gone during migration abort")
		case o.mailbox.put(f, false, n.gateEpoch.Load()) == putOK: // no Park while we hold gmu
			replayed++
		default:
			// A full (or just stopped) mailbox must not block the abort;
			// bounce to the caller's retry loop instead.
			n.bounceParked(f, "mailbox full during migration abort")
		}
	}
	g.dead = true
	delete(n.gates, l.ID())
	n.nGates.Add(-1)
	n.gmu.Unlock()
	return replayed
}

// ForwardParked flips l's drain gate into a one-hop forwarding
// tombstone aimed at to: queued frames are flushed there in arrival
// order, and subsequent arrivals are forwarded as they come — the
// commit path of a migration, run after the local incarnation is
// killed. Returns the number of frames flushed.
func (n *Node) ForwardParked(l loid.LOID, to oa.Element) int {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	g, ok := n.gates[l.ID()]
	if !ok {
		return 0
	}
	g.forwarding = true
	g.to = to
	flushed := 0
	for f := g.q.Pop(); f != nil; f = g.q.Pop() {
		n.forwardFrame(f, to)
		f.Close()
		flushed++
	}
	return flushed
}

// DropTombstone removes l's forwarding tombstone (installed by
// ForwardParked). From then on stale callers get the ordinary
// ErrNoSuchObject verdict and refresh their bindings. Reports whether
// a tombstone was removed.
func (n *Node) DropTombstone(l loid.LOID) bool {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	g, ok := n.gates[l.ID()]
	if !ok || !g.forwarding {
		return false
	}
	g.dead = true
	delete(n.gates, l.ID())
	n.nGates.Add(-1)
	return true
}

// clearGate drops any gate for l unconditionally — Spawn installs the
// object again (a migration returning home), so a leftover tombstone
// must not shadow the live incarnation.
func (n *Node) clearGate(l loid.LOID) {
	if n.nGates.Load() == 0 {
		return
	}
	n.gmu.Lock()
	if g, ok := n.gates[l.ID()]; ok {
		for f := g.q.Pop(); f != nil; f = g.q.Pop() {
			n.bounceParked(f, "object respawned during migration")
		}
		g.dead = true
		delete(n.gates, l.ID())
		n.nGates.Add(-1)
	}
	n.gmu.Unlock()
}

// dropAllGates releases every gate (node shutdown).
func (n *Node) dropAllGates() {
	n.gmu.Lock()
	for id, g := range n.gates {
		for f := g.q.Pop(); f != nil; f = g.q.Pop() {
			f.Close()
		}
		g.dead = true
		delete(n.gates, id)
		n.nGates.Add(-1)
	}
	n.gmu.Unlock()
}

// gated reports whether l currently has a gate — the co-resident
// bypass in deliverOne must fall through to the transport path while
// one is up, or local callers would slip past the drain.
func (n *Node) gated(l loid.LOID) bool {
	if n.nGates.Load() == 0 {
		return false
	}
	n.gmu.Lock()
	_, ok := n.gates[l.ID()]
	n.gmu.Unlock()
	return ok
}

// handleGated routes one request frame through l's gate. It reports
// whether the frame was consumed; false means "deliver normally" (the
// gate is dead, or the frame is exempt from the drain). Called from
// routeRequest with the frame parsed; b is the backing buffer, or nil when
// the frame already owns it.
func (n *Node) handleGated(g *gate, f *wire.Frame, b *buf.Buffer) bool {
	n.gmu.Lock()
	if g.dead {
		n.gmu.Unlock()
		return false
	}
	if g.forwarding {
		to := g.to
		if f.Forwarded() {
			// One hop only: a frame that already rode a tombstone is
			// answered with the stale-binding verdict so its caller
			// refreshes instead of ping-ponging between tombstones.
			n.gmu.Unlock()
			n.cStale.Inc()
			if f.Kind == wire.KindRequest && f.HasReplyTo() {
				n.replyFrame(f, wire.ErrNoSuchObject, fmt.Sprintf("object %v migrated away", f.Target()), nil)
			}
			f.Close()
			return true
		}
		// Forward under the gate lock: arrivals racing the flush in
		// ForwardParked stay behind the queued frames.
		n.forwardFrame(f, to)
		n.gmu.Unlock()
		f.Close()
		return true
	}
	if !g.exempt.IsNil() && g.exempt.SameObject(f.EnvCalling()) {
		n.gmu.Unlock()
		return false
	}
	if g.q.Len() >= parkBound {
		n.gmu.Unlock()
		if f.Kind == wire.KindRequest && f.HasReplyTo() {
			n.replyFrame(f, wire.ErrUnavailable, "migration drain queue full", nil)
		}
		f.Close()
		return true
	}
	if b != nil {
		f.Own(b) // the queue outlives this call: pin the buffer
	}
	g.q.Push(f)
	n.cParked.Inc()
	n.gmu.Unlock()
	if ob := n.Observer(); ob != nil {
		ob.Note("park", f.Target().String(), f.Method(), f.TraceID())
	}
	return true
}

// forwardFrame re-sends a parked or tombstoned frame one hop. The
// frame's bytes may alias a larger transport window, so they are
// copied into a fresh pooled buffer, stamped with the forwarded flag,
// and handed to the endpoint. The reply-to inside the frame still
// names the original caller: the new host answers it directly, and the
// reply's from-address doubles as the caller's binding-refresh hint.
func (n *Node) forwardFrame(f *wire.Frame, to oa.Element) {
	fb := buf.Get()
	fb.B = append(fb.B[:0], f.Raw()...)
	wire.MarkForwarded(fb.B)
	// Best effort: a lost forward surfaces as a caller timeout and is
	// healed by retry + binding refresh, like any lost message.
	_ = n.ep.SendBuf(to, fb)
	fb.Release()
	n.cForwarded.Inc()
	if ob := n.Observer(); ob != nil {
		ob.Note("forward", f.Target().String(), f.Method(), f.TraceID())
	}
}

// bounceParked answers a parked frame with a retryable verdict and
// releases it — used when a replay target is unavailable.
func (n *Node) bounceParked(f *wire.Frame, why string) {
	if f.Kind == wire.KindRequest && f.HasReplyTo() {
		n.replyFrame(f, wire.ErrUnavailable, why, nil)
	}
	f.Close()
}
