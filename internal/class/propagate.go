package class

import (
	"sync"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
)

// Binding propagation (§4.1.4): "Some classes may even attempt to
// reduce the number of stale bindings by explicitly propagating news
// of an object's migration or removal." Binding Agents subscribe to a
// class; whenever the class learns a new address for one of its
// objects — or removes one — it pushes AddBinding / InvalidateLOID
// one-way notifications to every subscriber. Subscriptions are soft
// state: they do not persist across class deactivation (a restarted
// class simply stops pushing until agents re-subscribe).

// The propagation protocol: agents subscribe to a class, and the class
// pushes bindings to them. The pushes are Binding Agent methods,
// declared here, with their sender, because package bindagent imports
// this one; Binding Agents serve them.
var (
	SubscribeAgent   = rt.M2("SubscribeAgent", rt.LOIDParam("agent"), rt.AddressParam("addr"), rt.None)
	UnsubscribeAgent = rt.M1("UnsubscribeAgent", rt.LOIDParam("agent"), rt.None)
	AddBinding       = rt.M1("AddBinding", rt.BindingParam("b"), rt.None)
	InvalidateLOID   = rt.M1("InvalidateLOID", rt.LOIDParam("target"), rt.None)
)

// subscribers tracks agent endpoints interested in this class's
// binding news.
type subscribers struct {
	mu   sync.Mutex
	subs map[loid.LOID]oa.Address
}

func (s *subscribers) subscribe(agent loid.LOID, addr oa.Address) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs == nil {
		s.subs = make(map[loid.LOID]oa.Address)
	}
	s.subs[agent.ID()] = addr
}

func (s *subscribers) unsubscribe(agent loid.LOID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, agent.ID())
}

// snapshot copies the subscriber table; nil when nobody subscribed, so
// a push to no one (every Create of an unwatched class) allocates nothing.
func (s *subscribers) snapshot() map[loid.LOID]oa.Address {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.subs) == 0 {
		return nil
	}
	out := make(map[loid.LOID]oa.Address, len(s.subs))
	for k, v := range s.subs {
		out[k] = v
	}
	return out
}

// pushBinding fans a fresh binding out to subscribed agents, one-way:
// no reply is awaited, so a push carries no deadline.
func (c *ClassImpl) pushBinding(b binding.Binding) {
	if c.obj == nil {
		return
	}
	for agent, addr := range c.subs.snapshot() {
		_ = AddBinding.Send(c.obj.Caller().At(addr, agent), b)
	}
}

// pushInvalidate tells subscribed agents an object is gone.
func (c *ClassImpl) pushInvalidate(l loid.LOID) {
	if c.obj == nil {
		return
	}
	for agent, addr := range c.subs.snapshot() {
		_ = InvalidateLOID.Send(c.obj.Caller().At(addr, agent), l)
	}
}
