package class

import (
	"maps"
	"sync"

	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
)

// Binding propagation (§4.1.4): "Some classes may even attempt to
// reduce the number of stale bindings by explicitly propagating news
// of an object's migration or removal." Binding Agents subscribe to a
// class; whenever the class learns new addresses for a set of its
// objects — or removes some — it pushes one AddBinding / InvalidateLOID
// one-way notification carrying the whole set to every subscriber.
// Subscriptions are soft state: they do not persist across class
// deactivation (a restarted class simply stops pushing until agents
// re-subscribe).

// The propagation protocol: agents subscribe to a class, and the class
// pushes sets of bindings to them. The pushes are Binding Agent
// methods, declared here, with their sender, because package bindagent
// imports this one; Binding Agents serve them.
var (
	SubscribeAgent   = rt.M2("SubscribeAgent", rt.LOIDParam("agent"), rt.AddressParam("addr"), rt.None)
	UnsubscribeAgent = rt.M1("UnsubscribeAgent", rt.LOIDParam("agent"), rt.None)
	AddBinding       = rt.M1("AddBinding", rt.BindingListParam("bindings"), rt.None)
	InvalidateLOID   = rt.M1("InvalidateLOID", rt.LOIDListParam("targets"), rt.None)
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
	return maps.Clone(s.subs)
}

// push sends each subscribed agent one m carrying the set news builds,
// one-way: no reply is awaited, so a push carries no deadline. news
// runs only if an agent subscribed, so a push to no one (every Create
// of an unwatched class) allocates nothing.
func push[S any](c *ClassImpl, m *rt.Method1[S, rt.Void], news func() S) {
	if c.obj == nil {
		return
	}
	subs := c.subs.snapshot()
	if subs == nil {
		return
	}
	set := news()
	for agent, addr := range subs {
		_ = m.Send(c.obj.Caller().At(addr, agent), set)
	}
}
