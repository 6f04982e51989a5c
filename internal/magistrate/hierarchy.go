package magistrate

import (
	"context"
	"fmt"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
)

// Jurisdiction hierarchies (§2.2: "Jurisdictions can be organized to
// form hierarchies"). A Magistrate may enroll sub-Magistrates; requests
// about objects it does not manage directly are delegated to the child
// that knows them, so a parent Magistrate presents the union of its
// hierarchy as one jurisdiction. Hierarchies must be acyclic — a cycle
// would make delegated lookups chase their own tail until the caller's
// timeout fires.

// The hierarchy's remote methods.
var (
	AddSubMagistrate    = rt.M2("AddSubMagistrate", rt.LOIDParam("magistrate"), rt.AddressParam("addr"), rt.None)
	RemoveSubMagistrate = rt.M1("RemoveSubMagistrate", rt.LOIDParam("magistrate"), rt.None)
	ListSubMagistrates  = rt.M0("ListSubMagistrates", rt.LOIDListParam("magistrates"))
)

type subEntry struct {
	l    loid.LOID
	addr oa.Address
}

func (m *Magistrate) addSub(_ context.Context, l loid.LOID, addr oa.Address) (rt.Void, error) {
	if l.SameObject(m.self) {
		return rt.Void{}, fmt.Errorf("magistrate %v cannot be its own sub-magistrate", m.self)
	}
	m.mu.Lock()
	replaced := false
	for i := range m.subs {
		if m.subs[i].l.SameObject(l) {
			m.subs[i].addr = addr
			replaced = true
			break
		}
	}
	if !replaced {
		m.subs = append(m.subs, subEntry{l: l, addr: addr})
	}
	m.mu.Unlock()
	if m.obj != nil {
		m.obj.Caller().AddBinding(binding.Forever(l, addr))
	}
	return rt.Void{}, nil
}

func (m *Magistrate) removeSub(_ context.Context, l loid.LOID) (rt.Void, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.subs {
		if m.subs[i].l.SameObject(l) {
			m.subs = append(m.subs[:i], m.subs[i+1:]...)
			break
		}
	}
	return rt.Void{}, nil
}

func (m *Magistrate) listSubs(context.Context) ([]loid.LOID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := make([]loid.LOID, 0, len(m.subs))
	for _, s := range m.subs {
		ls = append(ls, s.l)
	}
	return ls, nil
}

// subSnapshot copies the sub-magistrate list.
func (m *Magistrate) subSnapshot() []subEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]subEntry(nil), m.subs...)
}

// subFor finds the sub-magistrate (if any) that knows l, delegating
// HasObject down the hierarchy with the caller's deadline and trace.
func (m *Magistrate) subFor(ctx context.Context, l loid.LOID) (rt.Ref, bool) {
	if m.obj == nil {
		return rt.Ref{}, false
	}
	for _, s := range m.subSnapshot() {
		sub := m.obj.Caller().To(s.l)
		if st, err := HasObject.Call(ctx, sub, l); err == nil && st.Known {
			return sub, true
		}
	}
	return rt.Ref{}, false
}
