package magistrate

import (
	"fmt"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Jurisdiction hierarchies (§2.2: "Jurisdictions can be organized to
// form hierarchies"). A Magistrate may enroll sub-Magistrates; requests
// about objects it does not manage directly are delegated to the child
// that knows them, so a parent Magistrate presents the union of its
// hierarchy as one jurisdiction. Hierarchies must be acyclic — a cycle
// would make delegated lookups chase their own tail until the caller's
// timeout fires.

var hierarchySigs = []idl.MethodSig{
	{Name: "AddSubMagistrate",
		Params: []idl.Param{{Name: "magistrate", Type: idl.TLOID}, {Name: "addr", Type: idl.TAddress}}},
	{Name: "RemoveSubMagistrate",
		Params: []idl.Param{{Name: "magistrate", Type: idl.TLOID}}},
	{Name: "ListSubMagistrates",
		Returns: []idl.Param{{Name: "magistrates", Type: idl.TBytes}}},
}

func init() {
	for _, sig := range hierarchySigs {
		if err := Interface.Add(sig); err != nil {
			panic(err)
		}
	}
}

type subEntry struct {
	l    loid.LOID
	addr oa.Address
}

// handleHierarchy serves the hierarchy methods; it returns (handled,
// results, err).
func (m *Magistrate) handleHierarchy(inv *rt.Invocation) (bool, [][]byte, error) {
	switch inv.Method {
	case "AddSubMagistrate":
		l, err := argLOID(inv, 0)
		if err != nil {
			return true, nil, err
		}
		raw, err := inv.Arg(1)
		if err != nil {
			return true, nil, err
		}
		addr, err := wire.AsAddress(raw)
		if err != nil {
			return true, nil, err
		}
		if l.SameObject(m.self) {
			return true, nil, fmt.Errorf("magistrate %v cannot be its own sub-magistrate", m.self)
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
		return true, nil, nil
	case "RemoveSubMagistrate":
		l, err := argLOID(inv, 0)
		if err != nil {
			return true, nil, err
		}
		m.mu.Lock()
		for i := range m.subs {
			if m.subs[i].l.SameObject(l) {
				m.subs = append(m.subs[:i], m.subs[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		return true, nil, nil
	case "ListSubMagistrates":
		m.mu.Lock()
		ls := make([]loid.LOID, 0, len(m.subs))
		for _, s := range m.subs {
			ls = append(ls, s.l)
		}
		m.mu.Unlock()
		return true, [][]byte{wire.LOIDList(ls)}, nil
	}
	return false, nil, nil
}

// subSnapshot copies the sub-magistrate list.
func (m *Magistrate) subSnapshot() []subEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]subEntry(nil), m.subs...)
}

// knowsLocally reports whether the object is in this magistrate's own
// table.
func (m *Magistrate) knowsLocally(l loid.LOID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.table[l.Ident()]
	return ok
}

// subFor finds the sub-magistrate (if any) that knows l, delegating
// HasObject down the hierarchy.
func (m *Magistrate) subFor(l loid.LOID) (*Client, bool) {
	for _, s := range m.subSnapshot() {
		sc := NewClient(m.obj.Caller(), s.l)
		known, _, err := sc.HasObject(l)
		if err == nil && known {
			return sc, true
		}
	}
	return nil, false
}

// delegate runs op against the sub-magistrate that knows l; it reports
// whether delegation was possible.
func (m *Magistrate) delegate(l loid.LOID, op func(*Client) ([][]byte, error)) ([][]byte, bool, error) {
	if len(m.subSnapshot()) == 0 || m.obj == nil {
		return nil, false, nil
	}
	sc, ok := m.subFor(l)
	if !ok {
		return nil, false, nil
	}
	out, err := op(sc)
	return out, true, err
}
