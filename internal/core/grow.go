package core

import (
	"fmt"

	"repro/internal/bindagent"
	"repro/internal/class"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/oa"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Runtime growth (§4.2.1: "New Host Objects and Magistrates will be
// added as the Legion system expands to include new hosts and
// Jurisdictions") and jurisdiction management (§2.2: jurisdictions are
// potentially non-disjoint, and "if a Jurisdiction's resources impose a
// substantial load on its Magistrate, the Jurisdiction can be split").

// AddJurisdiction starts a new Magistrate with its own storage and
// hostCount fresh Host Objects, announcing everything to the core
// classes exactly like the boot-time jurisdictions. Its store is opened
// as Boot opens theirs (StoreBackend, DataDir/j<index>). Boot does not
// restore a runtime-added jurisdiction after a restart: it rebuilds
// only Options.Jurisdictions of them from the snapshot. So when
// DataDir/j<index> still holds an earlier run's records, which no
// Magistrate refers to any more, AddJurisdiction refuses to adopt them
// and errors; remove the directory to reuse the index.
func (s *System) AddJurisdiction(hostCount int) (*Jurisdiction, error) {
	if hostCount < 0 {
		hostCount = 0
	}
	s.mu.Lock()
	s.nextMagSeq++
	magSeq := s.nextMagSeq
	hostSeq := s.nextHostSeq
	s.nextHostSeq += uint64(hostCount)
	s.mu.Unlock()

	// Magistrates are numbered from 1 in jurisdiction order, so the
	// new jurisdiction's index is magSeq-1.
	index := int(magSeq) - 1
	store, err := s.openStore(index)
	if err != nil {
		return nil, err
	}
	added := false
	defer func() {
		if !added {
			_ = store.Close() // System.Close only closes stores it lists
		}
	}()
	if n := store.Stats().Records; n > 0 {
		return nil, fmt.Errorf("core: new jurisdiction %d: %s/j%d holds %d records from an earlier run", index, s.Options.DataDir, index, n)
	}
	juris := &Jurisdiction{Store: store}

	for h := 0; h < hostCount; h++ {
		hl, addr, _, err := s.startHost(hostSeq + uint64(h) + 1)
		if err != nil {
			return nil, err
		}
		juris.Hosts = append(juris.Hosts, hl)
		juris.HostAddrs = append(juris.HostAddrs, addr)
	}

	ml := loid.New(loid.ClassIDMagistrate, magSeq, loid.DeriveKey(fmt.Sprintf("magistrate/%d", magSeq)))
	node, err := s.newNode(fmt.Sprintf("mag%d", magSeq))
	if err != nil {
		return nil, err
	}
	mag := magistrate.New(ml, juris.Store)
	mag.BindingTTL = s.Options.BindingTTL
	mag.SetClock(s.Options.Clock)
	if s.Options.Obs != nil {
		mag.SetPlane(s.Options.Obs)
	}
	leaf := s.NextLeaf()
	magCaller := rt.NewCaller(node, ml, nil)
	s.tune(magCaller)
	magCaller.SetResolver(bindagent.NewClient(magCaller, leaf.LOID, leaf.Addr))
	if _, err := node.Spawn(ml, mag,
		rt.WithCaller(magCaller), rt.WithLabel(fmt.Sprintf("magistrate/%d", magSeq)),
		rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		return nil, err
	}
	// "Magistrates also get started 'outside' of Legion, and they too
	// contact their class, LegionMagistrate" (§4.2.1).
	if err := class.NewClient(s.boot, loid.LegionMagistrate).RegisterInstance(ml, node.Address()); err != nil {
		return nil, err
	}
	juris.Magistrate = ml
	juris.MagistrateAddr = node.Address()
	juris.mag = mag

	mcl := magistrate.NewClient(s.boot, ml)
	s.boot.AddBinding(bindingFor(ml, node.Address()))
	for i, hl := range juris.Hosts {
		if err := mcl.AddHost(hl, juris.HostAddrs[i]); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.Jurisdictions = append(s.Jurisdictions, juris)
	s.mu.Unlock()
	added = true
	return juris, nil
}

// startHost brings a fresh Host Object up and announces it to
// LegionHost (§4.2.1).
func (s *System) startHost(seq uint64) (loid.LOID, oa.Address, *host.Host, error) {
	hl := loid.New(loid.ClassIDLegionHost, seq, loid.DeriveKey(fmt.Sprintf("host/%d", seq)))
	node, err := s.newNode(fmt.Sprintf("host%d", seq))
	if err != nil {
		return loid.Nil, oa.Address{}, nil, err
	}
	leaf := s.leafFor(int(seq))
	resFactory := func(self loid.LOID) rt.Resolver {
		c := rt.NewCaller(node, self, nil)
		s.tune(c)
		return bindagent.NewClient(c, leaf.LOID, leaf.Addr)
	}
	hobj := host.New(hl, node, s.Impls, resFactory)
	hostCaller := rt.NewCaller(node, hl, nil)
	s.tune(hostCaller)
	hostCaller.SetResolver(bindagent.NewClient(hostCaller, leaf.LOID, leaf.Addr))
	if _, err := node.Spawn(hl, hobj,
		rt.WithCaller(hostCaller), rt.WithLabel(fmt.Sprintf("host/%d", seq)),
		rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		return loid.Nil, oa.Address{}, nil, err
	}
	if err := class.NewClient(s.boot, loid.LegionHost).RegisterInstance(hl, node.Address()); err != nil {
		return loid.Nil, oa.Address{}, nil, err
	}
	return hl, node.Address(), hobj, nil
}

// ShareHost places an existing host under an additional magistrate's
// jurisdiction — jurisdictions "are potentially non-disjoint; both
// hosts and persistent storage may be contained in two or more
// Jurisdictions" (§2.2).
func (s *System) ShareHost(hostL loid.LOID, hostAddr oa.Address, with *Jurisdiction) error {
	mcl := magistrate.NewClient(s.boot, with.Magistrate)
	if err := mcl.AddHost(hostL, hostAddr); err != nil {
		return err
	}
	with.Hosts = append(with.Hosts, hostL)
	with.HostAddrs = append(with.HostAddrs, hostAddr)
	return nil
}

// SplitJurisdiction relieves an overloaded Magistrate (§2.2: "the
// Jurisdiction can be split, and a new Magistrate can be created to
// take over responsibility for some of the resources and objects"): it
// creates a new jurisdiction, transfers the back half of src's hosts
// to it, and migrates the given objects there via Move, updating each
// object's class.
func (s *System) SplitJurisdiction(src *Jurisdiction, objects []loid.LOID, classOf func(loid.LOID) loid.LOID) (*Jurisdiction, error) {
	if len(src.Hosts) < 2 {
		return nil, fmt.Errorf("core: jurisdiction needs at least 2 hosts to split")
	}
	dst, err := s.AddJurisdiction(0)
	if err != nil {
		return nil, err
	}
	// Transfer the back half of the hosts.
	half := len(src.Hosts) / 2
	moved := src.Hosts[half:]
	movedAddrs := src.HostAddrs[half:]
	srcMag := magistrate.NewClient(s.boot, src.Magistrate)
	dstMag := magistrate.NewClient(s.boot, dst.Magistrate)
	for i, hl := range moved {
		if err := dstMag.AddHost(hl, movedAddrs[i]); err != nil {
			return nil, err
		}
		if err := srcMag.RemoveHost(hl); err != nil {
			return nil, err
		}
		dst.Hosts = append(dst.Hosts, hl)
		dst.HostAddrs = append(dst.HostAddrs, movedAddrs[i])
	}
	src.Hosts = src.Hosts[:half]
	src.HostAddrs = src.HostAddrs[:half]

	// Migrate the chosen objects and update their classes' view.
	for _, obj := range objects {
		if err := srcMag.Move(obj, dst.Magistrate); err != nil {
			return nil, fmt.Errorf("core: move %v: %w", obj, err)
		}
		cls := classOf(obj)
		if cls.IsNil() {
			continue
		}
		if res, err := s.boot.Call(cls, "SetCurrentMagistrates",
			wire.LOID(obj), wire.LOIDList([]loid.LOID{dst.Magistrate})); err != nil || res.Code != wire.OK {
			return nil, fmt.Errorf("core: update class for %v: %v %v", obj, res, err)
		}
		if err := class.NewClient(s.boot, cls).NotifyDeactivated(obj); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
