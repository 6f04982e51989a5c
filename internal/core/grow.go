package core

import (
	"context"
	"fmt"

	"repro/internal/class"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/oa"
)

// Runtime growth (§4.2.1: "New Host Objects and Magistrates will be
// added as the Legion system expands to include new hosts and
// Jurisdictions") and jurisdiction management (§2.2: jurisdictions are
// potentially non-disjoint, and "if a Jurisdiction's resources impose a
// substantial load on its Magistrate, the Jurisdiction can be split").

// AddJurisdiction starts a new Magistrate with its own storage and
// hostCount fresh Host Objects, through the very path Boot builds its
// jurisdictions with: the same announcements, the same store
// (StoreBackend, DataDir/j<index>), and the same checkpoint and
// load-report loops. Boot does not restore a runtime-added jurisdiction
// after a restart: it rebuilds only Options.Jurisdictions of them from
// the snapshot. So when DataDir/j<index> still holds an earlier run's
// records, which no Magistrate refers to any more, AddJurisdiction
// refuses to adopt them and errors; remove the directory to reuse the
// index.
func (s *System) AddJurisdiction(hostCount int) (*Jurisdiction, error) {
	return s.addJurisdiction(max(hostCount, 0), nil)
}

// ShareHost places an existing host under an additional magistrate's
// jurisdiction — jurisdictions "are potentially non-disjoint; both
// hosts and persistent storage may be contained in two or more
// Jurisdictions" (§2.2). The host keeps its one checkpoint loop.
func (s *System) ShareHost(hostL loid.LOID, hostAddr oa.Address, with *Jurisdiction) error {
	return with.enroll(s.boot, hostL, hostAddr, s.hostImpl(hostL), 0, 0)
}

// hostImpl finds the in-process Host Object l; nil when l runs in
// another process.
func (s *System) hostImpl(l loid.LOID) *host.Host {
	for _, j := range s.Jurisdictions {
		for i, hl := range j.Hosts {
			if hl.SameObject(l) {
				return j.hostImpls[i]
			}
		}
	}
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
	bg := context.Background()
	srcMag := s.boot.To(src.Magistrate)
	for i := half; i < len(src.Hosts); i++ {
		if err := dst.enroll(s.boot, src.Hosts[i], src.HostAddrs[i], src.hostImpls[i], 0, 0); err != nil {
			return nil, err
		}
		if _, err := magistrate.RemoveHost.Call(bg, srcMag, src.Hosts[i]); err != nil {
			return nil, err
		}
	}
	src.Hosts, src.HostAddrs, src.hostImpls = src.Hosts[:half], src.HostAddrs[:half], src.hostImpls[:half]

	// Migrate the chosen objects and update their classes' view.
	for _, obj := range objects {
		if _, err := magistrate.Move.Call(bg, srcMag, obj, dst.Magistrate); err != nil {
			return nil, fmt.Errorf("core: move %v: %w", obj, err)
		}
		cls := classOf(obj)
		if cls.IsNil() {
			continue
		}
		if _, err := class.SetCurrentMagistrates.Call(bg, s.boot.To(cls), obj, []loid.LOID{dst.Magistrate}); err != nil {
			return nil, fmt.Errorf("core: update class for %v: %w", obj, err)
		}
		if _, err := class.NotifyDeactivated.Call(bg, s.boot.To(cls), obj); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
