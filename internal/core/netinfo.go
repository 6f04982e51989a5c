package core

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/host"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// NetInfo is the serialized contact sheet of a TCP-transport Legion
// system: everything an external process needs to join (as a host) or
// to act as a client. It is this implementation's equivalent of the
// out-of-band configuration the paper's bootstrap relies on (§4.2.1).
type NetInfo struct {
	// LegionClass is the metaclass endpoint as "host:port".
	LegionClass string `json:"legion_class"`
	// Leaves lists leaf Binding Agents as (LOID text, "host:port").
	Leaves []NetRef `json:"leaves"`
	// Magistrates lists the jurisdictions' magistrates.
	Magistrates []NetRef `json:"magistrates"`
}

// NetRef names one object and its TCP endpoint.
type NetRef struct {
	LOID string `json:"loid"`
	Addr string `json:"addr"`
}

// NetInfo produces the contact sheet; it fails for non-TCP systems.
func (s *System) NetInfo() (*NetInfo, error) {
	lc, ok := oa.IPHostPort(s.LegionClassAddr.Primary())
	if !ok {
		return nil, fmt.Errorf("core: system is not TCP-addressable")
	}
	ni := &NetInfo{LegionClass: lc}
	for _, leaf := range s.Leaves {
		hp, ok := oa.IPHostPort(leaf.Addr.Primary())
		if !ok {
			return nil, fmt.Errorf("core: leaf agent %v not TCP-addressable", leaf.LOID)
		}
		ni.Leaves = append(ni.Leaves, NetRef{LOID: leaf.LOID.String(), Addr: hp})
	}
	for _, j := range s.Jurisdictions {
		hp, ok := oa.IPHostPort(j.MagistrateAddr.Primary())
		if !ok {
			return nil, fmt.Errorf("core: magistrate %v not TCP-addressable", j.Magistrate)
		}
		ni.Magistrates = append(ni.Magistrates, NetRef{LOID: j.Magistrate.String(), Addr: hp})
	}
	return ni, nil
}

// WriteNetInfo writes the contact sheet to path as JSON.
func (s *System) WriteNetInfo(path string) error {
	ni, err := s.NetInfo()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ni, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadNetInfo reads a contact sheet written by WriteNetInfo.
func LoadNetInfo(path string) (*NetInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ni NetInfo
	if err := json.Unmarshal(data, &ni); err != nil {
		return nil, fmt.Errorf("core: parse %s: %w", path, err)
	}
	if ni.LegionClass == "" || len(ni.Leaves) == 0 {
		return nil, fmt.Errorf("core: %s is incomplete", path)
	}
	return &ni, nil
}

func (r NetRef) resolve() (loid.LOID, oa.Address, error) {
	l, err := loid.Parse(r.LOID)
	if err != nil {
		return loid.Nil, oa.Address{}, err
	}
	elem, err := oa.TCPElement(r.Addr)
	if err != nil {
		return loid.Nil, oa.Address{}, err
	}
	return l, oa.Single(elem), nil
}

// Remote is a process-local attachment to a remote Legion system.
type Remote struct {
	Info  *NetInfo
	Trans transport.Transport
	Reg   *metrics.Registry
	// CheckpointEvery, when > 0, starts a checkpoint loop on every host
	// this process joins: resident state flows back to the owning
	// Magistrate's store, so losing this process loses at most one
	// interval of work.
	CheckpointEvery time.Duration
	// LoadReportEvery, when > 0, starts a load-vector heartbeat on every
	// host this process joins, feeding the owning Magistrate's placement
	// and rebalancing decisions.
	LoadReportEvery time.Duration
	// Tracer, if set, is installed on every node this process creates,
	// so its hops of cross-process invocations record spans locally.
	Tracer *trace.Tracer
	// Obs, if set, is this process's local observability plane: nodes
	// get its SLO observer, and joined hosts piggyback telemetry
	// deltas (this registry's counters, histograms, and flight-recorder
	// events) on their load reports to the owning Magistrate. This is
	// how remote processes' metrics reach cluster-wide LQL queries.
	Obs *obs.Plane

	leaf   AgentRef
	nodes  []*rt.Node
	joined []*Jurisdiction // one per JoinHost, listing the host it joined
}

// Attach prepares a process to talk to the system described by ni over
// TCP. The Remote gets a TCP value of its own, counting into Reg, so
// its traffic to the system crosses sockets even when the system was
// booted in the same process.
func Attach(ni *NetInfo) (*Remote, error) {
	reg := metrics.NewRegistry()
	r := &Remote{Info: ni, Trans: &transport.TCP{Registry: reg}, Reg: reg}
	var err error
	r.leaf.LOID, r.leaf.Addr, err = ni.Leaves[0].resolve()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// NewClient builds a caller in this process wired to the remote
// system's Binding Agents.
func (r *Remote) NewClient(self loid.LOID) (*rt.Caller, error) {
	p := r.proc()
	node, err := p.newNode("remote-client")
	if err != nil {
		return nil, err
	}
	c := p.caller(node, self)
	c.SetResolver(r.leaf.client(c))
	return c, nil
}

// JoinedHost is a started Host Object: one this process contributes
// to a remote system, or one a System starts in its own.
type JoinedHost struct {
	Host *host.Host
	LOID loid.LOID
	Node *rt.Node
}

// JoinHost starts a Host Object in this process, announces it to
// LegionHost (§4.2.1), and places it under the given magistrate's
// jurisdiction, just as Boot starts and enrolls its own hosts. seq
// must be unique across the system's hosts.
func (r *Remote) JoinHost(seq uint64, impls *implreg.Registry, magistrateIdx int) (*JoinedHost, error) {
	if magistrateIdx >= len(r.Info.Magistrates) {
		return nil, fmt.Errorf("core: magistrate index %d out of range", magistrateIdx)
	}
	magL, magAddr, err := r.Info.Magistrates[magistrateIdx].resolve()
	if err != nil {
		return nil, err
	}
	admin, err := r.NewClient(loid.NewNoKey(299, seq+100))
	if err != nil {
		return nil, err
	}
	admin.AddBinding(bindingFor(magL, magAddr))
	h, err := r.proc().startHost(seq, impls, r.leaf, admin)
	if err != nil {
		return nil, err
	}
	if r.Obs != nil {
		// This process owns its registry (distinct from the
		// Magistrate's), so piggybacked telemetry never double-counts.
		h.Host.SetTelemetry(obs.NewTelemetry(r.Reg, r.Obs.Recorder()))
	}
	j := &Jurisdiction{Magistrate: magL, MagistrateAddr: magAddr}
	if err := j.enroll(admin, h.LOID, h.Node.Address(), h.Host, r.CheckpointEvery, r.LoadReportEvery); err != nil {
		return nil, fmt.Errorf("core: AddHost: %w", err)
	}
	r.joined = append(r.joined, j)
	return h, nil
}

// Close tears down the process-local nodes (the remote system is
// unaffected).
func (r *Remote) Close() {
	shutdown(r.joined, r.nodes)
}
