package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bindagent"
	"repro/internal/class"
	"repro/internal/clock"
	"repro/internal/health"
	"repro/internal/host"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Every core object starts the one way §4.2.1 gives: outside Legion,
// on a node of its own, after which it contacts its class. Boot,
// AddJurisdiction and Remote.JoinHost all start hosts and Magistrates
// through the functions below, so a host added at run time is built,
// announced, enrolled and checkpointed exactly like a boot-time one.

// remoteCallTimeout is the per-wave reply deadline of every caller a
// Remote builds.
const remoteCallTimeout = 10 * time.Second

// proc is one process's side of starting objects: the transport and
// hooks each node gets, the settings each caller gets, and the list
// that owns the nodes. System and Remote build one from their fields
// whenever they start something, so a Remote field set after Attach
// still applies.
type proc struct {
	trans   transport.Transport
	reg     *metrics.Registry
	tracer  *trace.Tracer
	obs     *obs.Plane
	clock   clock.Clock
	health  *health.Tracker
	timeout time.Duration
	nodes   *[]*rt.Node
}

func (s *System) proc() proc {
	o := &s.Options
	return proc{s.Trans, s.Reg, o.Tracer, o.Obs, o.Clock, o.Health, o.CallTimeout, &s.nodes}
}

func (r *Remote) proc() proc {
	return proc{trans: r.Trans, reg: r.Reg, tracer: r.Tracer, obs: r.Obs, timeout: remoteCallTimeout, nodes: &r.nodes}
}

func (p proc) newNode(name string) (*rt.Node, error) {
	n, err := rt.NewNode(p.trans, p.reg, name)
	if err != nil {
		return nil, err
	}
	if p.tracer != nil {
		n.SetTracer(p.tracer)
	}
	if ob := p.obs.Observer(); ob != nil {
		n.SetObserver(ob)
	}
	if p.clock != nil {
		n.SetClock(p.clock)
	}
	*p.nodes = append(*p.nodes, n)
	return n, nil
}

// caller builds a resolver-less caller for self on node, with the
// process's reply deadline and health tracker.
func (p proc) caller(node *rt.Node, self loid.LOID) *rt.Caller {
	c := rt.NewCaller(node, self, nil)
	c.Timeout = p.timeout
	if p.health != nil {
		c.SetHealth(p.health)
	}
	return c
}

// spawn starts a service object: build makes its implementation over
// a new node, where it serves as self with a caller of its own. A
// non-nil leaf is the Binding Agent that caller resolves through.
func (p proc) spawn(name, label string, self loid.LOID, leaf *AgentRef, build func(*rt.Node) rt.Impl) (*rt.Node, *rt.Caller, error) {
	node, err := p.newNode(name)
	if err != nil {
		return nil, nil, err
	}
	c := p.caller(node, self)
	if leaf != nil {
		c.SetResolver(leaf.client(c))
	}
	if _, err := node.Spawn(self, build(node),
		rt.WithCaller(c), rt.WithLabel(label), rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		return nil, nil, err
	}
	return node, c, nil
}

// startHost starts Host Object seq over impls and announces it to
// LegionHost through admin. The host and every object it runs resolve
// through leaf.
func (p proc) startHost(seq uint64, impls *implreg.Registry, leaf AgentRef, admin *rt.Caller) (*JoinedHost, error) {
	hl := loid.New(loid.ClassIDLegionHost, seq, loid.DeriveKey(fmt.Sprintf("host/%d", seq)))
	var h *host.Host
	node, _, err := p.spawn(fmt.Sprintf("host%d", seq), fmt.Sprintf("host/%d", seq), hl, &leaf, func(node *rt.Node) rt.Impl {
		h = host.New(hl, node, impls, func(self loid.LOID) rt.Resolver {
			return bindagent.NewLazyClient(func() *rt.Caller { return p.caller(node, self) }, leaf.LOID, leaf.Addr)
		})
		return h
	})
	if err != nil {
		return nil, err
	}
	if _, err := class.RegisterInstance.Call(context.Background(), admin.To(loid.LegionHost), hl, node.Address()); err != nil {
		return nil, fmt.Errorf("core: register with LegionHost: %w", err)
	}
	return &JoinedHost{Host: h, LOID: hl, Node: node}, nil
}

// enroll puts host l at addr under j: j's Magistrate takes it on
// through admin, and j lists it beside h, its in-process Host Object
// (nil when it runs in another process). When ckpt or load is > 0, h
// starts its checkpoint or load-report loop towards j's Magistrate; a
// host enrolled a second time (ShareHost, SplitJurisdiction) passes 0,
// as its loops already run.
func (j *Jurisdiction) enroll(admin *rt.Caller, l loid.LOID, addr oa.Address, h *host.Host, ckpt, load time.Duration) error {
	if _, err := magistrate.AddHost.Call(context.Background(), admin.To(j.Magistrate), l, addr); err != nil {
		return err
	}
	if ckpt > 0 {
		h.StartCheckpointer(j.Magistrate, j.MagistrateAddr, ckpt)
	}
	if load > 0 {
		h.StartLoadReporter(j.Magistrate, j.MagistrateAddr, load)
	}
	j.Hosts = append(j.Hosts, l)
	j.HostAddrs = append(j.HostAddrs, addr)
	j.hostImpls = append(j.hostImpls, h)
	return nil
}

// addJurisdiction brings up the next jurisdiction, for Boot and
// AddJurisdiction alike. Its store opens; hosts fresh Host Objects and
// then its Magistrate, restored from saved when that is not empty,
// start and announce themselves to their classes; the hosts are
// enrolled under the Magistrate; and the system lists the result.
func (s *System) addJurisdiction(hosts int, saved []byte) (_ *Jurisdiction, err error) {
	s.mu.Lock()
	s.nextMagSeq++
	magSeq, hostSeq := s.nextMagSeq, s.nextHostSeq
	s.nextHostSeq += uint64(hosts)
	s.mu.Unlock()

	// Magistrates are numbered from 1 in jurisdiction order.
	index := int(magSeq) - 1
	store, err := s.openStore(index)
	if err != nil {
		return nil, err
	}
	j := &Jurisdiction{Store: store}
	defer func() {
		if err != nil {
			// System.Close reaches only the jurisdictions it lists.
			shutdown([]*Jurisdiction{j}, nil)
			_ = store.Close()
		}
	}()
	// Boot restores only Options.Jurisdictions of them, so records under
	// a higher index belong to no Magistrate any more.
	if n := store.Stats().Records; n > 0 && index >= s.Options.Jurisdictions {
		return nil, fmt.Errorf("core: new jurisdiction %d: %s/j%d holds %d records from an earlier run", index, s.Options.DataDir, index, n)
	}

	p := s.proc()
	started := make([]*JoinedHost, hosts)
	for i := range started {
		seq := hostSeq + uint64(i) + 1
		if started[i], err = p.startHost(seq, s.Impls, s.leafFor(int(seq)), s.boot); err != nil {
			return nil, err
		}
	}

	ml := loid.New(loid.ClassIDMagistrate, magSeq, loid.DeriveKey(fmt.Sprintf("magistrate/%d", magSeq)))
	mag := magistrate.New(ml, store)
	mag.BindingTTL = s.Options.BindingTTL
	mag.SetClock(s.Options.Clock)
	if s.Options.Obs != nil {
		mag.SetPlane(s.Options.Obs)
	}
	if len(saved) > 0 {
		if err := mag.RestoreState(saved); err != nil {
			return nil, fmt.Errorf("core: restore magistrate %d: %w", index, err)
		}
		// The saved host list names the previous process's endpoints;
		// this life's hosts are enrolled below.
		mag.ForgetHosts()
	}
	leaf := s.leafFor(index)
	node, _, err := p.spawn(fmt.Sprintf("mag%d", magSeq), fmt.Sprintf("magistrate/%d", magSeq), ml, &leaf,
		func(*rt.Node) rt.Impl { return mag })
	if err != nil {
		return nil, err
	}
	// "Magistrates also get started 'outside' of Legion, and they too
	// contact their class, LegionMagistrate" (§4.2.1).
	if _, err := class.RegisterInstance.Call(context.Background(), s.boot.To(loid.LegionMagistrate), ml, node.Address()); err != nil {
		return nil, err
	}
	j.Magistrate, j.MagistrateAddr, j.mag = ml, node.Address(), mag
	s.boot.AddBinding(bindingFor(ml, node.Address()))
	for _, h := range started {
		if err := j.enroll(s.boot, h.LOID, h.Node.Address(), h.Host, s.Options.CheckpointEvery, s.Options.LoadReportEvery); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.Jurisdictions = append(s.Jurisdictions, j)
	s.mu.Unlock()
	return j, nil
}

// hostsOf lists the in-process Host Objects of js, each once: a host
// shared by several jurisdictions (§2.2) is listed in each of them.
func hostsOf(js []*Jurisdiction) []*host.Host {
	seen := make(map[*host.Host]bool)
	var out []*host.Host
	for _, j := range js {
		for _, h := range j.hostImpls {
			if h != nil && !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	return out
}

// shutdown stops the loops of js's hosts, then closes nodes.
func shutdown(js []*Jurisdiction, nodes []*rt.Node) {
	for _, h := range hostsOf(js) {
		h.StopCheckpointer()
		h.StopLoadReporter()
	}
	for _, n := range nodes {
		n.Close()
	}
}

// client is a Binding Agent client for the agent a names, calling out
// through c.
func (a AgentRef) client(c *rt.Caller) *bindagent.Client {
	return bindagent.NewClient(c, a.LOID, a.Addr)
}
