package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/class"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/transport"
)

// procs_tcp: real processes. A `legiond -mode core` and one `legiond
// -mode host` run as children; the benchmark attaches as a client and
// calls demo.echo objects living in the host process over TCP loopback
// (loopback, not a real link: wire latency and link rate are not
// measured). It is the only workload where transport.tcp (writev
// shards, read window, dial) and process boundaries dominate. The mix
// uses that one layer two ways: 80 % of the calls echo 32 B, where
// per-frame cost sets the median, and 20 % echo 16 KiB, where per-byte
// cost sets the p99 and payload_mb_per_s; a batching gain that costs
// large frames, or the reverse, shows.
const (
	procsObjects   = 64
	procsSmall     = 32
	procsBulk      = 16 << 10
	procsBulkShare = 200 // per mille
	procsHostSeq   = 100
)

// child is one spawned legiond.
type child struct {
	cmd    *exec.Cmd
	log    string
	exited chan struct{} // closed once Wait has returned
}

type procsTCP struct {
	dir      string
	children []*child
	remote   *core.Remote
	callers  []*rt.Caller
	objs     []loid.LOID
	// small and bulk are each caller's argument buffers; the first 8
	// bytes carry the op number so no two calls echo the same bytes.
	small, bulk [][]byte
}

func (w *procsTCP) mix() opMix { return opMix{variantPermille: procsBulkShare} }

// childProcs is the GOMAXPROCS the legiond children run with: half the
// machine, so the benchmark's callers keep the other half.
func childProcs() int { return max(1, runtime.NumCPU()/2) }

func (w *procsTCP) spawn(r *run, args ...string) (*child, error) {
	c := &child{exited: make(chan struct{})}
	c.log = filepath.Join(w.dir, fmt.Sprintf("legiond-%d.log", len(w.children)))
	logf, err := os.Create(c.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	c.cmd = exec.Command(r.legiond, args...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	r.track(c.cmd.Process, true)
	go func() {
		_ = c.cmd.Wait() // the exit status is in the log; exited is the signal
		r.track(c.cmd.Process, false)
		close(c.exited)
	}()
	w.children = append(w.children, c)
	return c, nil
}

// waitFor polls cond until it holds, a child dies, or the deadline
// passes.
func (w *procsTCP) waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if err := w.alive(); err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// alive reports an error when any child has exited.
func (w *procsTCP) alive() error {
	for _, c := range w.children {
		select {
		case <-c.exited:
			tail, _ := os.ReadFile(c.log)
			if len(tail) > 2000 {
				tail = tail[len(tail)-2000:]
			}
			return fmt.Errorf("legiond (pid %d) exited early: %s", c.cmd.Process.Pid, bytes.TrimSpace(tail))
		default:
		}
	}
	return nil
}

func (w *procsTCP) setup(r *run) error {
	var err error
	if w.dir, err = os.MkdirTemp(r.tmpRoot, "procs-"); err != nil {
		return err
	}
	info := filepath.Join(w.dir, "legion.json")
	if _, err := w.spawn(r, "-mode", "core", "-info", info); err != nil {
		return err
	}
	if err := w.waitFor("the contact sheet", func() bool { _, err := os.Stat(info); return err == nil }); err != nil {
		return err
	}
	if _, err := w.spawn(r, "-mode", "host", "-info", info, "-seq", strconv.Itoa(procsHostSeq)); err != nil {
		return err
	}
	ni, err := core.LoadNetInfo(info)
	if err != nil {
		return err
	}
	if w.remote, err = core.Attach(ni); err != nil {
		return err
	}
	// Same transport Attach picks, with this process's registry wired in
	// so net/tcp_dropped is readable.
	w.remote.Trans = &transport.TCP{Registry: w.remote.Reg}
	w.callers = w.callers[:0]
	for c := 0; c < r.callers; c++ {
		cl, err := w.remote.NewClient(loid.New(300, uint64(7000+c), loid.DeriveKey(fmt.Sprintf("bench/tcp/%d", c))))
		if err != nil {
			return err
		}
		cl.Timeout = callTimeout
		w.callers = append(w.callers, cl)
	}
	admin := w.callers[0]
	magL, err := loid.Parse(ni.Magistrates[0].LOID)
	if err != nil {
		return err
	}
	hostL := loid.New(loid.ClassIDLegionHost, procsHostSeq, loid.DeriveKey(fmt.Sprintf("host/%d", procsHostSeq)))
	mc := magistrate.NewClient(admin, magL)
	if err := w.waitFor("the host to join", func() bool {
		hosts, err := mc.ListHosts()
		if err != nil {
			return false
		}
		for _, h := range hosts {
			if h.SameObject(hostL) {
				return true
			}
		}
		return false
	}); err != nil {
		return err
	}
	clsL, clsB, err := class.NewClient(admin, loid.LegionObject).Derive("BenchEcho", demo.EchoImpl, demo.EchoInterface(), 0, loid.Nil)
	if err != nil {
		return fmt.Errorf("derive echo class: %w", err)
	}
	admin.AddBinding(clsB)
	cls := class.NewClient(admin, clsL)
	w.objs = w.objs[:0]
	for i := 0; i < procsObjects; i++ {
		l, _, err := cls.Create(nil, magL, hostL)
		if err != nil {
			return fmt.Errorf("create echo object %d: %w", i, err)
		}
		w.objs = append(w.objs, l)
	}
	w.small, w.bulk = nil, nil
	g := newStream(r.seed, payloadStream)
	for c, cl := range w.callers {
		small, bulk := make([]byte, procsSmall), make([]byte, procsBulk)
		for i := 0; i+8 <= len(bulk); i += 8 {
			binary.LittleEndian.PutUint64(bulk[i:], g.next())
		}
		copy(small, bulk)
		w.small, w.bulk = append(w.small, small), append(w.bulk, bulk)
		// Warm the bindings: one call per owned object, through the
		// Binding Agent in the core process.
		for _, l := range partition(w.objs, c, len(w.callers)) {
			res, err := cl.Call(l, "Echo", small)
			if err == nil {
				err = res.Err()
			}
			if err != nil {
				return fmt.Errorf("warm %v: %w", l, err)
			}
		}
	}
	return w.alive()
}

func (w *procsTCP) attach(cs *callerState) error {
	cs.caller, cs.objs = w.callers[cs.id], partition(w.objs, cs.id, len(w.callers))
	return nil
}

func (w *procsTCP) prepare(cs *callerState, o op) (loid.LOID, string, []byte, error) {
	arg := w.small[cs.id]
	if o.variant {
		arg = w.bulk[cs.id]
	}
	binary.LittleEndian.PutUint64(arg, cs.opSeq)
	return cs.objs[o.obj], "Echo", arg, nil
}

func (w *procsTCP) verify(cs *callerState, o op, res *rt.Result) (int, error) {
	arg := w.small[cs.id]
	if o.variant {
		arg = w.bulk[cs.id]
	}
	got, err := res.Result(0)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, arg) {
		return 0, fmt.Errorf("Echo on %v returned %d bytes that differ from the %d sent", cs.objs[o.obj], len(got), len(arg))
	}
	return 2 * len(arg), nil
}

func (w *procsTCP) registry() *metrics.Registry { return w.remote.Reg }

func (w *procsTCP) clientCallers() []*rt.Caller { return w.callers }

// finish adds the children's peak resident sets to rss_mb and reports
// a child that did not live to the end.
func (w *procsTCP) finish(e map[string]float64) []string {
	for _, c := range w.children {
		e["rss_mb"] += float64(procStatusKiB(c.cmd.Process.Pid, "VmHWM")) / 1024
	}
	if err := w.alive(); err != nil {
		return []string{err.Error()}
	}
	return nil
}

// close stops the children (SIGTERM, then SIGKILL after a grace
// period), waits until each has been reaped, and removes the run's
// directory.
func (w *procsTCP) close() {
	if w.remote != nil {
		w.remote.Close()
		w.remote = nil
	}
	for _, c := range w.children {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	}
	for _, c := range w.children {
		select {
		case <-c.exited:
		case <-time.After(3 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.exited
		}
	}
	w.children = nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// buildLegiond compiles cmd/legiond into the checkout's build directory
// and returns the binary's path.
func buildLegiond(root string) (string, error) {
	out := filepath.Join(root, buildDir, "legiond")
	if err := goBuild(root, out, "./cmd/legiond"); err != nil {
		return "", err
	}
	return out, nil
}
