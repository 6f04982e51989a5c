// Command legiond runs Legion nodes over TCP.
//
// Core mode boots an entire Legion system — the core Abstract class
// objects, Binding Agents, Magistrates and Host Objects (§4.2.1) — and
// writes a contact sheet other processes use to join:
//
//	legiond -mode core -info /tmp/legion.json -jurisdictions 2 -hosts 2
//
// Host mode contributes one more Host Object to a running system, the
// way the paper has new hosts enter Legion (§2.3, §4.2.1):
//
//	legiond -mode host -info /tmp/legion.json -seq 100
//
// Both modes serve until killed. The demo implementations
// (demo.counter, demo.echo, demo.kv) are registered on every host.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/debughttp"
	"repro/internal/demo"
	"repro/internal/health"
	"repro/internal/implreg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	mode := flag.String("mode", "core", "core | host")
	info := flag.String("info", "legion.json", "contact sheet path (written in core mode, read in host mode)")
	jurisdictions := flag.Int("jurisdictions", 1, "core: number of jurisdictions")
	hosts := flag.Int("hosts", 1, "core: hosts per jurisdiction")
	leaves := flag.Int("leaf-agents", 1, "core: leaf binding agents")
	fanout := flag.Int("agent-fanout", 0, "core: binding agent tree fanout (0 = flat)")
	seq := flag.Uint64("seq", 100, "host: unique host sequence number")
	magIdx := flag.Int("magistrate", 0, "host: index of the jurisdiction to join")
	dataDir := flag.String("data-dir", "", "core: durable home for the whole system — OPRs, checkpoints, and tables persist here across daemon restarts")
	ckptEvery := flag.Duration("checkpoint", 0, "checkpoint residents' state this often (0 disables; core and host modes)")
	loadReport := flag.Duration("load-report", 0, "report host load vectors to the Magistrate this often — feeds load-aware placement and the hosts LQL table (0 disables; core and host modes)")
	storeBackend := flag.String("store", "", "core: jurisdiction storage engine: mem | segment (default: segment with -data-dir, else mem)")
	debugAddr := flag.String("debug-addr", "", "serve the observability surface (metrics, LQL queries, pprof) on this address; empty disables it")
	traceSample := flag.Int("trace-sample", trace.DefaultSampleEvery, "trace one invocation in N (1 = every invocation); effective with -debug-addr")
	flag.Parse()

	impls := implreg.NewRegistry()
	demo.RegisterAll(impls)

	switch *mode {
	case "core":
		reg := metrics.NewRegistry()
		opts := core.Options{
			Transport:            &transport.TCP{Registry: reg},
			Registry:             reg,
			Impls:                impls,
			Jurisdictions:        *jurisdictions,
			HostsPerJurisdiction: *hosts,
			LeafAgents:           *leaves,
			AgentFanout:          *fanout,
			DataDir:              *dataDir,
			StoreBackend:         *storeBackend,
			CheckpointEvery:      *ckptEvery,
			LoadReportEvery:      *loadReport,
		}
		if *dataDir != "" && *ckptEvery == 0 {
			// A durable system should checkpoint by default; otherwise a
			// restart only preserves deactivated objects.
			opts.CheckpointEvery = time.Second
		}
		if *debugAddr != "" {
			// The debug surface implies observability: install a tracer,
			// a shared health tracker, and the cluster observability
			// plane so it has something to show.
			opts.Tracer = trace.New(trace.Config{SampleEvery: *traceSample})
			opts.Health = health.NewTracker(health.Config{}, opts.Registry)
			opts.Obs = obs.NewPlane(obs.Config{
				Host:     "core",
				Registry: opts.Registry,
				Tracer:   opts.Tracer,
			})
			if opts.LoadReportEvery == 0 {
				// The hosts table is dead air without load reports.
				opts.LoadReportEvery = time.Second
			}
		}
		sys, err := core.Boot(opts)
		if err != nil {
			log.Fatalf("legiond: boot: %v", err)
		}
		defer sys.Close()
		if *debugAddr != "" {
			bound, stopDebug, err := debughttp.Serve(*debugAddr, opts.Obs)
			if err != nil {
				log.Fatalf("legiond: debug listener: %v", err)
			}
			defer stopDebug()
			fmt.Printf("legiond: debug surface at http://%s/ (tracing 1 in %d)\n", bound, *traceSample)
		}
		if err := sys.WriteNetInfo(*info); err != nil {
			log.Fatalf("legiond: write contact sheet: %v", err)
		}
		ni, _ := sys.NetInfo()
		fmt.Printf("legiond: core up — LegionClass at %s, %d jurisdiction(s), %d agent(s)\n",
			ni.LegionClass, len(sys.Jurisdictions), len(sys.Agents))
		fmt.Printf("legiond: contact sheet written to %s\n", *info)
		if *dataDir != "" {
			fmt.Printf("legiond: durable state under %s (checkpoint every %s)\n", *dataDir, opts.CheckpointEvery)
		}
		waitForSignal()
		if *dataDir != "" {
			// A final checkpoint round plus the table snapshot makes the
			// shutdown lossless; the next `legiond -data-dir` continues
			// where this one stopped.
			if n, err := sys.CheckpointNow(); err != nil {
				log.Printf("legiond: final checkpoint (%d saved): %v", n, err)
			}
			if err := sys.SaveSnapshot(); err != nil {
				log.Printf("legiond: save snapshot: %v", err)
			} else {
				fmt.Printf("legiond: state saved to %s\n", *dataDir)
			}
		}
	case "host":
		ni, err := core.LoadNetInfo(*info)
		if err != nil {
			log.Fatalf("legiond: %v", err)
		}
		remote, err := core.Attach(ni)
		if err != nil {
			log.Fatalf("legiond: attach: %v", err)
		}
		remote.CheckpointEvery = *ckptEvery
		remote.LoadReportEvery = *loadReport
		if *debugAddr != "" {
			// Host processes get the same local observability a core
			// process does: a sampling tracer plus a plane whose metrics
			// and flight-recorder events also piggyback back to the
			// Magistrate on load reports (cluster-wide LQL sees them).
			remote.Tracer = trace.New(trace.Config{SampleEvery: *traceSample})
			remote.Obs = obs.NewPlane(obs.Config{
				Host:     fmt.Sprintf("host/%d", *seq),
				Registry: remote.Reg,
				Tracer:   remote.Tracer,
			})
			if remote.LoadReportEvery == 0 {
				// Telemetry rides the load report; give it a carrier.
				remote.LoadReportEvery = time.Second
			}
			bound, stopDebug, err := debughttp.Serve(*debugAddr, remote.Obs)
			if err != nil {
				log.Fatalf("legiond: debug listener: %v", err)
			}
			defer stopDebug()
			fmt.Printf("legiond: debug surface at http://%s/ (tracing 1 in %d)\n", bound, *traceSample)
		}
		defer remote.Close()
		joined, err := remote.JoinHost(*seq, impls, *magIdx)
		if err != nil {
			log.Fatalf("legiond: join: %v", err)
		}
		fmt.Printf("legiond: host %v joined jurisdiction %d\n", joined.LOID, *magIdx)
		waitForSignal()
	default:
		fmt.Fprintf(os.Stderr, "legiond: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Println("legiond: shutting down")
}
