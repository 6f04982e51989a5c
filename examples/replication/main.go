// Replication: one LOID naming a set of processes (§4.3). The Object
// Address carries several physical addresses plus a semantic — send to
// all, pick one at random, or ordered failover — and surviving
// replicas mask failures without any application-level change.
//
//	go run ./examples/replication
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/binding"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/host"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/wire"
)

func main() {
	impls := implreg.NewRegistry()
	demo.RegisterAll(impls)
	sys, err := core.Boot(core.Options{
		Impls:                impls,
		HostsPerJurisdiction: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	boot := sys.BootClient()

	// Start the same echo object — one LOID — on all three hosts. An
	// object runs at its host's address.
	repLOID := loid.New(900, 1, loid.DeriveKey("replicated-echo"))
	j := sys.Jurisdictions[0]
	var elems []oa.Element
	var hostRefs []rt.Ref
	for i, hl := range j.Hosts {
		hc := boot.To(hl)
		set := []persist.OPR{{LOID: repLOID, Impl: demo.EchoImpl}}
		if _, err := host.StartObjects.Call(context.Background(), hc, set); err != nil {
			log.Fatal(err)
		}
		addr := j.HostAddrs[i]
		fmt.Printf("replica %d of %v running on host %v at %v\n", i+1, repLOID, hl, addr)
		elems = append(elems, addr.Primary())
		hostRefs = append(hostRefs, hc)
	}

	user, err := sys.NewClient(loid.New(300, 1, loid.DeriveKey("user")))
	if err != nil {
		log.Fatal(err)
	}
	user.Timeout = 500 * time.Millisecond // fail over quickly

	try := func(label string) {
		res, err := user.Call(repLOID, "Echo", wire.String("are you there?"))
		switch {
		case err != nil:
			fmt.Printf("%-28s -> error: %v\n", label, err)
		case res.Code != wire.OK:
			fmt.Printf("%-28s -> %s: %s\n", label, res.Code, res.ErrText)
		default:
			out, _ := res.Result(0)
			fmt.Printf("%-28s -> %q\n", label, out)
		}
	}

	// Semantic 1: send to all replicas; the first reply wins.
	user.AddBinding(binding.Forever(repLOID, oa.Replicated(oa.SemAll, 0, elems...)))
	try("all replicas, all healthy")

	// Semantic 2: random replica per call.
	user.Cache().InvalidateLOID(repLOID)
	user.AddBinding(binding.Forever(repLOID, oa.Replicated(oa.SemRandom, 0, elems...)))
	for i := 0; i < 3; i++ {
		try(fmt.Sprintf("random replica, call %d", i+1))
	}

	// Semantic 3: ordered failover — kill replica 1, the semantic
	// hides it.
	fmt.Println("\nkilling replica 1 ...")
	if _, err := host.EvictObjects.Call(context.Background(), hostRefs[0], []loid.LOID{repLOID}, oa.Address{}); err != nil {
		log.Fatal(err)
	}
	user.Cache().InvalidateLOID(repLOID)
	user.AddBinding(binding.Forever(repLOID, oa.Replicated(oa.SemOrdered, 0, elems...)))
	try("ordered failover, 1 dead")

	// Kill another one: still served by the last survivor.
	fmt.Println("killing replica 2 ...")
	if _, err := host.EvictObjects.Call(context.Background(), hostRefs[1], []loid.LOID{repLOID}, oa.Address{}); err != nil {
		log.Fatal(err)
	}
	user.Cache().InvalidateLOID(repLOID)
	user.AddBinding(binding.Forever(repLOID, oa.Replicated(oa.SemAll, 0, elems...)))
	try("all semantic, 2 dead")

	// Kill the last: now the failure is visible — as it must be.
	fmt.Println("killing replica 3 ...")
	if _, err := host.EvictObjects.Call(context.Background(), hostRefs[2], []loid.LOID{repLOID}, oa.Address{}); err != nil {
		log.Fatal(err)
	}
	user.Cache().InvalidateLOID(repLOID)
	user.AddBinding(binding.Forever(repLOID, oa.Replicated(oa.SemAll, 0, elems...)))
	user.Retry.MaxAttempts = 1
	try("all semantic, all dead")
}
