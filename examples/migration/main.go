// Migration: jurisdictions, deactivation, and stale-binding recovery
// (§2.2, §3.1, §3.8, §4.1.4). An object moves between Active and Inert
// states and between Jurisdictions; clients holding stale bindings
// heal transparently through the Binding Agent refresh path, with
// state intact throughout.
//
//	go run ./examples/migration
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/class"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/rt"
	"repro/internal/wire"
)

func main() {
	impls := implreg.NewRegistry()
	demo.RegisterAll(impls)
	sys, err := core.Boot(core.Options{
		Impls:         impls,
		Jurisdictions: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	boot := sys.BootClient()
	jA, jB := sys.Jurisdictions[0], sys.Jurisdictions[1]
	magA := magistrate.NewClient(boot, jA.Magistrate)
	magB := magistrate.NewClient(boot, jB.Magistrate)
	fmt.Printf("jurisdiction A: magistrate %v\njurisdiction B: magistrate %v\n", jA.Magistrate, jB.Magistrate)

	// A KV store created in jurisdiction A.
	kvClass, _, err := sys.DeriveClass("KV", demo.KVImpl, demo.KVInterface(), 0)
	if err != nil {
		log.Fatal(err)
	}
	kv, _, err := kvClass.Create(nil, jA.Magistrate, loid.Nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncreated KV store %v in jurisdiction A\n", kv)

	user, err := sys.NewClient(loid.New(300, 1, loid.DeriveKey("user")))
	if err != nil {
		log.Fatal(err)
	}
	put := func(k, v string) {
		must(user, kv, "Put", wire.String(k), []byte(v))
	}
	get := func(k string) string {
		res := must(user, kv, "Get", wire.String(k))
		v, _ := res.Result(0)
		return string(v)
	}
	put("paper", "The Core Legion Object Model")
	put("year", "1995")
	fmt.Printf("kv[paper] = %q\n", get("paper"))

	// Deactivate: the object becomes an OPR on A's storage (Fig 11).
	fmt.Println("\ndeactivating (Active -> Inert)...")
	if err := magA.Deactivate(kv); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jurisdiction A now stores %d OPR(s)\n", jA.StoredOPRs())
	// The user's binding is now stale; the next call detects it,
	// refreshes through agent -> class -> magistrate, which reactivates.
	fmt.Printf("kv[paper] after reactivation = %q (binding healed transparently)\n", get("paper"))

	// Migrate: Move = Copy + Delete (§3.8).
	fmt.Println("\nmoving the store to jurisdiction B...")
	bg := context.Background()
	if _, err := magistrate.Move.Call(bg, magA.Ref, kv, jB.Magistrate); err != nil {
		log.Fatal(err)
	}
	// The mover updates the class's logical table (Fig 16 fields).
	if _, err := class.SetCurrentMagistrates.Call(bg, kvClass.Ref, kv, []loid.LOID{jB.Magistrate}); err != nil {
		log.Fatalf("update class: %v", err)
	}
	if _, err := class.NotifyDeactivated.Call(bg, kvClass.Ref, kv); err != nil {
		log.Fatal(err)
	}
	inA, _ := magistrate.HasObject.Call(bg, magA.Ref, kv)
	fmt.Printf("jurisdiction A still knows the object: %v\n", inA.Known)
	inB, _ := magistrate.HasObject.Call(bg, magB.Ref, kv)
	fmt.Printf("jurisdiction B knows the object: %v\n", inB.Known)

	// The user still holds jurisdiction-A era bindings. One call heals
	// everything, and the data survived two hops of persistent storage.
	fmt.Printf("\nkv[paper] from jurisdiction B = %q\n", get("paper"))
	fmt.Printf("kv[year]  from jurisdiction B = %q\n", get("year"))
	inB, _ = magistrate.HasObject.Call(bg, magB.Ref, kv)
	fmt.Printf("object active in jurisdiction B: %v\n", inB.Active)
}

func must(c *rt.Caller, target loid.LOID, method string, args ...[]byte) *rt.Result {
	res, err := c.Call(target, method, args...)
	if err != nil {
		log.Fatalf("%s: %v", method, err)
	}
	if res.Code != wire.OK {
		log.Fatalf("%s: %s %s", method, res.Code, res.ErrText)
	}
	return res
}
