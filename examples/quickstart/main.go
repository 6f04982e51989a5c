// Quickstart: boot a single-machine Legion system, derive a class,
// create objects, and invoke methods through the full binding path.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/class"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/wire"
)

func main() {
	// 1. Bootstrap: LegionClass, the core Abstract classes, a
	// jurisdiction with a Magistrate and two Host Objects, and a
	// Binding Agent (§4.2.1).
	impls := implreg.NewRegistry()
	demo.RegisterAll(impls)
	sys, err := core.Boot(core.Options{
		Impls:                impls,
		HostsPerJurisdiction: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	fmt.Println("== Legion is up ==")
	fmt.Printf("LegionClass answers at %v\n", sys.LegionClassAddr)
	fmt.Printf("jurisdiction: magistrate %v over %d hosts\n",
		sys.Jurisdictions[0].Magistrate, len(sys.Jurisdictions[0].Hosts))

	// 2. Derive a class from LegionObject (§2.1: the kind-of relation).
	counterClass, classLOID, err := sys.DeriveClass("Counter", demo.CounterImpl, demo.CounterInterface(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nderived class Counter = %v\n", classLOID)

	// 3. Create instances (§2.1: the is-a relation). The class picks a
	// Magistrate, which picks a Host Object, which starts the process.
	var objs []loid.LOID
	for i := 0; i < 3; i++ {
		obj, b, err := counterClass.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("created %v at %v\n", obj, b.Address)
		objs = append(objs, obj)
	}

	// 4. A fresh client resolves objects by LOID alone, through its
	// Binding Agent (§4.1).
	user, err := sys.NewClient(loid.New(300, 1, loid.DeriveKey("alice")))
	if err != nil {
		log.Fatal(err)
	}
	for i, obj := range objs {
		res, err := user.Call(obj, "Add", wire.Int64(int64(10*(i+1))))
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Err(); err != nil {
			log.Fatal(err)
		}
		v, _ := res.Result(0)
		val, _ := wire.AsInt64(v)
		fmt.Printf("counter %v = %d\n", obj, val)
	}
	st := user.Cache().Stats()
	fmt.Printf("client binding cache: %d hits, %d misses\n", st.Hits, st.Misses)

	// 5. Objects answer the object-mandatory member functions (§2.1).
	res, err := user.Call(objs[0], "GetInterface")
	if err != nil {
		log.Fatal(err)
	}
	raw, _ := res.Result(0)
	ifc, _, err := idl.Unmarshal(raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe instance's full interface:\n%s", ifc.Format())

	// 6. Classes are objects too: ask the class about itself.
	info, err := class.Info.Call(context.Background(), counterClass.Ref)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("class %s: %d instances, superclass %v\n", info.Name, info.Instances, info.Super)

	// 7. String names live in contexts (§4.1).
	l, err := sys.Names.Lookup("/classes/Counter")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("context lookup /classes/Counter -> %v\n", l)

	// 8. Clean up: Delete removes instances from existence (§3.8).
	if _, err := class.Delete.Call(context.Background(), counterClass.Ref, objs[2]); err != nil {
		log.Fatal(err)
	}
	if _, err := class.NewClient(user, classLOID).GetBinding(objs[2]); err != nil {
		fmt.Printf("after Delete, binding %v fails as required: %v\n", objs[2], err)
	}
}
