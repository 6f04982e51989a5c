package core

import (
	"context"
	"testing"

	"repro/internal/class"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/wire"
)

// TestClassObjectDeactivationAndRecovery: classes are objects (§2.1.3)
// — a user class object is deactivated into an OPR like anything else,
// and the next Create/GetBinding transparently reactivates it with its
// logical table, sequence counter, and metadata intact.
func TestClassObjectDeactivationAndRecovery(t *testing.T) {
	sys := bootSys(t, Options{HostsPerJurisdiction: 2})
	cl, clsL, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Create two instances so the logical table has content.
	obj1, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	obj2, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	if res, err := user.Call(obj1, "Inc"); err != nil || res.Code != wire.OK {
		t.Fatal(err)
	}

	// Deactivate the CLASS OBJECT itself. Its state (meta + Fig 16
	// table) becomes an OPR on jurisdiction storage.
	mag := magistrate.NewClient(sys.BootClient(), sys.Jurisdictions[0].Magistrate)
	if err := mag.Deactivate(clsL); err != nil {
		t.Fatal(err)
	}
	if sys.Jurisdictions[0].StoredOPRs() == 0 {
		t.Fatal("class OPR not stored")
	}

	// The boot client's next call to the class hits a stale binding,
	// heals through the agent, and the magistrate reactivates the class
	// — possibly on a different host.
	obj3, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatalf("Create after class deactivation: %v", err)
	}
	// Sequence numbers continued: no LOID reuse.
	if obj3.SameObject(obj1) || obj3.SameObject(obj2) {
		t.Fatalf("reactivated class reissued a LOID: %v", obj3)
	}
	if obj3.ClassSpecific <= obj2.ClassSpecific {
		t.Errorf("sequence went backwards: %v after %v", obj3, obj2)
	}
	// The logical table survived: the class still binds its old
	// instances.
	b, err := cl.GetBinding(obj1)
	if err != nil || b.Address.IsZero() {
		t.Fatalf("GetBinding(obj1) after class migration: %v %v", b, err)
	}
	// A *cold* client resolves instances of the migrated class through
	// the full §4.1 path (agent must refresh the class binding too).
	cold, _ := sys.NewClient(loid.NewNoKey(300, 2))
	res, err := cold.Call(obj1, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("cold resolve after class migration: %v %v", res, err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 2 {
		t.Errorf("obj1 counter = %d, want 2", v)
	}
	// Class metadata survived too.
	info, err := class.Info.Call(context.Background(), cl.Ref)
	if err != nil || info.Name != "Counter" || info.Instances != 3 {
		t.Errorf("Info after migration = %+v, %v", info, err)
	}
}

// TestAgentHealsStaleClassBinding: an agent that cached a class
// object's binding must recover when the class object moves — the
// resolveViaClass retry path.
func TestAgentHealsStaleClassBinding(t *testing.T) {
	sys := bootSys(t, Options{HostsPerJurisdiction: 2})
	cl, clsL, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the agent: a client resolves the instance, which caches the
	// class binding inside the agent.
	warm, _ := sys.NewClient(loid.NewNoKey(300, 1))
	if res, err := warm.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
		t.Fatal(err)
	}
	// Move the class object: deactivate, then reactivate (round-robin
	// puts it on the other host, changing its address).
	mag := magistrate.NewClient(sys.BootClient(), sys.Jurisdictions[0].Magistrate)
	if err := mag.Deactivate(clsL); err != nil {
		t.Fatal(err)
	}
	if _, err := mag.Activate(clsL, sys.Jurisdictions[0].Hosts[1]); err != nil {
		t.Fatal(err)
	}
	// Also deactivate the instance, forcing the next resolution to go
	// through the (stale) class binding in the agent.
	if err := mag.Deactivate(obj); err != nil {
		t.Fatal(err)
	}
	// A fresh client must still reach the instance: the agent detects
	// the stale class binding, re-resolves the class via LegionClass
	// responsibility pairs, and the class reactivates the instance.
	cold, _ := sys.NewClient(loid.NewNoKey(300, 2))
	res, err := cold.Call(obj, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("resolve through moved class: %v %v", res, err)
	}
	_ = class.ImplName
}
