package core

import (
	"context"
	"testing"

	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/naming"
)

// TestContextObjectLifecycle runs the shared name space as a Legion
// object: names bound by one client resolve for another, and the
// whole context survives deactivation (the paper's "single persistent
// name space", §1).
func TestContextObjectLifecycle(t *testing.T) {
	sys := bootSys(t, Options{})
	ctxClass, _, err := sys.DeriveClass("Context", naming.ImplName, naming.Interface, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctxObj, _, err := ctxClass.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}

	// Alice binds names; Bob resolves them.
	aliceC, _ := sys.NewClient(loid.New(300, 1, loid.DeriveKey("alice")))
	bobC, _ := sys.NewClient(loid.New(300, 2, loid.DeriveKey("bob")))
	alice := aliceC.To(ctxObj)
	bob := bobC.To(ctxObj)

	target := loid.NewNoKey(700, 1)
	if _, err := naming.BindName.Call(context.Background(), alice, "/home/alice/data", target, false); err != nil {
		t.Fatal(err)
	}
	if _, err := naming.BindName.Call(context.Background(), alice, "/home/alice/app", loid.NewNoKey(700, 2), false); err != nil {
		t.Fatal(err)
	}
	got, err := naming.LookupName.Call(context.Background(), bob, "/home/alice/data")
	if err != nil || got != target {
		t.Fatalf("bob's lookup: %v, %v", got, err)
	}
	list, err := naming.ListNames.Call(context.Background(), bob, "/home/alice")
	if err != nil {
		t.Fatal(err)
	}
	names, dirs, targets := list.Names, list.Dirs, list.Targets
	if len(names) != 2 || len(dirs) != 0 || len(targets) != 2 {
		t.Errorf("List = %v %v %v", names, dirs, targets)
	}
	if n, _ := naming.CountNames.Call(context.Background(), bob); n != 2 {
		t.Errorf("Len = %d", n)
	}

	// Duplicate bind errors surface across the wire.
	if _, err := naming.BindName.Call(context.Background(), alice, "/home/alice/data", target, false); err == nil {
		t.Error("duplicate bind accepted")
	}
	// Deactivate the context; the next lookup transparently
	// reactivates it with every binding intact.
	mag := magistrate.NewClient(sys.BootClient(), sys.Jurisdictions[0].Magistrate)
	if err := mag.Deactivate(ctxObj); err != nil {
		t.Fatal(err)
	}
	got, err = naming.LookupName.Call(context.Background(), bob, "/home/alice/data")
	if err != nil || got != target {
		t.Fatalf("lookup after deactivation: %v, %v", got, err)
	}
	// Unbind works and missing names error.
	if _, err := naming.UnbindName.Call(context.Background(), alice, "/home/alice/app"); err != nil {
		t.Fatal(err)
	}
	if _, err := naming.LookupName.Call(context.Background(), bob, "/home/alice/app"); err == nil {
		t.Error("unbound name still resolves")
	}
}
