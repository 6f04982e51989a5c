package naming

import (
	"context"
	"fmt"

	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/rt"
	"repro/internal/wire"
)

// ImplName registers the context-object implementation: a naming
// context as a full Legion object. This realizes the paper's "single
// persistent name space [that] unites the objects in the Legion
// system" (§1): contexts are shared, persistent, migratable objects
// like everything else, and the string-name → LOID mappings compilers
// use (§4.1) live in them.
const ImplName = "legion.context"

// The context object's remote methods.
var (
	BindName   = rt.M3("BindName", rt.StringParam("path"), rt.LOIDParam("target"), rt.BoolParam("replace"), rt.None)
	LookupName = rt.M1("LookupName", rt.StringParam("path"), rt.LOIDParam("target"))
	UnbindName = rt.M1("UnbindName", rt.StringParam("path"), rt.None)
	ListNames  = rt.M1("ListNames", rt.StringParam("path"), rt.Struct(
		rt.Field(rt.StringListParam("names"), func(l *Listing) *[]string { return &l.Names }),
		rt.Field(rt.StringListParam("dirs"), func(l *Listing) *[]string { return &l.Dirs }),
		rt.Field(rt.Param("targets", idl.TBytes, marshalTargets, unmarshalTargets),
			func(l *Listing) *[]loid.LOID { return &l.Targets })).Checked(func(l Listing) error {
		if len(l.Targets) != len(l.Names) {
			return fmt.Errorf("naming: %d names but %d targets", len(l.Names), len(l.Targets))
		}
		return nil
	}))
	CountNames = rt.M0("CountNames", rt.Uint64Param("n"))
)

// Listing is one directory of a remote context (ListNames): its leaves
// with their targets, in step, and its subdirectories.
type Listing struct {
	Names   []string
	Dirs    []string
	Targets []loid.LOID
}

// marshalTargets concatenates LOIDs, with no count: a Listing's names
// carry it.
func marshalTargets(ls []loid.LOID) []byte {
	var w wire.Writer
	for _, l := range ls {
		w.LOID(l)
	}
	return w.Bytes()
}

func unmarshalTargets(b []byte) ([]loid.LOID, error) {
	r := wire.NewReader(b)
	var ls []loid.LOID
	for r.Len() > 0 && r.Err() == nil {
		ls = append(ls, r.LOID())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return ls, nil
}

var server = rt.NewServer("LegionContext",
	rt.Serve3(BindName, func(c *Context, _ context.Context, path string, target loid.LOID, replace bool) (rt.Void, error) {
		return rt.Void{}, c.Bind(path, target, replace)
	}),
	rt.Serve1(LookupName, func(c *Context, _ context.Context, path string) (loid.LOID, error) { return c.Lookup(path) }),
	rt.Serve1(UnbindName, func(c *Context, _ context.Context, path string) (rt.Void, error) {
		return rt.Void{}, c.Unbind(path)
	}),
	rt.Serve1(ListNames, func(c *Context, _ context.Context, path string) (Listing, error) {
		entries, err := c.List(path)
		var l Listing
		for _, e := range entries {
			if e.IsDir {
				l.Dirs = append(l.Dirs, e.Name)
			} else {
				l.Names, l.Targets = append(l.Names, e.Name), append(l.Targets, e.LOID)
			}
		}
		return l, err
	}),
	rt.Serve0(CountNames, func(c *Context, _ context.Context) (uint64, error) { return uint64(c.Len()), nil }),
)

// Interface is the context object's member-function set.
var Interface = server.Interface()

// NewContextImpl is the implreg factory for ImplName.
func NewContextImpl() rt.Impl {
	c := NewContext()
	return server.Impl(c, func() ([]byte, error) { return c.Marshal(nil), nil }, func(state []byte) error {
		if len(state) == 0 {
			return nil
		}
		restored, err := UnmarshalContext(state)
		if err != nil {
			return err
		}
		c.Replace(restored)
		return nil
	})
}
