// Package implreg is the implementation registry: the mapping from
// implementation names to object behaviours. An implementation name is
// this system's analogue of the paper's executable file — the portable
// part of an Object Persistent Representation that, together with saved
// state, lets any Host Object in any Jurisdiction activate an object
// (§3.1.1, §4.2: creation information "may take the form of an
// executable program, the name of an executable...").
package implreg

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/rt"
)

// Factory builds a fresh, empty instance of an implementation; state
// is installed afterwards via RestoreState.
type Factory func() rt.Impl

// Registry maps implementation names to factories. It is safe for
// concurrent use. In a multi-process deployment every process registers
// the same implementations, just as every host in a jurisdiction can
// read the same executables.
type Registry struct {
	mu sync.RWMutex
	m  map[string]entry
}

type entry struct {
	f          Factory
	concurrent bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]entry)}
}

// Register installs a factory under name. Re-registering a name is an
// error: implementation names are system-wide contracts.
func (r *Registry) Register(name string, f Factory) error {
	return r.register(name, f, false)
}

// RegisterConcurrent installs a factory whose instances are safe for
// concurrent method dispatch (internally synchronized). Hosts start
// such objects with multiple dispatch workers, which keeps service
// objects (e.g. class objects) from stalling their mailbox on nested
// invocations.
func (r *Registry) RegisterConcurrent(name string, f Factory) error {
	return r.register(name, f, true)
}

func (r *Registry) register(name string, f Factory, concurrent bool) error {
	if name == "" {
		return fmt.Errorf("implreg: empty implementation name")
	}
	if f == nil {
		return fmt.Errorf("implreg: nil factory for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("implreg: implementation %q already registered", name)
	}
	r.m[name] = entry{f: f, concurrent: concurrent}
	return nil
}

// MustRegister is Register that panics on error, for init-time wiring.
func (r *Registry) MustRegister(name string, f Factory) {
	if err := r.Register(name, f); err != nil {
		panic(err)
	}
}

// MustRegisterConcurrent is RegisterConcurrent that panics on error.
func (r *Registry) MustRegisterConcurrent(name string, f Factory) {
	if err := r.RegisterConcurrent(name, f); err != nil {
		panic(err)
	}
}

// IsConcurrent reports whether every part of spec was registered as
// concurrency-safe.
func (r *Registry) IsConcurrent(spec string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range SpecParts(spec) {
		e, ok := r.m[name]
		if !ok || !e.concurrent {
			return false
		}
	}
	return true
}

// New instantiates the implementation named by spec. A spec is either
// a registered name, or a composite of the form
// "composite(a,b,c)" — the runtime multiple-inheritance form produced
// by classes whose definition includes InheritFrom calls (§2.1): the
// instance is an rt.Composite over the named parts, first part
// winning method conflicts.
func (r *Registry) New(spec string) (rt.Impl, error) {
	if inner, ok := compositeParts(spec); ok {
		parts := make([]rt.Impl, 0, len(inner))
		for _, name := range inner {
			p, err := r.newSimple(name)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		}
		return rt.NewComposite(spec, parts...)
	}
	return r.newSimple(spec)
}

func (r *Registry) newSimple(name string) (rt.Impl, error) {
	r.mu.RLock()
	e, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("implreg: unknown implementation %q", name)
	}
	return e.f(), nil
}

// CompositeSpec builds the spec string for a composite of parts.
// A single part degrades to the plain name.
func CompositeSpec(parts []string) string {
	if len(parts) == 1 {
		return parts[0]
	}
	return "composite(" + strings.Join(parts, ",") + ")"
}

// compositeParts parses "composite(a,b,c)".
func compositeParts(spec string) ([]string, bool) {
	if !strings.HasPrefix(spec, "composite(") || !strings.HasSuffix(spec, ")") {
		return nil, false
	}
	inner := spec[len("composite(") : len(spec)-1]
	if inner == "" {
		return nil, true
	}
	return strings.Split(inner, ","), true
}

// SpecParts returns the part names of a spec: the composite's parts,
// or the spec itself for a simple name.
func SpecParts(spec string) []string {
	if inner, ok := compositeParts(spec); ok {
		return inner
	}
	return []string{spec}
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.m[name]
	return ok
}

// Names lists registered implementation names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
