// Package demo provides small, complete Legion object implementations
// used by the command-line tools and the examples: a counter, an echo
// service, and a persistent key-value store. They demonstrate the
// SaveState/RestoreState contract (their state survives deactivation
// and migration) and give the IDL, runtime, and lifecycle machinery
// realistic application payloads.
package demo

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Implementation names, as registered by RegisterAll.
const (
	CounterImpl = "demo.counter"
	EchoImpl    = "demo.echo"
	KVImpl      = "demo.kv"
)

// RegisterAll installs every demo implementation into reg.
func RegisterAll(reg *implreg.Registry) {
	reg.MustRegister(CounterImpl, NewCounter)
	reg.MustRegister(EchoImpl, NewEcho)
	reg.MustRegister(KVImpl, NewKV)
}

// CounterIDL is the counter's interface in IDL source form, as a
// Legion-aware compiler would emit it (§4.1).
const CounterIDL = `
interface Counter {
	Add(delta int64) returns (value int64);
	Get() returns (value int64);
}
`

// CounterInterface is provided by counter_gen.go, generated with
// `legion-idl gen` from CounterIDL — see TestGeneratedMatchesIDL for
// the equivalence check.

// counter serves Counter through the generated binding.
type counter struct {
	mu sync.Mutex
	v  int64
}

func (c *counter) Add(_ context.Context, d int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.v += d
	return c.v, nil
}

func (c *counter) Get(context.Context) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v, nil
}

// NewCounter builds a counter instance.
func NewCounter() rt.Impl {
	c := &counter{}
	return NewCounterImpl(c,
		func() ([]byte, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			return wire.Int64(c.v), nil
		},
		func(s []byte) error {
			if len(s) == 0 {
				return nil
			}
			v, err := wire.AsInt64(s)
			if err != nil {
				return err
			}
			c.mu.Lock()
			c.v = v
			c.mu.Unlock()
			return nil
		})
}

// EchoIDL is the echo service's interface.
const EchoIDL = `
interface Echo {
	Echo(message string) returns (message string);
	Reverse(message string) returns (message string);
}
`

// EchoInterface parses EchoIDL.
func EchoInterface() *idl.Interface {
	in, err := idl.ParseOne(EchoIDL)
	if err != nil {
		panic(err)
	}
	return in
}

// NewEcho builds an echo instance (stateless).
func NewEcho() rt.Impl {
	return &rt.Behavior{
		Iface: EchoInterface(),
		Handlers: map[string]rt.Handler{
			"Echo": func(inv *rt.Invocation) ([][]byte, error) {
				raw, err := inv.Arg(0)
				return [][]byte{raw}, err
			},
			"Reverse": func(inv *rt.Invocation) ([][]byte, error) {
				raw, err := inv.Arg(0)
				if err != nil {
					return nil, err
				}
				runes := []rune(wire.AsString(raw))
				for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
					runes[i], runes[j] = runes[j], runes[i]
				}
				return [][]byte{wire.String(string(runes))}, nil
			},
		},
	}
}

// KVIDL is the key-value store's interface.
const KVIDL = `
interface KV {
	Put(key string, value bytes);
	Get(key string) returns (value bytes, found bool);
	Delete(key string) returns (found bool);
	Keys() returns (keys bytes);
	Len() returns (n uint64);
}
`

// KVInterface parses KVIDL.
func KVInterface() *idl.Interface {
	in, err := idl.ParseOne(KVIDL)
	if err != nil {
		panic(err)
	}
	return in
}

// NewKV builds a key-value store instance whose contents persist
// through SaveState/RestoreState — the "remote files and data" the
// paper's single name space is meant to make accessible (§1).
func NewKV() rt.Impl {
	var (
		mu sync.Mutex
		m  = make(map[string][]byte)
	)
	return &rt.Behavior{
		Iface: KVInterface(),
		Handlers: map[string]rt.Handler{
			"Put": func(inv *rt.Invocation) ([][]byte, error) {
				k, err := inv.Arg(0)
				if err != nil {
					return nil, err
				}
				v, err := inv.Arg(1)
				if err != nil {
					return nil, err
				}
				mu.Lock()
				m[wire.AsString(k)] = append([]byte(nil), v...)
				mu.Unlock()
				return nil, nil
			},
			"Get": func(inv *rt.Invocation) ([][]byte, error) {
				k, err := inv.Arg(0)
				if err != nil {
					return nil, err
				}
				mu.Lock()
				v, ok := m[wire.AsString(k)]
				mu.Unlock()
				return [][]byte{v, wire.Bool(ok)}, nil
			},
			"Delete": func(inv *rt.Invocation) ([][]byte, error) {
				k, err := inv.Arg(0)
				if err != nil {
					return nil, err
				}
				key := wire.AsString(k)
				mu.Lock()
				_, ok := m[key]
				delete(m, key)
				mu.Unlock()
				return [][]byte{wire.Bool(ok)}, nil
			},
			"Keys": func(inv *rt.Invocation) ([][]byte, error) {
				mu.Lock()
				keys := make([]string, 0, len(m))
				for k := range m {
					keys = append(keys, k)
				}
				mu.Unlock()
				sort.Strings(keys)
				return [][]byte{wire.StringList(keys)}, nil
			},
			"Len": func(inv *rt.Invocation) ([][]byte, error) {
				mu.Lock()
				n := uint64(len(m))
				mu.Unlock()
				return [][]byte{wire.Uint64(n)}, nil
			},
		},
		Save: func() ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var w wire.Writer
			w.Count32(len(keys))
			for _, k := range keys {
				w.Str32(k)
				w.Bytes32(m[k])
			}
			return w.Bytes(), nil
		},
		Restore: func(s []byte) error {
			if len(s) == 0 {
				return nil
			}
			r := wire.NewReader(s)
			// An entry is at least its two 4-byte lengths.
			n := r.Count32(8)
			next := make(map[string][]byte, n)
			for i := 0; i < n; i++ {
				k := r.Str32(wire.NoCap)
				next[k] = append([]byte(nil), r.Bytes32(wire.NoCap)...)
			}
			if err := r.Done(); err != nil {
				return fmt.Errorf("demo.kv: state: %w", err)
			}
			mu.Lock()
			m = next
			mu.Unlock()
			return nil
		},
	}
}
