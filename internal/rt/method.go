package rt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/wire"
)

// Remote methods are declared once (§4.1: the Legion-aware compiler
// turns a method call into an invocation). A descriptor — Method0 to
// Method3, by argument count — carries the method's wire name, a codec
// per argument and one for its result, and so its idl signature. The
// same value issues a call (Call, Send), serves one (Serve0..Serve3
// into a Server table) and describes one (Server.Interface). A call
// takes a context by construction, so a nested call cannot drop its
// caller's deadline or trace without saying so.

// Void is the result of a method that returns nothing.
type Void struct{}

// Codec carries one Go value over one or more argument (or result)
// slots of a remote method: the per-type wire encodings of package wire
// joined to their idl types.
type Codec[T any] struct {
	params []idl.Param
	put    func(dst [][]byte, v T) [][]byte
	take   func(src [][]byte) (T, error)
	// opt marks a trailing slot the wire may omit: a missing one
	// decodes as the zero value, and an empty encoding is not sent.
	opt bool
	// oneway marks the result of a method invoked without a reply.
	oneway bool
}

// Param is the one-slot codec of name, of idl type t, encoded by enc
// and decoded by dec.
func Param[T any](name string, t idl.Type, enc func(T) []byte, dec func([]byte) (T, error)) Codec[T] {
	return Codec[T]{
		params: []idl.Param{{Name: name, Type: t}},
		put:    func(dst [][]byte, v T) [][]byte { return append(dst, enc(v)) },
		take:   func(src [][]byte) (T, error) { return dec(src[0]) },
	}
}

// Optional marks c as a trailing argument older senders may omit.
func (c Codec[T]) Optional() Codec[T] {
	c.opt = true
	return c
}

// Checked makes c refuse a decoded value that check rejects.
func (c Codec[T]) Checked(check func(T) error) Codec[T] {
	take := c.take
	c.take = func(src [][]byte) (T, error) {
		v, err := take(src)
		if err == nil {
			err = check(v)
		}
		return v, err
	}
	return c
}

// append encodes v after dst.
func (c Codec[T]) append(dst [][]byte, v T) [][]byte {
	n := len(dst)
	dst = c.put(dst, v)
	if c.opt && len(dst) == n+1 && len(dst[n]) == 0 {
		dst = dst[:n]
	}
	return dst
}

// arg decodes c's slots of inv from argument i on, returning the index
// past them. The values borrow inv.Args like the Invocation does.
func (c Codec[T]) arg(inv *Invocation, i int) (T, int, error) {
	var v T
	n := len(c.params)
	if i+n > len(inv.Args) {
		if c.opt {
			return v, i + n, nil
		}
		_, err := inv.Arg(i + n - 1)
		return v, i + n, err
	}
	v, err := c.take(inv.Args[i : i+n])
	return v, i + n, err
}

func asString(b []byte) (string, error) { return string(b), nil }
func asBytes(b []byte) ([]byte, error)  { return b, nil }

// The codecs of the idl types.

func LOIDParam(name string) Codec[loid.LOID] { return Param(name, idl.TLOID, wire.LOID, wire.AsLOID) }
func StringParam(name string) Codec[string]  { return Param(name, idl.TString, wire.String, asString) }
func BytesParam(name string) Codec[[]byte]   { return Param(name, idl.TBytes, wire.Bytes, asBytes) }
func Uint64Param(name string) Codec[uint64] {
	return Param(name, idl.TUint64, wire.Uint64, wire.AsUint64)
}
func Int64Param(name string) Codec[int64]    { return Param(name, idl.TInt64, wire.Int64, wire.AsInt64) }
func BoolParam(name string) Codec[bool]      { return Param(name, idl.TBool, wire.Bool, wire.AsBool) }
func TimeParam(name string) Codec[time.Time] { return Param(name, idl.TTime, wire.Time, wire.AsTime) }
func AddressParam(name string) Codec[oa.Address] {
	return Param(name, idl.TAddress, wire.Address, wire.AsAddress)
}
func BindingParam(name string) Codec[binding.Binding] {
	return Param(name, idl.TBinding, wire.Binding, wire.AsBinding)
}

// LOIDListParam carries a LOID list in a bytes slot.
func LOIDListParam(name string) Codec[[]loid.LOID] {
	return Param(name, idl.TBytes, wire.LOIDList, wire.AsLOIDList)
}

// BindingListParam carries a binding list in a bytes slot.
func BindingListParam(name string) Codec[[]binding.Binding] {
	return Param(name, idl.TBytes, wire.BindingList, wire.AsBindingList)
}

// StringListParam carries a string list in a bytes slot.
func StringListParam(name string) Codec[[]string] {
	return Param(name, idl.TBytes, wire.StringList, wire.AsStringList)
}

// None is the result of a method that returns nothing; NoReply is that
// of a method declared oneway.
var (
	None = Codec[Void]{
		put:  func(dst [][]byte, _ Void) [][]byte { return dst },
		take: func([][]byte) (Void, error) { return Void{}, nil },
	}
	NoReply = func() Codec[Void] { c := None; c.oneway = true; return c }()
)

// Member is one field of a Struct codec: its codec and where it lives
// in S.
type Member[S any] struct {
	params []idl.Param
	put    func(dst [][]byte, s *S) [][]byte
	take   func(src [][]byte, s *S) error
}

// Field makes the member of S that at points to, carried by c.
func Field[S, T any](c Codec[T], at func(*S) *T) Member[S] {
	return Member[S]{
		params: c.params,
		put:    func(dst [][]byte, s *S) [][]byte { return c.put(dst, *at(s)) },
		take: func(src [][]byte, s *S) (err error) {
			*at(s), err = c.take(src)
			return err
		},
	}
}

// Struct carries a struct over its members' slots, in order: the form
// of a method with several results, or more than three arguments. The
// members reach the value through a pooled pointer: the address of a
// local handed to them would move every value to the heap, and a
// Create would pay four allocations more than its hand-written codec.
func Struct[S any](ms ...Member[S]) Codec[S] {
	pool := sync.Pool{New: func() any { return new(S) }}
	c := Codec[S]{
		put: func(dst [][]byte, v S) [][]byte {
			p := pool.Get().(*S)
			*p = v
			for _, m := range ms {
				dst = m.put(dst, p)
			}
			*p = *new(S)
			pool.Put(p)
			return dst
		},
		take: func(src [][]byte) (v S, err error) {
			p := pool.Get().(*S)
			for _, m := range ms {
				if err = m.take(src[:len(m.params)], p); err != nil {
					break
				}
				src = src[len(m.params):]
			}
			v, *p = *p, *new(S)
			pool.Put(p)
			return v, err
		},
	}
	for _, m := range ms {
		c.params = append(c.params, m.params...)
	}
	return c
}

// Ref names the object a typed call goes to and the Caller it goes
// through. A non-zero Addr sends the call to that Object Address,
// bypassing binding resolution (§3.6: a Binding Agent is reached this
// way).
type Ref struct {
	C      *Caller
	Target loid.LOID
	Addr   oa.Address
}

// To refers to target through c, bound as c binds it.
func (c *Caller) To(target loid.LOID) Ref { return Ref{C: c, Target: target} }

// At refers to target at the explicit Object Address addr, through c.
func (c *Caller) At(addr oa.Address, target loid.LOID) Ref {
	return Ref{C: c, Target: target, Addr: addr}
}

// method is what every descriptor has: its signature and result codec.
type method[R any] struct {
	sig idl.MethodSig
	res Codec[R]
}

func newMethod[R any](name string, res Codec[R]) method[R] {
	return method[R]{sig: idl.MethodSig{Name: name, OneWay: res.oneway, Returns: res.params}, res: res}
}

// declare completes and checks the signature once the argument slots
// are known.
func (m *method[R]) declare(params ...[]idl.Param) {
	for _, p := range params {
		m.sig.Params = append(m.sig.Params, p...)
	}
	if err := m.sig.Validate(); err != nil {
		panic(err)
	}
}

func (m *method[R]) slots() [][]byte { return make([][]byte, 0, len(m.sig.Params)) }

// call invokes the method at to and decodes its result.
func (m *method[R]) call(ctx context.Context, to Ref, args [][]byte) (R, error) {
	var r R
	var res *Result
	var err error
	if to.Addr.IsZero() {
		res, err = to.C.CallCtx(ctx, to.Target, m.sig.Name, args...)
	} else {
		res, err = to.C.CallAddrCtx(ctx, to.Addr, to.Target, m.sig.Name, args...)
	}
	if err != nil {
		return r, err
	}
	if err := res.Err(); err != nil {
		return r, err
	}
	n := len(m.res.params)
	if len(res.Results) < n {
		return r, fmt.Errorf("rt: %s: %d results, want %d", m.sig.Name, len(res.Results), n)
	}
	return m.res.take(res.Results[:n])
}

// send invokes the method at to without awaiting a reply.
func (m *method[R]) send(to Ref, args [][]byte) error {
	if to.Addr.IsZero() {
		return to.C.OneWay(to.Target, m.sig.Name, args...)
	}
	return to.C.OneWayAddr(to.Addr, to.Target, m.sig.Name, args...)
}

// reply encodes a handler's result.
func (m *method[R]) reply(r R, err error) ([][]byte, error) {
	if err != nil || len(m.res.params) == 0 {
		return nil, err
	}
	return m.res.put(make([][]byte, 0, len(m.res.params)), r), nil
}

// Method0 is a remote method of no arguments.
type Method0[R any] struct{ method[R] }

// Method1 is a remote method of one argument.
type Method1[A, R any] struct {
	method[R]
	a Codec[A]
}

// Method2 is a remote method of two arguments.
type Method2[A, B, R any] struct {
	method[R]
	a Codec[A]
	b Codec[B]
}

// Method3 is a remote method of three arguments.
type Method3[A, B, C, R any] struct {
	method[R]
	a Codec[A]
	b Codec[B]
	c Codec[C]
}

// M0 declares a method of no arguments returning r.
func M0[R any](name string, r Codec[R]) *Method0[R] {
	m := &Method0[R]{newMethod(name, r)}
	m.declare()
	return m
}

// M1 declares a method of argument a returning r.
func M1[A, R any](name string, a Codec[A], r Codec[R]) *Method1[A, R] {
	m := &Method1[A, R]{newMethod(name, r), a}
	m.declare(a.params)
	return m
}

// M2 declares a method of arguments a, b returning r.
func M2[A, B, R any](name string, a Codec[A], b Codec[B], r Codec[R]) *Method2[A, B, R] {
	m := &Method2[A, B, R]{newMethod(name, r), a, b}
	m.declare(a.params, b.params)
	return m
}

// M3 declares a method of arguments a, b, c returning r.
func M3[A, B, C, R any](name string, a Codec[A], b Codec[B], c Codec[C], r Codec[R]) *Method3[A, B, C, R] {
	m := &Method3[A, B, C, R]{newMethod(name, r), a, b, c}
	m.declare(a.params, b.params, c.params)
	return m
}

// Call invokes the method at to and awaits its result.
func (m *Method0[R]) Call(ctx context.Context, to Ref) (R, error) { return m.call(ctx, to, nil) }

func (m *Method1[A, R]) args(a A) [][]byte { return m.a.append(m.slots(), a) }

// Call invokes the method at to and awaits its result.
func (m *Method1[A, R]) Call(ctx context.Context, to Ref, a A) (R, error) {
	return m.call(ctx, to, m.args(a))
}

// Send invokes the method at to with no reply expected.
func (m *Method1[A, R]) Send(to Ref, a A) error { return m.send(to, m.args(a)) }

// Call invokes the method at to and awaits its result.
func (m *Method2[A, B, R]) Call(ctx context.Context, to Ref, a A, b B) (R, error) {
	return m.call(ctx, to, m.b.append(m.a.append(m.slots(), a), b))
}

// Call invokes the method at to and awaits its result.
func (m *Method3[A, B, C, R]) Call(ctx context.Context, to Ref, a A, b B, c C) (R, error) {
	return m.call(ctx, to, m.c.append(m.b.append(m.a.append(m.slots(), a), b), c))
}

// Served is one entry of a Server: a signature and the handler that
// decodes an invocation for it.
type Served[S any] struct {
	sig idl.MethodSig
	h   func(S, *Invocation) ([][]byte, error)
}

// Serve0 serves m on an S with h.
func Serve0[S, R any](m *Method0[R], h func(S, context.Context) (R, error)) Served[S] {
	return Served[S]{m.sig, func(s S, inv *Invocation) ([][]byte, error) {
		return m.reply(h(s, inv.Ctx()))
	}}
}

// Serve1 serves m on an S with h.
func Serve1[S, A, R any](m *Method1[A, R], h func(S, context.Context, A) (R, error)) Served[S] {
	return Served[S]{m.sig, func(s S, inv *Invocation) ([][]byte, error) {
		a, _, err := m.a.arg(inv, 0)
		if err != nil {
			return nil, err
		}
		return m.reply(h(s, inv.Ctx(), a))
	}}
}

// Serve2 serves m on an S with h.
func Serve2[S, A, B, R any](m *Method2[A, B, R], h func(S, context.Context, A, B) (R, error)) Served[S] {
	return Served[S]{m.sig, func(s S, inv *Invocation) ([][]byte, error) {
		a, i, err := m.a.arg(inv, 0)
		if err != nil {
			return nil, err
		}
		b, _, err := m.b.arg(inv, i)
		if err != nil {
			return nil, err
		}
		return m.reply(h(s, inv.Ctx(), a, b))
	}}
}

// Serve3 serves m on an S with h.
func Serve3[S, A, B, C, R any](m *Method3[A, B, C, R], h func(S, context.Context, A, B, C) (R, error)) Served[S] {
	return Served[S]{m.sig, func(s S, inv *Invocation) ([][]byte, error) {
		a, i, err := m.a.arg(inv, 0)
		if err != nil {
			return nil, err
		}
		b, i, err := m.b.arg(inv, i)
		if err != nil {
			return nil, err
		}
		c, _, err := m.c.arg(inv, i)
		if err != nil {
			return nil, err
		}
		return m.reply(h(s, inv.Ctx(), a, b, c))
	}}
}

// Server is the method table of an implementation type S: the
// interface its entries declare and the one lookup Dispatch makes.
type Server[S any] struct {
	iface    *idl.Interface
	handlers map[string]func(S, *Invocation) ([][]byte, error)
}

// NewServer builds the table of interface name from entries, in order.
func NewServer[S any](name string, entries ...Served[S]) *Server[S] {
	t := &Server[S]{iface: idl.NewInterface(name), handlers: make(map[string]func(S, *Invocation) ([][]byte, error), len(entries))}
	for _, e := range entries {
		if err := t.iface.Add(e.sig); err != nil {
			panic(err)
		}
		t.handlers[e.sig.Name] = e.h
	}
	return t
}

// Interface is the interface the table serves. It is shared: Clone it
// before changing it.
func (t *Server[S]) Interface() *idl.Interface { return t.iface }

// Dispatch runs inv's method on s.
func (t *Server[S]) Dispatch(s S, inv *Invocation) ([][]byte, error) {
	if h, ok := t.handlers[inv.Method]; ok {
		return h(s, inv)
	}
	return nil, &NoSuchMethodError{Method: inv.Method}
}

// Embed re-serves every method of base on an O that holds its B, the
// form of an implementation that extends another (LegionClass extends
// the class object).
func Embed[O, B any](base *Server[B], inner func(O) B) []Served[O] {
	out := make([]Served[O], 0, base.iface.Len())
	for _, sig := range base.iface.Methods() {
		h := base.handlers[sig.Name]
		out = append(out, Served[O]{sig, func(o O, inv *Invocation) ([][]byte, error) { return h(inner(o), inv) }})
	}
	return out
}

// Impl makes s, served by t, a Legion object; save and restore may be
// nil for a stateless object.
func (t *Server[S]) Impl(s S, save func() ([]byte, error), restore func([]byte) error) Impl {
	return &servedImpl[S]{t, s, Behavior{Iface: t.iface, Save: save, Restore: restore}}
}

// servedImpl is a Server's Impl: its table dispatches, and the embedded
// Behavior supplies the interface and the state hooks.
type servedImpl[S any] struct {
	t *Server[S]
	s S
	Behavior
}

func (x *servedImpl[S]) Dispatch(inv *Invocation) ([][]byte, error) { return x.t.Dispatch(x.s, inv) }
