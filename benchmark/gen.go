package main

import (
	"encoding/binary"
	"hash/fnv"
)

// The load generator's op streams. Every workload's calls are a pure
// function of (-seed, caller id): the program under test sees only the
// generated calls, never the seed, and two runs with one seed issue the
// same ops in the same per-caller order.

// splitmix64 is the stream generator (Steele et al.); the same mixer
// rt.Caller uses for its jitter stream.
type splitmix64 struct{ s uint64 }

// Streams apart from every caller's: callers are numbered from 0.
const (
	payloadStream = -1 // procs_tcp's Echo payload filler
	probeStream   = -2 // the persist rig's Get order
)

func newStream(seed uint64, caller int) *splitmix64 {
	// One mixing round over (seed, caller) so adjacent seeds or caller
	// ids do not yield overlapping streams.
	g := splitmix64{s: seed*0x9E3779B97F4A7C15 + uint64(caller+1)*0xBF58476D1CE4E5B9}
	g.next()
	return &g
}

func (g *splitmix64) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (g *splitmix64) intn(n int) int { return int(g.next() % uint64(n)) }

// op is one generated call: which of the caller's objects it targets
// and, per workload, a variant (bulk Echo, deactivate-first).
type op struct {
	obj     int  // index into the caller's own partition
	variant bool // procs_tcp: 16 KiB Echo; cold_bind: Deactivate first
}

// opMix is what distinguishes the workloads' streams.
type opMix struct {
	// sequential walks the partition round-robin (every object touched
	// equally); otherwise the pick is uniform.
	sequential bool
	// variantPermille is the share of ops with variant set.
	variantPermille int
}

// opStream yields one caller's ops over a partition of nObjs objects.
type opStream struct {
	g     *splitmix64
	mix   opMix
	nObjs int
	i     int
}

func newOpStream(seed uint64, caller int, mix opMix, nObjs int) *opStream {
	return &opStream{g: newStream(seed, caller), mix: mix, nObjs: nObjs}
}

func (s *opStream) next() op {
	var o op
	if s.mix.sequential {
		o.obj = s.i % s.nObjs
		s.i++
	} else {
		o.obj = s.g.intn(s.nObjs)
	}
	if s.mix.variantPermille > 0 {
		o.variant = s.g.intn(1000) < s.mix.variantPermille
	}
	return o
}

// streamDigest is the FNV-1a digest of the first n ops of every
// caller's stream: the reproducibility fingerprint recorded in the
// results header.
func streamDigest(seed uint64, callers int, mix opMix, nObjs, n int) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for c := 0; c < callers; c++ {
		s := newOpStream(seed, c, mix, nObjs)
		for i := 0; i < n; i++ {
			o := s.next()
			binary.LittleEndian.PutUint64(b[:8], uint64(o.obj))
			b[8] = 0
			if o.variant {
				b[8] = 1
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
