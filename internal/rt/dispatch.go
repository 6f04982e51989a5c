package rt

import (
	"sync"
	"sync/atomic"
)

// Dispatch goroutines follow the work, not the population. An active
// object owns a mailbox, not a goroutine: the delivery that finds no
// goroutine draining the object's mailbox (mailbox.put's putDrain)
// hands the object to an idle dispatch goroutine, or starts one when
// none is idle; a delivery on the goroutine of a sender waiting on the
// reply serves that request itself instead (Object.serveOne), and hands
// off only a backlog. A dispatch goroutine serves the mailbox until it
// is empty, then waits idle for the next object, holding no reference
// to the last. A method that blocks holds only its own goroutine.
//
// Idle goroutines wait in shards, and both the hand-off and the return
// to idle pick the shard of the Go scheduler processor (P) they run on,
// so a warm call touches no lock another P is using. Only a shard
// found empty sends the hand-off to look at the others. A reused
// goroutine keeps the stack an earlier call grew; a fresh one per
// burst would regrow it every time.

const (
	// dispatchShards is how many shards idle goroutines wait in; the
	// processors of a larger machine share them.
	dispatchShards = 8
	// idlePerShard caps the idle goroutines a shard keeps; one returning
	// to a full shard exits.
	idlePerShard = 8
)

// dispatchShard is one shard's idle dispatch goroutines, each waiting
// on its own hand-off channel. The padding, one cache line, keeps
// neighbouring shards off each other's lines.
type dispatchShard struct {
	mu   sync.Mutex
	n    int
	idle [idlePerShard]chan *Object
	_    [64]byte
}

var dispatchPool [dispatchShards]dispatchShard

// shardHints holds shard indices. sync.Pool keeps one item per P
// before anything is shared, so Get returns the running P's own index
// almost always; a goroutine moved to another P between Get and Put
// only moves a hint.
var (
	shardHints = sync.Pool{New: func() any {
		i := nextShardHint.Add(1) % dispatchShards
		return &i
	}}
	nextShardHint atomic.Uint32
)

// localShard returns the shard of the running P.
func localShard() *dispatchShard {
	h := shardHints.Get().(*uint32)
	s := &dispatchPool[*h]
	shardHints.Put(h)
	return s
}

// takeIdle pops an idle dispatch goroutine's channel: from the local
// shard, else from the first other shard that has one. nil means none
// is idle.
func takeIdle() chan *Object {
	local := localShard()
	if work := local.pop(); work != nil {
		return work
	}
	for i := range dispatchPool {
		if s := &dispatchPool[i]; s != local {
			if work := s.pop(); work != nil {
				return work
			}
		}
	}
	return nil
}

func (s *dispatchShard) pop() chan *Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	s.n--
	work := s.idle[s.n]
	s.idle[s.n] = nil
	return work
}

// putIdle returns a drained goroutine's channel to the local shard. It
// reports false when the shard is full: the goroutine should exit.
func putIdle(work chan *Object) bool {
	s := localShard()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == idlePerShard {
		return false
	}
	s.idle[s.n] = work
	s.n++
	return true
}

// startDrain gives o, whose mailbox put just answered putDrain, a
// dispatch goroutine. It never blocks: the caller may be a sender's
// goroutine or a transport read loop.
func startDrain(o *Object) {
	if work := takeIdle(); work != nil {
		work <- o // buffered, and only its taker sends: never blocks
		return
	}
	o.node.cSpawns.Inc()
	go dispatchLoop(o)
}

// dispatchLoop is one dispatch goroutine: it drains o, then waits idle
// for the next object until its shard has no room for it.
func dispatchLoop(o *Object) {
	work := make(chan *Object, 1)
	for {
		o.drain()
		o = nil // an idle goroutine must not keep a killed object alive
		if !putIdle(work) {
			return
		}
		o = <-work
	}
}
