// Intra-step sharding: the contention-mode step partitioned across worker
// goroutines WITHIN one scenario, complementing internal/par's across-
// scenario fan-out. The mesh's nodes are split into contiguous ID ranges
// (shards); each step's routing phase runs in two phases:
//
//  1. Propose (parallel): every shard walks the flight list, picks the
//     flights resident in its node range, and decides them through
//     route.DecideMemo against the frozen step-start state — the mesh, the
//     record store and the previous step's LinkPending view do not change
//     during the routing phase, so for a route.StepStable router the
//     decision memoized on the message is exactly what a serial Decide at
//     commit time would return.
//  2. Commit (serial, flight-age order): the same FIFO loop the serial
//     gate implements — link-service budgets, node-capacity checks and
//     residency updates are applied in injection order. Its DecideMemo
//     call finds the proposal in the memo (nothing it is keyed on changed
//     since the propose phase). Flights whose router is not step-stable
//     (Congested reads mid-step residency, Oracle caches internal state)
//     skip the propose phase and are decided here serially.
//
// Because proposals are memoized serial decisions and the commit is the
// serial loop verbatim, the sharded step is byte-identical to the serial
// engine at every shard count — the internal/par determinism contract
// extended inside a step (pinned by TestShardedStepMatchesSerial and the
// E19/E20 shard matrices). The barrier between the phases is the only
// synchronization; a steady-state step performs no allocation (persistent
// workers, pre-sized channels — TestShardedStepAllocFree).

package engine

import (
	"ndmesh/internal/grid"
	"ndmesh/internal/route"
)

// shardSet is the engine's intra-step sharding state: the node ranges and
// the persistent worker goroutines that propose for shards 1..n-1 (shard 0
// is proposed on the stepping goroutine between kick-off and the barrier).
type shardSet struct {
	n      int
	lo, hi []grid.NodeID   // shard i owns nodes [lo[i], hi[i])
	start  []chan struct{} // one kick channel per worker (shard i+1)
	done   chan struct{}   // shared completion channel, capacity n-1
}

// SetShards configures intra-step sharding for the contention-mode step:
// n > 1 partitions the mesh's nodes into n contiguous shards and spawns
// n-1 persistent worker goroutines; n <= 1 restores the serial step and
// stops the workers. The step result is byte-identical at every shard
// count — sharding changes wall-clock, never output. Values above the node
// count are clamped. Callers that enable sharding own the teardown: call
// SetShards(1) before abandoning the engine, or the workers leak.
func (e *Engine) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	if nodes := e.Model.M.NumNodes(); n > nodes {
		n = nodes
	}
	s := &e.shards
	if n == s.n || (n == 1 && s.n == 0) {
		return
	}
	e.stopShardWorkers()
	s.n = n
	if n == 1 {
		return
	}
	nodes := e.Model.M.NumNodes()
	s.lo, s.hi = s.lo[:0], s.hi[:0]
	for i := 0; i < n; i++ {
		s.lo = append(s.lo, grid.NodeID(i*nodes/n))
		s.hi = append(s.hi, grid.NodeID((i+1)*nodes/n))
	}
	s.done = make(chan struct{}, n-1)
	s.start = make([]chan struct{}, n-1)
	for i := range s.start {
		ch := make(chan struct{}, 1)
		s.start[i] = ch
		shard := i + 1
		go func() {
			for range ch {
				e.proposeShard(shard)
				s.done <- struct{}{}
			}
		}()
	}
}

// Shards returns the configured shard count (1 = serial stepping).
func (e *Engine) Shards() int {
	if e.shards.n < 1 {
		return 1
	}
	return e.shards.n
}

// stopShardWorkers terminates the propose workers. Safe only between
// steps, when every worker is parked on its kick channel (SetShards and
// the step loop run on the same goroutine, so this always holds).
func (e *Engine) stopShardWorkers() {
	s := &e.shards
	for _, ch := range s.start {
		close(ch)
	}
	s.start, s.done = nil, nil
	s.n = 1
}

// propose runs the parallel phase of a sharded step: workers propose for
// shards 1..n-1 while the caller proposes shard 0, then the barrier —
// after which every active step-stable flight carries its decision in its
// message's memo and the serial commit may consume them. The channel
// handshakes establish the happens-before edges that make the flight list
// and the memo fields race-free.
//
//meshvet:noalloc
func (e *Engine) propose() {
	s := &e.shards
	for _, ch := range s.start {
		ch <- struct{}{}
	}
	e.proposeShard(0)
	for range s.start {
		<-s.done
	}
}

// proposeShard precomputes decisions for the active step-stable flights
// resident in shard i's node range. Flights of non-step-stable routers
// (and the already-at-destination case, which the serial loop terminates
// before deciding) are left without a proposal, so the commit decides them
// serially — identical either way.
//
//meshvet:noalloc
func (e *Engine) proposeShard(i int) {
	lo, hi := e.shards.lo[i], e.shards.hi[i]
	for _, f := range e.flights {
		msg := f.Msg
		if msg.Cur < lo || msg.Cur >= hi || msg.Done() {
			continue
		}
		if !f.stepStable || msg.Cur == msg.Dst {
			continue
		}
		route.DecideMemo(&f.Ctx, f.Router, msg)
	}
}

// ResidencyCensus returns a copy of the per-node residency counters,
// regardless of whether contention is currently enabled — a testing and
// debugging aid for asserting that a finished load run released every
// counter (Resident reads zero once contention is disabled, which would
// mask stale state).
func (e *Engine) ResidencyCensus() []int {
	out := make([]int, len(e.ctn.resident))
	for i, r := range e.ctn.resident {
		out[i] = int(r)
	}
	return out
}
