// Package route implements the paper's fault-information-based PCS routing
// (Algorithm 3) and the three baselines it is evaluated against:
//
//   - Limited: Algorithm 3 — direction priority preferred, spare (along the
//     block), preferred-but-detour, incoming; per-node used-direction lists
//     carried in the header; backtracking at disabled nodes; information
//     taken only from the node-local record store (the limited-global
//     model).
//   - Blind: the same PCS backtracking search with no fault information at
//     all (only one-hop status sensing) — the "local information" extreme.
//   - Oracle: global-information routing: every node knows all faulty
//     blocks; the next hop follows a globally shortest path over enabled
//     nodes, recomputed whenever the topology changes — the "traditional
//     model" extreme (routing tables at every node).
//   - DOR: plain dimension-order (e-cube) routing, the fault-intolerant
//     baseline: it fails on the first bad node in its way.
//   - Congested: Limited with congestion-aware tie-breaking — among the
//     fault-safe directions of equal Algorithm 3 priority it prefers the
//     one with the lightest downstream load (Context.Load), the first
//     router whose decisions are dynamic in traffic, not just in faults
//     (see congested.go).
//
// Routing messages advance one hop per step of the execution model; the
// Decide/Apply split lets the engine interleave decisions with the λ
// information rounds exactly as Figure 7 prescribes.
//
// Contracts: Decide never mutates the message — Advance/AdvanceGated
// commit a Decision to the header. A stalled message re-decides only when
// its inputs changed: its header, the mesh version or the record store
// version. Otherwise DecideMemo hands back the decision it memoized on the
// message, which is identical to a fresh one by construction. Routers are
// stateless per decision; all scratch lives in the caller's Scratch
// (coordinate buffers, direction lists, and a node-id-keyed decode cache of
// the current node), valid only during the current Decide call, which keeps
// the steady-state decision 0 allocs/op. Contexts that never decide
// concurrently may share one Scratch, as an engine's flights do; each
// Context keeps only its own destination decode. The one exception is
// Oracle's cached distance field, the reason StepStable excludes it:
// StepStable(r) certifies that a router's decisions depend only on the
// header and on state frozen for the whole routing phase of a step — the
// property that lets DecideMemo reuse them with byte-identical results.
package route

import (
	"fmt"

	"ndmesh/internal/boundary"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
)

// Policy breaks ties among directions of equal priority.
type Policy uint8

const (
	// LowestAxis deterministically prefers the smallest direction index.
	LowestAxis Policy = iota
	// LargestOffset prefers the axis with the largest remaining distance
	// to the destination (the classic adaptive-routing heuristic).
	LargestOffset
)

// LoadView exposes the traffic state a congestion-aware router may consult
// next to the fault records: per-node residency (how many messages occupy a
// router's input queue) and per-directed-link pending depth (how many
// traversals stalled on the link last step). Both are node-local signals —
// a router only ever queries its own node and its immediate neighbors, so
// the information model stays limited. The engine's contention mode
// implements it; outside contention mode both signals are zero, which makes
// every load-aware tie-break collapse to its load-oblivious baseline.
type LoadView interface {
	// Resident returns the number of active messages at the node.
	Resident(id grid.NodeID) int
	// LinkPending returns how many traversals stalled on the directed link
	// (from, dir) during the previous step — the link's queueing pressure.
	LinkPending(from grid.NodeID, dir grid.Dir) int
}

// Context is the information a router may consult: the fabric (one-hop
// status sensing is always allowed), the node-local record store (nil for
// the blind router), the load view (nil or zero outside contention mode),
// and the policy.
type Context struct {
	M      *mesh.Mesh
	Store  *info.Store
	Load   LoadView
	Policy Policy

	// Scratch holds the per-decision buffers. Contexts that never decide
	// concurrently may share one; nil means the context allocates a
	// private one on its first decision.
	Scratch *Scratch

	// dcBuf holds the destination's decode, dcID the id it decodes and
	// dcShape the shape it was decoded in. The destination is fixed for a
	// message's lifetime, so it is decoded once per flight rather than
	// once per decision; a context migrated to a different mesh re-decodes.
	dcBuf   grid.Coord
	dcShape *grid.Shape
	dcID    grid.NodeID
}

// Scratch is the per-decision working memory of the routers: reusable
// coordinate buffers (lazily sized on first use) and the candidate
// partition, filled in place by classifyLimited (Blind reuses its
// preferred and spares lists), so a decision copies no slice headers, the
// direction lists keep their capacity and a steady-state decision performs
// no allocation. Its contents are valid during the current Decide call
// only, which is what lets many contexts share one.
type Scratch struct {
	ucBuf, wcBuf grid.Coord
	cl           classified

	// shape/ucID memoize the decode held in ucBuf: a linear-to-coordinate
	// decode is a divmod per dimension, and profiles put those divmods at
	// 43% of the serial contention step, so the current node only
	// re-decodes when the queried node actually changed. The shape
	// pointer keys the whole cache.
	shape *grid.Shape
	ucID  grid.NodeID
}

// scratch returns the context's Scratch, allocating a private one on first
// use.
func (ctx *Context) scratch() *Scratch {
	if ctx.Scratch == nil {
		ctx.Scratch = new(Scratch)
	}
	return ctx.Scratch
}

// coords resolves the current node and the destination into reusable
// buffers, reusing the previous decode when the id is unchanged: the
// current node's in the scratch, the destination's in the context.
func (ctx *Context) coords(u, d grid.NodeID) (uc, dc grid.Coord) {
	shape := ctx.M.Shape()
	s := ctx.scratch()
	if s.shape != shape {
		if len(s.ucBuf) != shape.Dims() {
			s.ucBuf = make(grid.Coord, shape.Dims())
			s.wcBuf = make(grid.Coord, shape.Dims())
		}
		s.shape = shape
		s.ucID = grid.InvalidNode
	}
	if s.ucID != u {
		shape.Coord(u, s.ucBuf)
		s.ucID = u
	}
	if ctx.dcShape != shape {
		if len(ctx.dcBuf) != shape.Dims() {
			ctx.dcBuf = make(grid.Coord, shape.Dims())
		}
		ctx.dcShape = shape
		ctx.dcID = grid.InvalidNode
	}
	if ctx.dcID != d {
		shape.Coord(d, ctx.dcBuf)
		ctx.dcID = d
	}
	return s.ucBuf, ctx.dcBuf
}

// Decision is the outcome of one routing decision.
type Decision struct {
	// Dir is the chosen outgoing direction (valid when Move).
	Dir grid.Dir
	// Move means forward one hop along Dir.
	Move bool
	// Backtrack means return to the previous node on the path.
	Backtrack bool
	// Fail means the destination is unreachable (message backtracked to
	// the source with no unused outgoing direction).
	Fail bool
}

// Router chooses an outgoing direction for a message at its current node.
type Router interface {
	// Name identifies the router in experiment tables.
	Name() string
	// Decide inspects the message's current node and header and picks an
	// action. It must not mutate the message.
	Decide(ctx *Context, msg *Message) Decision
}

// Message is a PCS path-setup message: destination plus the header state
// Algorithm 3 requires — the path stack for backtracking and the list of
// used directions for each forwarding node along the path. The counters
// and terminal flags sit ahead of the lists, close to the front, so a step
// that only waits touches little of it.
type Message struct {
	Src, Dst grid.NodeID
	Cur      grid.NodeID
	// Incoming is the direction of the last move (InvalidDir at start).
	Incoming grid.Dir

	// Hops counts every link traversal (forward and backward); Backtracks
	// counts the backward ones. Steps counts decision steps including
	// waits. Waits counts the steps a contention gate stalled the message
	// (always 0 outside contention mode).
	Hops, Backtracks, Steps, Waits int

	// Arrived, Unreachable, Lost, TimedOut are the terminal states. Lost
	// marks the pathological dynamic case where the backtrack target itself
	// failed. TimedOut marks a flight the contention engine killed back to
	// its source after stalling in place past the configured timeout — the
	// deadlock-escape path; routers never set it themselves.
	Arrived, Unreachable, Lost, TimedOut bool

	// stalled records that the most recent step was a gate denial: the
	// message wanted a link and lost arbitration. Congestion-aware routers
	// use it as the adaptivity trigger — a message deviates from the
	// load-oblivious choice only after personally experiencing blocking,
	// which keeps underloaded routing byte-identical to Limited and stops
	// noise-driven herding. Always false outside contention mode.
	stalled bool

	// seen is a 64-bit filter over the ids in visits: seenBit(id) is set
	// for every id the list holds, so a clear bit proves a first visit
	// without scanning the list.
	seen uint64

	path []grid.NodeID
	// visits is the header's used-direction list: one entry per node the
	// message has forwarded from, in first-forward order. A flight touches
	// tens of nodes, so a contiguous list searched from its newest entry
	// beats hashing.
	visits []visit

	// memo is the last decision DecideMemo made for a step-stable router,
	// memoKey the inputs it was made from, and memoOK marks it valid.
	memo    Decision
	memoKey memoKey
	memoOK  bool
}

// visit is one entry of the used-direction list: the directions already
// taken out of node id.
type visit struct {
	id   grid.NodeID
	dirs grid.DirSet
}

// memoKey identifies the inputs of a step-stable decision that can change
// during a flight: the header generation and the mesh and store versions.
type memoKey struct {
	hops        int
	mesh, store uint64
}

// NewMessage builds a path-setup message from src to dst.
func NewMessage(src, dst grid.NodeID) *Message {
	return &Message{Src: src, Dst: dst, Cur: src, Incoming: grid.InvalidDir}
}

// Reset rewinds the message to a fresh injection from src to dst, keeping
// the capacity of the path stack and the used-direction list so a recycled
// message allocates nothing on its next flight.
//
//meshvet:noalloc
func (msg *Message) Reset(src, dst grid.NodeID) {
	msg.Src, msg.Dst, msg.Cur = src, dst, src
	msg.Incoming = grid.InvalidDir
	msg.path = msg.path[:0]
	msg.visits = msg.visits[:0]
	msg.seen = 0
	msg.Hops, msg.Backtracks, msg.Steps, msg.Waits = 0, 0, 0, 0
	msg.stalled = false
	msg.Arrived, msg.Unreachable, msg.Lost, msg.TimedOut = false, false, false, false
	msg.memo, msg.memoKey, msg.memoOK = Decision{}, memoKey{}, false
}

// Stalled reports whether the message's most recent step was a contention
// stall (it lost link arbitration and waited in place).
func (msg *Message) Stalled() bool { return msg.stalled }

// Done reports whether the message reached a terminal state.
func (msg *Message) Done() bool {
	return msg.Arrived || msg.Unreachable || msg.Lost || msg.TimedOut
}

// Used returns the used-direction set recorded at node id.
func (msg *Message) Used(id grid.NodeID) grid.DirSet {
	if i := msg.visitAt(id); i >= 0 {
		return msg.visits[i].dirs
	}
	return 0
}

// visitAt returns the index of id's entry in the used-direction list, or -1.
// A clear filter bit answers -1 at once; otherwise the search runs from the
// newest entry: after a backtrack the node is one of the last forwarded
// from.
func (msg *Message) visitAt(id grid.NodeID) int {
	if msg.seen&seenBit(id) == 0 {
		return -1
	}
	for i := len(msg.visits) - 1; i >= 0; i-- {
		if msg.visits[i].id == id {
			return i
		}
	}
	return -1
}

// seenBit is id's bit in the visits filter. The id is hashed first:
// neighbouring nodes along the higher axes differ by multiples of a
// power of two, so the id's low bits alone would put a straight run of a
// path on one or two bits.
func seenBit(id grid.NodeID) uint64 { return 1 << (uint32(id) * 0x9E3779B1 >> 26) }

// PathLen returns the current path-stack length (hops from source along the
// currently held path).
func (msg *Message) PathLen() int { return len(msg.path) }

// String summarizes the message state.
func (msg *Message) String() string {
	state := "active"
	switch {
	case msg.Arrived:
		state = "arrived"
	case msg.Unreachable:
		state = "unreachable"
	case msg.Lost:
		state = "lost"
	case msg.TimedOut:
		state = "timed-out"
	}
	return fmt.Sprintf("msg %d->%d at %d (%s, hops=%d backtracks=%d steps=%d)",
		msg.Src, msg.Dst, msg.Cur, state, msg.Hops, msg.Backtracks, msg.Steps)
}

// Gate arbitrates one link traversal under the contention model: it is
// asked whether the message at `from` may cross the directed link along
// `dir` this step. Returning false stalls the message for the step (its
// header is untouched; it makes a fresh decision next step). A nil Gate
// grants every traversal — the contention-free model.
type Gate func(from grid.NodeID, dir grid.Dir) bool

// Advance performs one step of the routing process: one decision and one
// hop (Figure 7's routing decision + message sending). It returns true if
// the message is still in flight afterwards.
//
//meshvet:noalloc
func Advance(ctx *Context, r Router, msg *Message) bool {
	return AdvanceGated(ctx, r, msg, nil)
}

// AdvanceGated is Advance under link arbitration: the decision is made
// normally, but the chosen traversal (forward or backward) only executes
// if the gate grants the link; otherwise the message waits in place. The
// decision itself is not committed to the header on a stall, so a waiting
// message re-decides next step if the fault picture changed while it
// queued — a stalled preferred direction can be abandoned for a spare —
// and otherwise reuses its memoized decision (DecideMemo).
//
//meshvet:noalloc
func AdvanceGated(ctx *Context, r Router, msg *Message, gate Gate) bool {
	if msg.Done() {
		return false
	}
	msg.Steps++
	if msg.Cur == msg.Dst {
		msg.Arrived = true
		return false
	}
	return commitDecision(ctx, msg, DecideMemo(ctx, r, msg), gate)
}

// DecideMemo returns r's decision for msg. A StepStable router's decision
// is a pure function of the header, the fabric statuses and the record
// store, so it is memoized on the message and handed back while msg.Hops
// (every move and backtrack bumps it), ctx.M.Version() and the store's
// Version() are unchanged: a flight that lost link arbitration gets the
// decision a fresh Decide would return without recomputing it. Other
// routers are asked afresh on every call. AdvanceGated decides through
// here, so there is one decide path. Between Resets a message must be
// decided with one router and one context, as every engine flight is: the
// key holds only what changes during a flight.
//
//meshvet:noalloc
func DecideMemo(ctx *Context, r Router, msg *Message) Decision {
	if !StepStable(r) {
		return r.Decide(ctx, msg)
	}
	key := memoKey{hops: msg.Hops, mesh: ctx.M.Version()}
	if ctx.Store != nil {
		key.store = ctx.Store.Version()
	}
	if !msg.memoOK || msg.memoKey != key {
		msg.memo, msg.memoKey, msg.memoOK = r.Decide(ctx, msg), key, true
	}
	return msg.memo
}

// commitDecision executes one decision under link arbitration. Every
// physical link traversal — forward moves and backward moves alike — asks
// the gate; the one Backtrack shape that crosses no link (an empty path
// stack, the terminal unreachable transition of applyBacktrack) has
// nothing to arbitrate and deliberately consults no gate, which
// TestBacktrackEmptyPathConsultsNoGate pins.
//
//meshvet:noalloc
func commitDecision(ctx *Context, msg *Message, d Decision, gate Gate) bool {
	switch {
	case d.Fail:
		msg.Unreachable = true
		return false
	case d.Backtrack:
		if msg.PathLen() == 0 {
			// Not a traversal: applyBacktrack on an empty stack only marks
			// the message unreachable, so no link budget may be consumed
			// and no stall may be recorded.
			msg.applyBacktrack(ctx)
			msg.stalled = false
			return !msg.Done()
		}
		if gate != nil {
			prev := msg.path[len(msg.path)-1]
			if !gate(msg.Cur, dirBetween(ctx.M, msg.Cur, prev)) {
				msg.Waits++
				msg.stalled = true
				return true
			}
		}
		msg.applyBacktrack(ctx)
		msg.stalled = false
	case d.Move:
		if gate != nil && !gate(msg.Cur, d.Dir) {
			msg.Waits++
			msg.stalled = true
			return true
		}
		msg.applyMove(ctx, d.Dir)
		msg.stalled = false
	}
	if msg.Cur == msg.Dst {
		msg.Arrived = true
		return false
	}
	return !msg.Done()
}

// StepStable reports whether r's Decide is a pure function of the
// message's own header and of state frozen for the whole routing phase of
// a step: the fabric statuses (fault events apply before routing) and the
// record store (information rounds run before routing). Both are
// versioned, so DecideMemo may reuse such a router's decision across steps
// until the header or a version changes, with results byte-identical to
// deciding afresh.
//
// Excluded by construction: Congested reads the load view (Resident,
// which earlier moves in the same step mutate, and LinkPending, which
// changes every step), and Oracle caches a distance field inside the
// (shared) router value. Both are decided afresh on every call.
func StepStable(r Router) bool {
	switch r.(type) {
	case Limited, Blind, DOR:
		return true
	}
	return false
}

//meshvet:noalloc
func (msg *Message) applyMove(ctx *Context, dir grid.Dir) {
	next := ctx.M.Neighbor(msg.Cur, dir)
	if next == grid.InvalidNode {
		// A router must never pick an off-mesh direction; treat as lost to
		// surface the bug in tests rather than panic in experiments.
		msg.Lost = true
		return
	}
	if i := msg.visitAt(msg.Cur); i >= 0 {
		msg.visits[i].dirs = msg.visits[i].dirs.Add(dir)
	} else {
		msg.visits = append(msg.visits, visit{id: msg.Cur, dirs: grid.DirSet(0).Add(dir)})
		msg.seen |= seenBit(msg.Cur)
	}
	msg.path = append(msg.path, msg.Cur)
	msg.Cur = next
	msg.Incoming = dir
	msg.Hops++
}

//meshvet:noalloc
func (msg *Message) applyBacktrack(ctx *Context) {
	if len(msg.path) == 0 {
		msg.Unreachable = true
		return
	}
	prev := msg.path[len(msg.path)-1]
	msg.path = msg.path[:len(msg.path)-1]
	if ctx.M.Status(prev) == mesh.Faulty {
		// The node we set this path segment through has failed under us:
		// the partial path is torn down and the message is lost (the PCS
		// source would time out and retry; we account it separately).
		msg.Lost = true
		return
	}
	// The physical move back: the new incoming direction is the reverse of
	// the link we cross.
	msg.Incoming = dirBetween(ctx.M, msg.Cur, prev)
	msg.Cur = prev
	msg.Hops++
	msg.Backtracks++
}

// dirBetween returns the direction of the single hop from a to b.
func dirBetween(m *mesh.Mesh, a, b grid.NodeID) grid.Dir {
	for d := 0; d < m.Shape().NumDirs(); d++ {
		if m.Neighbor(a, grid.Dir(d)) == b {
			return grid.Dir(d)
		}
	}
	return grid.InvalidDir
}

// ---------------------------------------------------------------------------
// Limited: Algorithm 3 with the limited-global information model.

// Limited is the fault-information-based PCS router of Algorithm 3.
type Limited struct{}

// Name implements Router.
func (Limited) Name() string { return "limited" }

// Decide implements Algorithm 3:
//  1. If the current node is disabled (or faulty under us), backtrack.
//  2. Pick the unused outgoing direction with the highest priority:
//     preferred, spare (along the block), preferred-but-detour, incoming.
//  3. With no unused outgoing direction, backtrack.
//  4. Backtracked to the source with nothing left: unreachable.
//
//meshvet:noalloc
func (Limited) Decide(ctx *Context, msg *Message) Decision {
	cl := classifyLimited(ctx, msg)
	if cl == nil {
		return backtrackOrFail(msg)
	}
	if len(cl.preferred) > 0 {
		return Decision{Move: true, Dir: pickPreferred(ctx, cl.preferred, cl.uc, cl.dc)}
	}
	if len(cl.spares) > 0 {
		return Decision{Move: true, Dir: pickSpare(ctx, cl.spares, cl.recs, cl.uc)}
	}
	if len(cl.demoted) > 0 {
		return Decision{Move: true, Dir: pickPreferred(ctx, cl.demoted, cl.uc, cl.dc)}
	}
	return backtrackOrFail(msg)
}

// classified is the candidate partition of Algorithm 3's step 2: the
// fault-safe unused outgoing directions split by priority class, plus the
// coordinate scratch and records the pick functions need. It lives in the
// Scratch, whose direction lists keep their capacity across decisions; its
// contents are valid until the next classify call.
type classified struct {
	preferred, demoted, spares []grid.Dir
	uc, dc                     grid.Coord
	recs                       []info.Record
}

// classifyLimited runs the candidate classification shared by Limited and
// Congested: both routers consider exactly the same fault-safe direction
// classes; they differ only in how ties inside a class are broken. It fills
// the scratch's partition in place and returns it, or nil when the current
// node itself is disabled/faulty (the backtrack case).
//
//meshvet:noalloc
func classifyLimited(ctx *Context, msg *Message) *classified {
	m := ctx.M
	u := msg.Cur
	if m.Status(u).Bad() {
		return nil
	}
	shape := m.Shape()
	uc, dc := ctx.coords(u, msg.Dst)
	s := ctx.scratch()
	cl := &s.cl
	used := msg.Used(u)
	recs := recordsAt(ctx, u)

	preferred, demoted, spares := cl.preferred[:0], cl.demoted[:0], cl.spares[:0]
	for dv := 0; dv < shape.NumDirs(); dv++ {
		dir := grid.Dir(dv)
		if used.Has(dir) {
			continue
		}
		next := m.Neighbor(u, dir)
		if next == grid.InvalidNode || m.Status(next) != mesh.Enabled {
			continue
		}
		if isPreferred(uc, dc, dir) {
			// The neighbor's coordinate differs from uc by ±1 on one axis,
			// so derive it with a copy instead of a per-dimension divmod
			// decode (the old shape.Coord(next, ...) here was the hottest
			// divmod site in the contention step) — and only when there
			// are records for demotedByRecords to consult at all.
			demote := false
			if len(recs) > 0 {
				wc := s.wcBuf
				copy(wc, uc)
				wc[dir.Axis()] += dir.Sign()
				demote = demotedByRecords(recs, wc, dc)
			}
			if demote {
				demoted = append(demoted, dir)
			} else {
				preferred = append(preferred, dir)
			}
			continue
		}
		if msg.Incoming != grid.InvalidDir && dir == msg.Incoming.Opposite() {
			continue // going back is the lowest priority: the backtrack case
		}
		spares = append(spares, dir)
	}
	cl.preferred, cl.demoted, cl.spares = preferred, demoted, spares
	cl.uc, cl.dc, cl.recs = uc, dc, recs
	return cl
}

func backtrackOrFail(msg *Message) Decision {
	if msg.PathLen() == 0 {
		return Decision{Fail: true}
	}
	return Decision{Backtrack: true}
}

// recordsAt returns the block records stored at node u (nil without store).
func recordsAt(ctx *Context, u grid.NodeID) []info.Record {
	if ctx.Store == nil {
		return nil
	}
	return ctx.Store.At(u)
}

// isPreferred reports whether dir reduces the Manhattan distance to dc.
func isPreferred(uc, dc grid.Coord, dir grid.Dir) bool {
	a := dir.Axis()
	if dir.Positive() {
		return uc[a] < dc[a]
	}
	return uc[a] > dc[a]
}

// demotedByRecords applies the critical-routing rule: a preferred step onto
// w is demoted to preferred-but-detour when, per some stored block record,
// w lies in the block's dangerous shadow while the destination is trapped
// beyond the opposite surface (Section 2.2).
func demotedByRecords(recs []info.Record, wc, dc grid.Coord) bool {
	for _, r := range recs {
		if axis, neg, ok := boundary.InShadow(r.Box, wc); ok && boundary.Trapped(r.Box, dc, axis, neg) {
			return true
		}
	}
	return false
}

// pickPreferred selects among preferred directions by policy.
func pickPreferred(ctx *Context, dirs []grid.Dir, uc, dc grid.Coord) grid.Dir {
	if ctx.Policy == LargestOffset {
		best := dirs[0]
		bestOff := -1
		for _, d := range dirs {
			off := abs(dc[d.Axis()] - uc[d.Axis()])
			if off > bestOff {
				best, bestOff = d, off
			}
		}
		return best
	}
	return lowest(dirs)
}

// pickSpare selects a spare direction "along with the block": among the
// axes where the current node sits inside a recorded block's span, prefer
// the direction with the shortest run to exit the span (the fastest way
// around the block); axes outside any span rank last and fall back to the
// policy order.
func pickSpare(ctx *Context, dirs []grid.Dir, recs []info.Record, uc grid.Coord) grid.Dir {
	const inf = int(^uint(0) >> 1)
	best := dirs[0]
	bestRank := inf
	for _, d := range dirs {
		rank := inf
		a := d.Axis()
		for _, r := range recs {
			if !r.Box.ContainsOn(a, uc[a]) {
				continue
			}
			var run int
			if d.Positive() {
				run = r.Box.Hi[a] + 1 - uc[a]
			} else {
				run = uc[a] - (r.Box.Lo[a] - 1)
			}
			if run < rank {
				rank = run
			}
		}
		if rank < bestRank || (rank == bestRank && d < best) {
			best, bestRank = d, rank
		}
	}
	if bestRank < inf {
		return best
	}
	return lowest(dirs)
}

func lowest(dirs []grid.Dir) grid.Dir {
	best := dirs[0]
	for _, d := range dirs[1:] {
		if d < best {
			best = d
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ---------------------------------------------------------------------------
// Blind: PCS backtracking with no fault information.

// Blind is Algorithm 3 stripped of the information model: only one-hop
// status sensing guides it, so it walks into dangerous areas and pays for
// them with backtracking.
type Blind struct{}

// Name implements Router.
func (Blind) Name() string { return "blind" }

// Decide implements Router.
//
//meshvet:noalloc
func (Blind) Decide(ctx *Context, msg *Message) Decision {
	m := ctx.M
	u := msg.Cur
	if m.Status(u).Bad() {
		return backtrackOrFail(msg)
	}
	shape := m.Shape()
	uc, dc := ctx.coords(u, msg.Dst)
	cl := &ctx.scratch().cl
	used := msg.Used(u)
	preferred, spares := cl.preferred[:0], cl.spares[:0]
	for dv := 0; dv < shape.NumDirs(); dv++ {
		dir := grid.Dir(dv)
		if used.Has(dir) {
			continue
		}
		next := m.Neighbor(u, dir)
		if next == grid.InvalidNode || m.Status(next) != mesh.Enabled {
			continue
		}
		if isPreferred(uc, dc, dir) {
			preferred = append(preferred, dir)
			continue
		}
		if msg.Incoming != grid.InvalidDir && dir == msg.Incoming.Opposite() {
			continue
		}
		spares = append(spares, dir)
	}
	cl.preferred, cl.spares = preferred, spares
	if len(preferred) > 0 {
		return Decision{Move: true, Dir: pickPreferred(ctx, preferred, uc, dc)}
	}
	if len(spares) > 0 {
		return Decision{Move: true, Dir: lowest(spares)}
	}
	return backtrackOrFail(msg)
}

// ---------------------------------------------------------------------------
// Oracle: global information.

// Oracle is the traditional global-information model: it always knows the
// exact enabled topology and follows a globally shortest path, recomputing
// the distance field whenever the mesh changes. Its information cost is
// charged as a full-network update per change (see the experiment harness).
type Oracle struct {
	dst     grid.NodeID
	version uint64
	valid   bool
	dist    []int32
	queue   []grid.NodeID
}

// Name implements Router.
func (o *Oracle) Name() string { return "oracle" }

// unreachableDist marks nodes with no enabled path to the destination.
const unreachableDist = int32(-1)

// Decide implements Router: step to any neighbor strictly closer to the
// destination in the current enabled-subgraph metric.
func (o *Oracle) Decide(ctx *Context, msg *Message) Decision {
	m := ctx.M
	if m.Status(msg.Cur).Bad() {
		return backtrackOrFail(msg)
	}
	o.refresh(m, msg.Dst)
	du := o.dist[msg.Cur]
	if du == unreachableDist {
		return Decision{Fail: true}
	}
	bestDir := grid.InvalidDir
	var bestDist int32 = du
	for dv := 0; dv < m.Shape().NumDirs(); dv++ {
		dir := grid.Dir(dv)
		nb := m.Neighbor(msg.Cur, dir)
		if nb == grid.InvalidNode || m.Status(nb) != mesh.Enabled {
			continue
		}
		if dn := o.dist[nb]; dn != unreachableDist && dn < bestDist {
			bestDist, bestDir = dn, dir
		}
	}
	if bestDir == grid.InvalidDir {
		return Decision{Fail: true}
	}
	return Decision{Move: true, Dir: bestDir}
}

// refresh rebuilds the BFS distance field from dst if the topology or the
// destination changed.
func (o *Oracle) refresh(m *mesh.Mesh, dst grid.NodeID) {
	if o.valid && o.version == m.Version() && o.dst == dst {
		return
	}
	n := m.NumNodes()
	if len(o.dist) != n {
		o.dist = make([]int32, n)
	}
	for i := range o.dist {
		o.dist[i] = unreachableDist
	}
	o.queue = o.queue[:0]
	if m.Status(dst) == mesh.Enabled {
		o.dist[dst] = 0
		o.queue = append(o.queue, dst)
	}
	for head := 0; head < len(o.queue); head++ {
		cur := o.queue[head]
		m.EachNeighbor(cur, func(nb grid.NodeID, _ grid.Dir) {
			if o.dist[nb] == unreachableDist && m.Status(nb) == mesh.Enabled {
				o.dist[nb] = o.dist[cur] + 1
				o.queue = append(o.queue, nb)
			}
		})
	}
	o.version, o.dst, o.valid = m.Version(), dst, true
}

// ---------------------------------------------------------------------------
// DOR: dimension-order routing (fault-intolerant baseline).

// DOR resolves offsets axis by axis; it declares failure as soon as the
// next hop is not enabled. It quantifies what fault tolerance buys.
type DOR struct{}

// Name implements Router.
func (DOR) Name() string { return "dor" }

// Decide implements Router.
//
//meshvet:noalloc
func (DOR) Decide(ctx *Context, msg *Message) Decision {
	m := ctx.M
	if m.Status(msg.Cur).Bad() {
		return Decision{Fail: true}
	}
	shape := m.Shape()
	uc, dc := ctx.coords(msg.Cur, msg.Dst)
	for a := 0; a < shape.Dims(); a++ {
		if uc[a] == dc[a] {
			continue
		}
		dir := grid.DirPlus(a)
		if uc[a] > dc[a] {
			dir = grid.DirMinus(a)
		}
		next := m.Neighbor(msg.Cur, dir)
		if next == grid.InvalidNode || m.Status(next) != mesh.Enabled {
			return Decision{Fail: true}
		}
		return Decision{Move: true, Dir: dir}
	}
	return Decision{Fail: true} // already at destination: Advance handles it
}

// ByName returns a fresh router by experiment name.
func ByName(name string) (Router, error) {
	switch name {
	case "limited":
		return Limited{}, nil
	case "congested":
		return Congested{}, nil
	case "blind":
		return Blind{}, nil
	case "oracle":
		return &Oracle{}, nil
	case "dor":
		return DOR{}, nil
	default:
		return nil, fmt.Errorf("route: unknown router %q", name)
	}
}
