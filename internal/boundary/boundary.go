// Package boundary implements the boundary construction of the paper
// (Section 2.2, Section 3, Figure 3): the placement of a faulty block's
// information on the nodes that enclose the block's dangerous areas, the
// hop-by-hop distributed propagation that performs the placement, the merge
// of boundaries that intersect another block (Figure 3(d)), and the
// deletion (cancellation) of out-of-date boundaries after a block changes.
//
// Geometry. For block B with interior box [lo_1:hi_1, ..., lo_n:hi_n] and
// an axis j, the dangerous area ("shadow") on the − side of axis j is
//
//	{ x : x_l ∈ [lo_l:hi_l] for all l ≠ j, x_j < lo_j }.
//
// A message inside this shadow whose destination lies beyond the opposite
// (+j) adjacent surface with projections inside B's span on every other
// axis has no minimal path (the block disconnects all shortest paths). The
// boundary for surface S_{+j} encloses this shadow: it starts at the edges
// of the opposite adjacent surface S_{−j} and propagates in −j — the side
// walls of the shadow:
//
//	{ x : x_i = lo_i−1 or hi_i+1 (one lateral axis i ≠ j),
//	      x_l ∈ [lo_l:hi_l] for all l ∉ {i,j},  x_j < lo_j−1 }.
//
// In 3-D these walls are exactly the straight rays of Figure 3(a-c); in
// higher dimensions they are the (n−1)-dimensional boundary the paper
// refers to, and the propagation is a one-hop-per-round flood constrained
// to the wall region. Wall nodes (and the frame shell nodes, covered by the
// identification protocol's phase 4) hold the block record that Algorithm 3
// consults to demote a preferred direction into a preferred-but-detour
// direction.
//
// The flood. Each Construction is a breadth-first search, one hop per
// round, over the union of its region bases' placements. That union is a
// bitset: adding a base sets the bit of every node of its clipped shell
// and wall boxes, so the region test for a neighbour is one bit lookup.
// A node is marked queued when it is first appended to the next front
// (seeds when the flood starts) and is never tested or appended again; a
// separate done mark skips repeated seeds. Each front keeps its first
// occurrences in discovery order, so the visit order, and with it every
// deposit, merge and cancellation, is that of a flood that re-tests a
// node once per visited neighbour. Recycled constructions clear only the
// mark words their last flood touched, so starting a flood costs nothing
// in proportion to the mesh.
package boundary

import (
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
)

// OnWall reports whether coordinate c lies on one of block b's boundary
// walls: exactly one axis at lo−1/hi+1 (the lateral wall axis), exactly one
// axis strictly beyond the frame shell (the shadow axis), and every other
// axis inside the block span.
func OnWall(b grid.Box, c grid.Coord) bool {
	if len(c) != b.Dims() {
		return false
	}
	extremes, beyond := 0, 0
	for i := range c {
		switch {
		case c[i] == b.Lo[i]-1 || c[i] == b.Hi[i]+1:
			extremes++
		case c[i] < b.Lo[i]-1 || c[i] > b.Hi[i]+1:
			beyond++
		default:
			// inside the span
		}
	}
	return extremes == 1 && beyond == 1
}

// OnPlacement reports whether coordinate c belongs to block b's information
// placement: the frame shell (adjacent nodes, edge nodes, corners) or a
// boundary wall.
func OnPlacement(b grid.Box, c grid.Coord) bool {
	if _, ok := frame.Level(b, c); ok {
		return true
	}
	return OnWall(b, c)
}

// Placement enumerates every mesh node of block b's information placement,
// clipped to the mesh. This is the oracle the distributed protocol is
// verified against and the direct-deposit path used by the global-epoch
// test harness.
func Placement(shape *grid.Shape, b grid.Box) []grid.NodeID {
	seen := make(map[grid.NodeID]struct{})
	var out []grid.NodeID
	add := func(id grid.NodeID) {
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	// Frame shell.
	b.Expand(1).EachID(shape, func(id grid.NodeID) {
		if _, ok := frame.Level(b, shape.CoordOf(id)); ok {
			add(id)
		}
	})
	// Walls: for each shadow axis j and side, for each lateral axis i and
	// side, the wall box extends from just beyond the shell to the mesh
	// border.
	n := b.Dims()
	wall := grid.Box{Lo: make(grid.Coord, n), Hi: make(grid.Coord, n)}
	for j := 0; j < n; j++ {
		for _, sigmaNeg := range []bool{true, false} {
			for i := 0; i < n; i++ {
				if i == j {
					continue
				}
				for _, tauLow := range []bool{true, false} {
					if wallBounds(shape, b, j, sigmaNeg, i, tauLow, wall.Lo, wall.Hi) {
						wall.EachID(shape, add)
					}
				}
			}
		}
	}
	return out
}

// wallBounds writes into lo and hi the clipped wall box for shadow axis j
// (side − if sigmaNeg) and lateral axis i (side lo−1 if tauLow), and
// reports whether it is non-empty. It allocates nothing, so the flood's
// placement marking can enumerate walls on its hot path.
func wallBounds(shape *grid.Shape, b grid.Box, j int, sigmaNeg bool, i int, tauLow bool, lo, hi grid.Coord) bool {
	copy(lo, b.Lo)
	copy(hi, b.Hi)
	if tauLow {
		lo[i], hi[i] = b.Lo[i]-1, b.Lo[i]-1
	} else {
		lo[i], hi[i] = b.Hi[i]+1, b.Hi[i]+1
	}
	if sigmaNeg {
		lo[j], hi[j] = 0, b.Lo[j]-2
	} else {
		lo[j], hi[j] = b.Hi[j]+2, shape.Radix(j)-1
	}
	if lo[j] > hi[j] || lo[i] < 0 || hi[i] >= shape.Radix(i) {
		return false
	}
	for l := range lo {
		lo[l] = max(lo[l], 0)
		hi[l] = min(hi[l], shape.Radix(l)-1)
		if lo[l] > hi[l] {
			return false
		}
	}
	return true
}

// InShadow reports whether coordinate c lies in block b's dangerous area
// along some axis, returning that axis and whether c is on the negative
// side. The adjacent slab (x_j = lo_j−1 / hi_j+1 with all other axes in
// span) counts as part of the shadow: stepping onto it already forfeits
// minimality when the destination is trapped beyond the block.
func InShadow(b grid.Box, c grid.Coord) (axis int, negSide bool, ok bool) {
	if len(c) != b.Dims() {
		return 0, false, false
	}
	outAxis := -1
	for i := range c {
		if c[i] < b.Lo[i] || c[i] > b.Hi[i] {
			if outAxis >= 0 {
				return 0, false, false // outside the span on two axes
			}
			outAxis = i
		}
	}
	if outAxis < 0 {
		return 0, false, false // inside the block itself
	}
	return outAxis, c[outAxis] < b.Lo[outAxis], true
}

// Trapped reports whether a destination d is trapped beyond block b for a
// message in the (axis, negSide) shadow: the destination lies beyond the
// opposite adjacent surface and its projection on every other axis falls
// inside the block span — the "no minimal path" condition of Section 2.2.
func Trapped(b grid.Box, d grid.Coord, axis int, negSide bool) bool {
	for l := range d {
		if l == axis {
			continue
		}
		if d[l] < b.Lo[l] || d[l] > b.Hi[l] {
			return false
		}
	}
	if negSide {
		return d[axis] > b.Hi[axis]
	}
	return d[axis] < b.Lo[axis]
}

// Op selects what a construction does at each visited node.
type Op uint8

const (
	// Deposit adds the block record (boundary construction).
	Deposit Op = iota
	// Cancel removes records with the construction's box and an older
	// epoch (deletion of out-of-date boundaries).
	Cancel
)

// Construction is one in-flight boundary flood: a deposit of a freshly
// identified block's record over its placement, or a cancellation of a
// stale record over the old placement. Floods advance one hop per round
// from their seed nodes, constrained to the placement region; when a flood
// reaches a node holding a *different* block's record, the region is
// extended with that block's placement — the boundary merge of Fig. 3(d).
type Construction struct {
	// Box is the subject block (the record deposited or cancelled).
	Box grid.Box
	// Epoch orders this construction against others for the same region.
	Epoch uint32
	// Op is Deposit or Cancel.
	Op Op

	regions []grid.Box // placement bases: Box plus merge extensions
	// frontier/next are the double-buffered flood fronts; roundOne swaps
	// them so a long-lived construction allocates no per-round slice.
	frontier []grid.NodeID
	next     []grid.NodeID
	// marks holds the per-node flood state, 64 nodes a word; touched lists
	// the words this flood made non-zero, so reuse clears only those.
	marks   []markWord
	touched []int32
	// Rounds counts propagation rounds so far (contributes to c_i).
	Rounds int
}

// markWord is one 64-node word of a construction's marks.
type markWord struct {
	place  uint64 // on the placement of some region base
	queued uint64 // appended to the flood (seeds included)
	done   uint64 // processed
}

// word returns the mark word of node id and id's bit in it.
func (c *Construction) word(id grid.NodeID) (*markWord, uint64) {
	return &c.marks[id>>6], 1 << uint(id&63)
}

// touch records word w as dirty if it is still all zero.
func (c *Construction) touch(w int) {
	if c.marks[w] == (markWord{}) {
		c.touched = append(c.touched, int32(w))
	}
}

// queue marks id as queued.
func (c *Construction) queue(id grid.NodeID) {
	c.touch(int(id >> 6))
	w, bit := c.word(id)
	w.queued |= bit
}

// markRun sets the place marks of the consecutive node ids [from, to].
func (c *Construction) markRun(from, to int) {
	for w := from >> 6; w <= to>>6; w++ {
		mask := ^uint64(0)
		if w == from>>6 {
			mask &= ^uint64(0) << uint(from&63)
		}
		if w == to>>6 {
			mask &= ^uint64(0) >> uint(63-to&63)
		}
		c.touch(w)
		c.marks[w].place |= mask
	}
}

// Done reports whether the flood has exhausted its frontier.
func (c *Construction) Done() bool { return len(c.frontier) == 0 }

// Protocol runs all in-flight boundary constructions, one hop per round.
type Protocol struct {
	m     *mesh.Mesh  //meshvet:keep dependency, not per-trial state
	store *info.Store //meshvet:keep dependency, not per-trial state
	cons  []*Construction
	// spare is the free list of retired constructions; Start reuses them so
	// a fault process cycling blocks through the protocol allocates nothing
	// once warm.
	spare []*Construction
	// scratch holds the visited node's coordinate in roundOne; lo, hi and
	// cur are markPlacement's box bounds and odometer.
	scratch grid.Coord //meshvet:keep scratch buffer, overwritten before every use
	lo      grid.Coord //meshvet:keep scratch buffer, overwritten before every use
	hi      grid.Coord //meshvet:keep scratch buffer, overwritten before every use
	cur     grid.Coord //meshvet:keep scratch buffer, overwritten before every use
	// Hops counts total node visits across constructions (message cost).
	Hops int
}

// NewProtocol builds an empty boundary protocol over m and store.
func NewProtocol(m *mesh.Mesh, store *info.Store) *Protocol {
	n := m.Shape().Dims()
	return &Protocol{
		m: m, store: store,
		scratch: make(grid.Coord, n),
		lo:      make(grid.Coord, n),
		hi:      make(grid.Coord, n),
		cur:     make(grid.Coord, n),
	}
}

// Reset abandons every in-flight construction so the protocol can be reused
// for a new trial; the constructions land on the free list.
func (p *Protocol) Reset() {
	p.spare = append(p.spare, p.cons...)
	p.cons = p.cons[:0]
	p.Hops = 0
}

// Start registers a construction for box seeded at the given nodes.
// Deposits seed from the block's frame (typically its corners and edge
// nodes, which received the record in identification phase 4); cancels
// seed from the node that detected the stale record. The seeds slice is
// copied, not retained.
//
//meshvet:noalloc warm constructions come off the free list
func (p *Protocol) Start(box grid.Box, epoch uint32, op Op, seeds []grid.NodeID) *Construction {
	var c *Construction
	if n := len(p.spare); n > 0 {
		c = p.spare[n-1]
		p.spare = p.spare[:n-1]
	} else {
		c = &Construction{} //meshvet:allow free-list miss, once per concurrent flood
	}
	p.reuse(c, box, epoch, op, seeds)
	p.cons = append(p.cons, c)
	return c
}

// reuse re-initializes a (possibly recycled) construction in place, keeping
// every buffer's capacity. Only the mark words the previous flood touched
// are cleared, so restarting costs in proportion to that flood, not to the
// mesh.
//
//meshvet:noalloc buffers keep their capacity across floods
func (p *Protocol) reuse(c *Construction, box grid.Box, epoch uint32, op Op, seeds []grid.NodeID) {
	if words := (p.m.NumNodes() + 63) / 64; len(c.marks) != words {
		c.marks = make([]markWord, words) //meshvet:allow first flood of this construction
	} else {
		for _, w := range c.touched {
			c.marks[w] = markWord{}
		}
	}
	c.touched = c.touched[:0]
	c.Box.Set(box)
	c.Epoch = epoch
	c.Op = op
	c.regions = c.regions[:0]
	p.addRegion(c, box)
	c.frontier = c.frontier[:0]
	c.frontier = append(c.frontier, seeds...)
	for _, id := range seeds {
		c.queue(id)
	}
	c.next = c.next[:0]
	c.Rounds = 0
}

// addRegion appends a copy of b to c's placement bases, reusing the box
// storage parked in the slice's spare capacity by earlier reuse cycles,
// and marks b's placement. Regions only grow during a flood, so the place
// marks are exactly the union of OnPlacement over the bases.
//
//meshvet:noalloc box storage is recycled from the spare capacity
func (p *Protocol) addRegion(c *Construction, b grid.Box) {
	if n := len(c.regions); n < cap(c.regions) {
		c.regions = c.regions[:n+1]
		c.regions[n].Set(b)
	} else {
		c.regions = append(c.regions, b.Clone())
	}
	p.markPlacement(c, b)
}

// extendRegion merges another block's placement into the flood region,
// deduplicating bases.
func (p *Protocol) extendRegion(c *Construction, b grid.Box) {
	for _, r := range c.regions {
		if r.Equal(b) {
			return
		}
	}
	p.addRegion(c, b)
}

// markPlacement sets the place marks of block b's placement, enumerated
// like Placement but without allocating: the frame shell (the clipped
// Expand(1) box minus the interior) and every clipped wall box.
//
//meshvet:noalloc bounds live in the protocol's scratch coordinates
func (p *Protocol) markPlacement(c *Construction, b grid.Box) {
	shape := p.m.Shape()
	n := shape.Dims()
	for i := 0; i < n; i++ {
		p.lo[i] = max(b.Lo[i]-1, 0)
		p.hi[i] = min(b.Hi[i]+1, shape.Radix(i)-1)
	}
	p.markBox(c, b, true)
	for j := 0; j < n; j++ {
		for _, sigmaNeg := range [2]bool{true, false} {
			for i := 0; i < n; i++ {
				if i == j {
					continue
				}
				for _, tauLow := range [2]bool{true, false} {
					if wallBounds(shape, b, j, sigmaNeg, i, tauLow, p.lo, p.hi) {
						p.markBox(c, b, false)
					}
				}
			}
		}
	}
}

// markBox sets the place marks of the box [p.lo, p.hi], leaving out b's
// interior when shell is set. Axis 0 varies fastest in node ids, so every
// row of the box along it is one run of consecutive ids.
func (p *Protocol) markBox(c *Construction, b grid.Box, shell bool) {
	shape := p.m.Shape()
	lo, hi, cur := p.lo, p.hi, p.cur
	copy(cur, lo)
	for {
		start := int(shape.Index(cur))
		end := start + hi[0] - lo[0]
		if shell && rowCrossesInterior(b, cur) {
			// Only the two shell nodes flanking the interior, where they
			// lie inside the mesh.
			if lo[0] < b.Lo[0] {
				c.markRun(start, start)
			}
			if hi[0] > b.Hi[0] {
				c.markRun(end, end)
			}
		} else {
			c.markRun(start, end)
		}
		axis := 1
		for axis < len(cur) {
			cur[axis]++
			if cur[axis] <= hi[axis] {
				break
			}
			cur[axis] = lo[axis]
			axis++
		}
		if axis == len(cur) {
			return
		}
	}
}

// rowCrossesInterior reports whether the axis-0 row through cur passes
// through box b: every other coordinate lies inside b's span.
func rowCrossesInterior(b grid.Box, cur grid.Coord) bool {
	for l := 1; l < len(cur); l++ {
		if cur[l] < b.Lo[l] || cur[l] > b.Hi[l] {
			return false
		}
	}
	return true
}

// Quiescent reports whether no construction is in flight.
func (p *Protocol) Quiescent() bool { return len(p.cons) == 0 }

// Active returns the number of in-flight constructions.
func (p *Protocol) Active() int { return len(p.cons) }

// Round advances every construction one hop and retires the finished ones
// onto the free list. It returns the number of node visits performed (0 at
// quiescence).
//
//meshvet:noalloc constructions retire onto the pooled free list
func (p *Protocol) Round() int {
	visits, kept := 0, 0
	for _, c := range p.cons {
		visits += p.roundOne(c)
		if !c.Done() {
			p.cons[kept] = c
			kept++
		} else {
			p.spare = append(p.spare, c)
		}
	}
	p.cons = p.cons[:kept]
	p.Hops += visits
	return visits
}

// roundOne advances c by one hop: a breadth-first flood that marks a node
// queued the first time it is appended to the next front, so each node is
// appended once and tested against the region by a single bit lookup.
//
//meshvet:noalloc fronts are double-buffered, marks preallocated by reuse
func (p *Protocol) roundOne(c *Construction) int {
	next := c.next[:0]
	visits := 0
	shape := p.m.Shape()
	numDirs := shape.NumDirs()
	for _, id := range c.frontier {
		w, bit := c.word(id)
		if w.done&bit != 0 {
			continue // a repeated seed, or the idle-round copy below
		}
		w.done |= bit
		// Only enabled nodes carry and forward boundary information; a
		// flood reaching a disabled/faulty node stops there (the block in
		// the way is handled by the merge rule below at its adjacent
		// nodes).
		if p.m.Status(id) != mesh.Enabled {
			continue
		}
		visits++
		switch c.Op {
		case Deposit:
			p.store.Add(id, info.Record{Box: c.Box, Epoch: c.Epoch})
		case Cancel:
			p.store.Remove(id, c.Box, c.Epoch)
		}
		// Merge (Fig. 3(d)): when the propagation reaches a node of
		// another block's *frame* — "the first adjacent node of the second
		// block it reaches" — the flood extends across that block's
		// placement, merging into its surfaces and boundary. Merely
		// crossing another block's distant wall is not an intersection
		// with the block and must not merge.
		var cd grid.Coord // the visited node's address, decoded on demand
		for _, r := range p.store.At(id) {
			if r.Box.Equal(c.Box) {
				continue
			}
			if cd == nil {
				cd = shape.Coord(id, p.scratch)
			}
			if _, onFrame := frame.Level(r.Box, cd); onFrame {
				p.extendRegion(c, r.Box)
			}
		}
		for d := 0; d < numDirs; d++ {
			nb := p.m.Neighbor(id, grid.Dir(d))
			if nb == grid.InvalidNode {
				continue
			}
			nw, nbit := c.word(nb)
			if nw.done&nbit != 0 {
				continue
			}
			// A cancellation also follows the trail of nodes actually
			// holding the record: merged boundaries parked the record on
			// other blocks' placements, and those blocks may be gone by
			// deletion time, so geometry alone cannot retrace the deposit.
			if nw.place&nbit == 0 && (c.Op != Cancel || !p.store.Has(nb, c.Box)) {
				continue
			}
			if nw.queued&nbit == 0 {
				c.queue(nb)
				next = append(next, nb)
			} else if len(next) == 0 {
				// nb waits later in this front. A front whose only finds
				// are such nodes still costs the flood one idle round,
				// which Rounds and the protocol's quiescence count, so
				// keep one copy; it is done by then and skipped.
				next = append(next, nb)
			}
		}
	}
	c.next = c.frontier[:0]
	c.frontier = next
	c.Rounds++
	return visits
}
