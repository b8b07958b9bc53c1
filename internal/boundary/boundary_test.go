package boundary

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"ndmesh/internal/block"
	"ndmesh/internal/frame"
	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
)

// fig1Box is the paper's running example block [3:5, 5:6, 3:4].
var fig1Box = grid.NewBox(grid.Coord{3, 5, 3}, grid.Coord{5, 6, 4})

func TestOnWall3D(t *testing.T) {
	cases := []struct {
		c    grid.Coord
		want bool
	}{
		// Figure 3(a): the boundary for S4 (+Y) hangs below the block from
		// the edges of S1: wall nodes have one lateral extreme, y below
		// the shell, others in span.
		{grid.Coord{2, 3, 3}, true},  // x at lo-1, y two below block, z in span
		{grid.Coord{6, 0, 4}, true},  // x at hi+1, y far below, z in span
		{grid.Coord{4, 3, 2}, true},  // z at lo-1, y below, x in span
		{grid.Coord{4, 3, 5}, true},  // z at hi+1, y below, x in span
		{grid.Coord{4, 9, 2}, true},  // wall above the block (+Y beyond)
		{grid.Coord{0, 5, 2}, true},  // wall on -X side: x beyond, z extreme, y in span
		{grid.Coord{4, 3, 3}, false}, // inside the shadow, not a wall
		{grid.Coord{2, 4, 3}, false}, // on the shell (level 2), not a wall
		{grid.Coord{2, 3, 2}, false}, // two lateral extremes
		{grid.Coord{0, 0, 0}, false}, // far corner region
		{grid.Coord{4, 5, 3}, false}, // inside block
		{grid.Coord{2, 3}, false},    // wrong dimensionality
	}
	for _, tc := range cases {
		if got := OnWall(fig1Box, tc.c); got != tc.want {
			t.Errorf("OnWall(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestOnPlacement(t *testing.T) {
	// Shell nodes and wall nodes are placement; shadow interior is not.
	if !OnPlacement(fig1Box, grid.Coord{2, 4, 2}) { // corner
		t.Error("corner not on placement")
	}
	if !OnPlacement(fig1Box, grid.Coord{2, 3, 3}) { // wall
		t.Error("wall not on placement")
	}
	if OnPlacement(fig1Box, grid.Coord{4, 2, 3}) { // shadow interior
		t.Error("shadow interior on placement")
	}
	if OnPlacement(fig1Box, grid.Coord{4, 5, 3}) { // block interior
		t.Error("block interior on placement")
	}
}

func TestPlacementMatchesPredicate(t *testing.T) {
	shape := grid.MustShape(10, 10, 10)
	ids := Placement(shape, fig1Box)
	inPlacement := make(map[grid.NodeID]bool, len(ids))
	for _, id := range ids {
		inPlacement[id] = true
	}
	// Exactly the nodes satisfying OnPlacement, no more, no less.
	for id := 0; id < shape.NumNodes(); id++ {
		c := shape.CoordOf(grid.NodeID(id))
		want := OnPlacement(fig1Box, c)
		if inPlacement[grid.NodeID(id)] != want {
			t.Fatalf("placement mismatch at %v: enumerated=%v predicate=%v",
				c, inPlacement[grid.NodeID(id)], want)
		}
	}
}

func TestInShadow(t *testing.T) {
	cases := []struct {
		c    grid.Coord
		axis int
		neg  bool
		ok   bool
	}{
		{grid.Coord{4, 2, 3}, 1, true, true},   // below the block (-Y shadow)
		{grid.Coord{4, 4, 3}, 1, true, true},   // adjacent slab counts
		{grid.Coord{4, 9, 4}, 1, false, true},  // above (+Y shadow)
		{grid.Coord{1, 5, 3}, 0, true, true},   // -X shadow
		{grid.Coord{4, 5, 8}, 2, false, true},  // +Z shadow
		{grid.Coord{4, 5, 3}, 0, false, false}, // inside block
		{grid.Coord{2, 3, 3}, 0, false, false}, // outside span on two axes
	}
	for _, tc := range cases {
		axis, neg, ok := InShadow(fig1Box, tc.c)
		if ok != tc.ok || (ok && (axis != tc.axis || neg != tc.neg)) {
			t.Errorf("InShadow(%v) = (%d,%v,%v), want (%d,%v,%v)",
				tc.c, axis, neg, ok, tc.axis, tc.neg, tc.ok)
		}
	}
}

func TestTrapped(t *testing.T) {
	// Message in the -Y shadow: trapped iff dest beyond +Y with x,z inside
	// the span.
	if !Trapped(fig1Box, grid.Coord{4, 9, 3}, 1, true) {
		t.Error("dest straight across must be trapped")
	}
	if Trapped(fig1Box, grid.Coord{8, 9, 3}, 1, true) {
		t.Error("dest outside x-span must not be trapped")
	}
	if Trapped(fig1Box, grid.Coord{4, 2, 3}, 1, true) {
		t.Error("dest on the same side must not be trapped")
	}
	if Trapped(fig1Box, grid.Coord{4, 6, 3}, 1, true) {
		t.Error("dest inside the block span on y must not be trapped")
	}
	// +Y shadow: trapped iff dest below the block.
	if !Trapped(fig1Box, grid.Coord{4, 2, 3}, 1, false) {
		t.Error("dest below must trap a +Y shadow message")
	}
}

// stabilized builds a mesh with the Figure 1 faults and full labeling.
func stabilized(t *testing.T) *mesh.Mesh {
	t.Helper()
	m, err := mesh.NewUniform(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []grid.Coord{{3, 5, 4}, {4, 5, 4}, {5, 5, 3}, {3, 6, 3}} {
		m.FailAt(c)
	}
	block.StabilizeFull(m)
	return m
}

// TestDepositFloodCoversPlacement: a deposit construction seeded at one
// corner must reach exactly the enabled placement nodes.
func TestDepositFloodCoversPlacement(t *testing.T) {
	m := stabilized(t)
	store := info.NewStore(m.NumNodes())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{6, 4, 5})
	p.Start(fig1Box, 1, Deposit, []grid.NodeID{corner})
	rounds := 0
	for !p.Quiescent() {
		p.Round()
		rounds++
		if rounds > 500 {
			t.Fatal("flood did not terminate")
		}
	}
	for _, id := range Placement(m.Shape(), fig1Box) {
		if m.Status(id) != mesh.Enabled {
			continue
		}
		if !store.Has(id, fig1Box) {
			t.Fatalf("placement node %v lacks record", m.Shape().CoordOf(id))
		}
	}
	// And nothing outside the placement holds it.
	for id := 0; id < m.NumNodes(); id++ {
		c := m.Shape().CoordOf(grid.NodeID(id))
		if !OnPlacement(fig1Box, c) && store.Has(grid.NodeID(id), fig1Box) {
			t.Fatalf("non-placement node %v holds record", c)
		}
	}
	t.Logf("flood covered placement in %d rounds, %d hops", rounds, p.Hops)
}

// TestCancelRemovesRecords: a cancel construction with a newer epoch clears
// the deposit.
func TestCancelRemovesRecords(t *testing.T) {
	m := stabilized(t)
	store := info.NewStore(m.NumNodes())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{6, 4, 5})
	p.Start(fig1Box, 1, Deposit, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	if store.TotalRecords() == 0 {
		t.Fatal("deposit empty")
	}
	p.Start(fig1Box, 2, Cancel, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	if store.TotalRecords() != 0 {
		t.Fatalf("%d records survive cancellation", store.TotalRecords())
	}
}

// TestCancelEpochGuard: a stale cancel (epoch older than the deposit) must
// not erase newer information.
func TestCancelEpochGuard(t *testing.T) {
	m := stabilized(t)
	store := info.NewStore(m.NumNodes())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{6, 4, 5})
	p.Start(fig1Box, 5, Deposit, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	total := store.TotalRecords()
	p.Start(fig1Box, 3, Cancel, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	if store.TotalRecords() != total {
		t.Fatalf("stale cancel removed records: %d -> %d", total, store.TotalRecords())
	}
}

// TestMergeFigure3d: when block A's boundary runs into block B, A's record
// must spread over B's adjacent surfaces and boundary (the merge of Figure
// 3(d)). Setup in 2-D: A's wall along -Y from its left edge passes through
// B's frame.
func TestMergeFigure3d(t *testing.T) {
	m, err := mesh.NewUniform(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Block A at [6:7, 8:9]; block B at [5:5, 4:4] sits exactly on A's
	// x=5 wall (lo-1) below A.
	for _, c := range []grid.Coord{{6, 8}, {7, 9}, {5, 4}} {
		m.FailAt(c)
	}
	block.StabilizeFull(m)
	bs := block.Extract(m)
	if len(bs) != 2 {
		t.Fatalf("want 2 blocks, got %+v", bs)
	}
	boxA := grid.NewBox(grid.Coord{6, 8}, grid.Coord{7, 9})
	boxB := grid.NewBox(grid.Coord{5, 4}, grid.Coord{5, 4})

	store := info.NewStore(m.NumNodes())
	p := NewProtocol(m, store)
	// B's construction runs first (it exists; its records are in place).
	cornerB := m.Shape().Index(grid.Coord{4, 3})
	p.Start(boxB, 1, Deposit, []grid.NodeID{cornerB})
	for !p.Quiescent() {
		p.Round()
	}
	// Now A's construction: its x=5 wall descends into B's placement.
	cornerA := m.Shape().Index(grid.Coord{5, 7})
	p.Start(boxA, 2, Deposit, []grid.NodeID{cornerA})
	for !p.Quiescent() {
		p.Round()
	}
	// A's record must have merged onto B's adjacent surface nodes beyond
	// the original wall (the wall stops at B's frame; the merge carries it
	// around B).
	mergedNodes := []grid.Coord{
		{4, 4}, // B-adjacent, on the far side of B from A's wall
		{5, 3}, // B-adjacent below B
	}
	for _, c := range mergedNodes {
		if !store.Has(m.Shape().Index(c), boxA) {
			t.Errorf("merge did not carry A's record to %v", c)
		}
	}
	// And B's boundary below continues to carry A's record (merged into
	// the boundary for the same surface of the second block).
	if !store.Has(m.Shape().Index(grid.Coord{4, 2}), boxA) {
		t.Errorf("A's record did not descend B's boundary")
	}
}

// TestWallStopsAtMeshBorder: boundary propagation ends at the outermost
// surface (no wraparound, no overflow).
func TestWallStopsAtMeshBorder(t *testing.T) {
	m, _ := mesh.NewUniform(2, 8)
	m.FailAt(grid.Coord{4, 4})
	block.StabilizeFull(m)
	box := grid.BoxAt(grid.Coord{4, 4})
	store := info.NewStore(m.NumNodes())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{3, 3})
	p.Start(box, 1, Deposit, []grid.NodeID{corner})
	rounds := 0
	for !p.Quiescent() {
		p.Round()
		rounds++
		if rounds > 200 {
			t.Fatal("flood did not stop")
		}
	}
	// Wall x=3 must reach y=0 and y=7 (the borders) and hold records.
	for _, c := range []grid.Coord{{3, 0}, {3, 7}, {5, 0}, {5, 7}, {0, 3}, {7, 5}} {
		if !store.Has(m.Shape().Index(c), box) {
			t.Errorf("border wall node %v lacks record", c)
		}
	}
}

// TestConstructionRoundsTrackDepth: the flood advances one hop per round,
// so rounds scale with shell + wall depth, not with mesh volume.
func TestConstructionRoundsTrackDepth(t *testing.T) {
	m, _ := mesh.NewUniform(2, 20)
	m.FailAt(grid.Coord{10, 10})
	block.StabilizeFull(m)
	box := grid.BoxAt(grid.Coord{10, 10})
	store := info.NewStore(m.NumNodes())
	p := NewProtocol(m, store)
	corner := m.Shape().Index(grid.Coord{9, 9})
	c := p.Start(box, 1, Deposit, []grid.NodeID{corner})
	for !p.Quiescent() {
		p.Round()
	}
	// Longest chain: around the shell (a few hops) then down a wall to the
	// border (about 10 hops); must be well under the mesh diameter * 2.
	if c.Rounds > 2*m.Shape().Diameter() {
		t.Fatalf("flood took %d rounds", c.Rounds)
	}
	if c.Rounds < 9 {
		t.Fatalf("flood too fast to be hop-by-hop: %d rounds", c.Rounds)
	}
}

// TestPlacementMatchesPredicate4D verifies the wall geometry in 4-D, where
// the walls are 3-dimensional regions rather than the rays of the paper's
// 3-D figures.
func TestPlacementMatchesPredicate4D(t *testing.T) {
	shape := grid.MustShape(7, 7, 7, 7)
	box := grid.NewBox(grid.Coord{3, 3, 3, 3}, grid.Coord{4, 4, 3, 3})
	ids := Placement(shape, box)
	inPlacement := make(map[grid.NodeID]bool, len(ids))
	for _, id := range ids {
		inPlacement[id] = true
	}
	for id := 0; id < shape.NumNodes(); id++ {
		c := shape.CoordOf(grid.NodeID(id))
		if inPlacement[grid.NodeID(id)] != OnPlacement(box, c) {
			t.Fatalf("4-D placement mismatch at %v", c)
		}
	}
	// A few hand-computed members: wall on axis 0 (lateral) guarding the
	// -axis1 shadow: x0 = lo0-1 = 2, x1 < lo1-1, x2/x3 in span.
	for _, c := range []grid.Coord{
		{2, 0, 3, 3}, {5, 1, 3, 3}, // axis-0 walls of the axis-1 shadow
		{3, 2, 2, 3}, // axis-2 wall of the axis-1 shadow? x2=2=lo2-1, x1=2<lo1-1? lo1-1=2 -> x1 must be < 2
	} {
		want := OnWall(box, c)
		if !inPlacement[shape.Index(c)] && want {
			t.Fatalf("wall node %v missing from placement", c)
		}
	}
	// The deep diagonal region is never placement.
	if OnPlacement(box, grid.Coord{0, 0, 0, 0}) {
		t.Fatal("diagonal corner region misclassified")
	}
}

// TestFloodCoversPlacement4D runs the flood in 4-D.
func TestFloodCoversPlacement4D(t *testing.T) {
	shape := grid.MustShape(7, 7, 7, 7)
	m := mesh.New(shape)
	m.FailAt(grid.Coord{3, 3, 3, 3})
	m.FailAt(grid.Coord{4, 4, 3, 3})
	block.StabilizeFull(m)
	box := grid.NewBox(grid.Coord{3, 3, 3, 3}, grid.Coord{4, 4, 3, 3})
	store := info.NewStore(m.NumNodes())
	p := NewProtocol(m, store)
	corner := shape.Index(grid.Coord{2, 2, 2, 2})
	p.Start(box, 1, Deposit, []grid.NodeID{corner})
	rounds := 0
	for !p.Quiescent() {
		p.Round()
		rounds++
		if rounds > 2000 {
			t.Fatal("4-D flood did not terminate")
		}
	}
	for _, id := range Placement(shape, box) {
		if m.Status(id) == mesh.Enabled && !store.Has(id, box) {
			t.Fatalf("4-D placement node %v lacks record", shape.CoordOf(id))
		}
	}
}

// TestShellIsSubsetOfPlacement cross-checks frame and boundary geometry.
func TestShellIsSubsetOfPlacement(t *testing.T) {
	frame.EachShellNode(fig1Box, func(c grid.Coord, level int) {
		if !OnPlacement(fig1Box, c) {
			t.Fatalf("shell node %v not on placement", c)
		}
	})
}

// refConstruction and refProtocol are the flood as it was before the
// placement marks: a visited map checked at visit time, and a region test
// that runs OnPlacement over every base for each neighbour of each visited
// node, so a node is re-tested (and may be re-appended) once per visited
// neighbour. TestFloodMatchesReference runs it beside Protocol.
type refConstruction struct {
	box      grid.Box
	epoch    uint32
	op       Op
	regions  []grid.Box
	frontier []grid.NodeID
	next     []grid.NodeID
	visited  map[grid.NodeID]struct{}
	rounds   int
}

type refProtocol struct {
	m     *mesh.Mesh
	store *info.Store
	cons  []*refConstruction
	hops  int
}

func (p *refProtocol) start(box grid.Box, epoch uint32, op Op, seeds []grid.NodeID) {
	p.cons = append(p.cons, &refConstruction{
		box: box.Clone(), epoch: epoch, op: op,
		regions:  []grid.Box{box.Clone()},
		frontier: append([]grid.NodeID(nil), seeds...),
		visited:  make(map[grid.NodeID]struct{}),
	})
}

func (p *refProtocol) round() int {
	visits := 0
	kept := p.cons[:0]
	for _, c := range p.cons {
		visits += p.roundOne(c)
		if len(c.frontier) > 0 {
			kept = append(kept, c)
		}
	}
	p.cons = kept
	p.hops += visits
	return visits
}

func (c *refConstruction) inRegion(cd grid.Coord) bool {
	for _, b := range c.regions {
		if OnPlacement(b, cd) {
			return true
		}
	}
	return false
}

func (c *refConstruction) extendRegion(b grid.Box) {
	for _, r := range c.regions {
		if r.Equal(b) {
			return
		}
	}
	c.regions = append(c.regions, b.Clone())
}

func (p *refProtocol) roundOne(c *refConstruction) int {
	next := c.next[:0]
	visits := 0
	shape := p.m.Shape()
	for _, id := range c.frontier {
		if _, dup := c.visited[id]; dup {
			continue
		}
		c.visited[id] = struct{}{}
		if p.m.Status(id) != mesh.Enabled {
			continue
		}
		visits++
		switch c.op {
		case Deposit:
			p.store.Add(id, info.Record{Box: c.box, Epoch: c.epoch})
		case Cancel:
			p.store.Remove(id, c.box, c.epoch)
		}
		cd := shape.CoordOf(id)
		for _, r := range p.store.At(id) {
			if r.Box.Equal(c.box) {
				continue
			}
			if _, onFrame := frame.Level(r.Box, cd); onFrame {
				c.extendRegion(r.Box)
			}
		}
		for d := 0; d < shape.NumDirs(); d++ {
			nb := p.m.Neighbor(id, grid.Dir(d))
			if nb == grid.InvalidNode {
				continue
			}
			if _, dup := c.visited[nb]; dup {
				continue
			}
			if c.op == Cancel && p.store.Has(nb, c.box) {
				next = append(next, nb)
				continue
			}
			if c.inRegion(shape.CoordOf(nb)) {
				next = append(next, nb)
			}
		}
	}
	c.next = c.frontier[:0]
	c.frontier = next
	c.rounds++
	return visits
}

// liveFront is the part of a flood front that a round will actually
// visit: first occurrences of nodes not yet processed, in front order.
func liveFront(front []grid.NodeID, done func(grid.NodeID) bool) []grid.NodeID {
	seen := make(map[grid.NodeID]bool)
	var out []grid.NodeID
	for _, id := range front {
		if done(id) || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

// floodPair drives Protocol and the reference flood with identical
// starts over one mesh, each with its own store, and compares them after
// every round.
type floodPair struct {
	t     *testing.T
	m     *mesh.Mesh
	p     *Protocol
	store *info.Store
	ref   *refProtocol
	// Coverage counts over the run: reference rounds whose front held only
	// stale copies (the idle round), and merges (region bases beyond the
	// first) seen in the reference.
	idle, merges int
}

func newFloodPair(t *testing.T, m *mesh.Mesh) *floodPair {
	store := info.NewStore(m.NumNodes())
	return &floodPair{
		t: t, m: m,
		p: NewProtocol(m, store), store: store,
		ref: &refProtocol{m: m, store: info.NewStore(m.NumNodes())},
	}
}

func (f *floodPair) start(box grid.Box, epoch uint32, op Op, seeds []grid.NodeID) {
	f.p.Start(box, epoch, op, seeds)
	f.ref.start(box, epoch, op, seeds)
}

func (f *floodPair) round(label string) {
	f.t.Helper()
	for _, c := range f.ref.cons {
		if len(c.frontier) > 0 && len(liveFront(c.frontier, refDone(c))) == 0 {
			f.idle++
		}
	}
	got, want := f.p.Round(), f.ref.round()
	if got != want {
		f.t.Fatalf("%s: round visits %d, reference %d", label, got, want)
	}
	if f.p.Hops != f.ref.hops {
		f.t.Fatalf("%s: Hops %d, reference %d", label, f.p.Hops, f.ref.hops)
	}
	if len(f.p.cons) != len(f.ref.cons) {
		f.t.Fatalf("%s: %d constructions in flight, reference %d", label, len(f.p.cons), len(f.ref.cons))
	}
	for i, c := range f.p.cons {
		r := f.ref.cons[i]
		if c.Rounds != r.rounds || c.Op != r.op || c.Epoch != r.epoch || !c.Box.Equal(r.box) {
			f.t.Fatalf("%s: construction %d is %v/%d/%d rounds=%d, reference %v/%d/%d rounds=%d",
				label, i, c.Box, c.Op, c.Epoch, c.Rounds, r.box, r.op, r.epoch, r.rounds)
		}
		done := func(id grid.NodeID) bool { w, bit := c.word(id); return w.done&bit != 0 }
		stale := 0
		for _, id := range c.frontier {
			if done(id) {
				stale++
			}
		}
		gotFront, wantFront := liveFront(c.frontier, done), liveFront(r.frontier, refDone(r))
		if stale > 1 || len(gotFront)+stale != len(c.frontier) {
			f.t.Fatalf("%s: construction %d front %v holds repeats", label, i, c.frontier)
		}
		if !slices.Equal(gotFront, wantFront) {
			f.t.Fatalf("%s: construction %d front %v, reference %v", label, i, gotFront, wantFront)
		}
		if len(c.regions) != len(r.regions) {
			f.t.Fatalf("%s: construction %d has %d region bases, reference %d", label, i, len(c.regions), len(r.regions))
		}
		f.merges += len(r.regions) - 1
	}
	for id := 0; id < f.m.NumNodes(); id++ {
		got, want := f.store.At(grid.NodeID(id)), f.ref.store.At(grid.NodeID(id))
		if !slices.EqualFunc(got, want, func(a, b info.Record) bool {
			return a.Box.Equal(b.Box) && a.Epoch == b.Epoch
		}) {
			f.t.Fatalf("%s: node %v holds %v, reference %v", label, f.m.Shape().CoordOf(grid.NodeID(id)), got, want)
		}
	}
}

func refDone(c *refConstruction) func(grid.NodeID) bool {
	return func(id grid.NodeID) bool { _, ok := c.visited[id]; return ok }
}

// shellSeeds picks one to three frame-shell nodes of box inside the mesh,
// with repeats allowed: mixed-parity seeds put neighbours into one front
// and repeats exercise the done mark.
func shellSeeds(r *rng.Source, shape *grid.Shape, box grid.Box) []grid.NodeID {
	var shell []grid.NodeID
	frame.EachShellNode(box, func(c grid.Coord, _ int) {
		if shape.Contains(c) {
			shell = append(shell, shape.Index(c))
		}
	})
	var seeds []grid.NodeID
	for k := 1 + r.Intn(3); k > 0 && len(shell) > 0; k-- {
		seeds = append(seeds, shell[r.Intn(len(shell))])
	}
	return seeds
}

// TestFloodMatchesReference is the differential test of the flood: over
// random live fail/repair sequences in 2-D, 3-D and 4-D, deposits,
// merges (Fig. 3(d)), cancellations of vanished blocks and epoch-guarded
// stale cancellations overlap in flight, and after every round Protocol
// must match the map-based reference in visits, Hops, each construction's
// rounds, region bases and live front, and every node's record list.
func TestFloodMatchesReference(t *testing.T) {
	cases := []struct {
		dims   []int
		events int
	}{
		{[]int{12, 12}, 40},
		{[]int{7, 7, 7}, 30},
		{[]int{5, 5, 5, 5}, 24},
	}
	var idle, merges, cancels, guarded int
	for _, tc := range cases {
		for seed := uint64(1); seed <= 6; seed++ {
			r := rng.New(seed)
			shape := grid.MustShape(tc.dims...)
			m := mesh.New(shape)
			f := newFloodPair(t, m)
			type standing struct {
				box   grid.Box
				epoch uint32
			}
			built := make(map[string]standing)
			epoch := uint32(0)
			for ev := 0; ev < tc.events; ev++ {
				label := fmt.Sprintf("%v seed %d event %d", shape, seed, ev)
				id := grid.NodeID(r.Intn(shape.NumNodes()))
				switch {
				case m.Status(id) == mesh.Faulty && (ev >= tc.events/2 || r.Bool(0.2)):
					m.Recover(id)
				case m.Status(id) == mesh.Enabled && ev < 3*tc.events/4:
					m.Fail(id)
				}
				block.StabilizeFull(m)
				current := make(map[string]bool)
				for _, b := range block.Extract(m) {
					key := b.Box.String()
					current[key] = true
					if _, ok := built[key]; ok {
						continue
					}
					epoch++
					built[key] = standing{b.Box, epoch}
					f.start(b.Box, epoch, Deposit, shellSeeds(r, shape, b.Box))
				}
				for _, key := range slices.Sorted(maps.Keys(built)) {
					s := built[key]
					switch {
					case !current[key]:
						epoch++
						f.start(s.box, epoch, Cancel, shellSeeds(r, shape, s.box))
						delete(built, key)
						cancels++
					case r.Bool(0.1):
						// A stale cancel: the epoch guard keeps the
						// standing block's records.
						f.start(s.box, s.epoch, Cancel, shellSeeds(r, shape, s.box))
						guarded++
					}
				}
				for k := r.Intn(4); k > 0; k-- {
					f.round(label)
				}
			}
			for rounds := 0; !f.p.Quiescent() || len(f.ref.cons) > 0; rounds++ {
				if rounds > 10*shape.NumNodes() {
					t.Fatalf("%v seed %d: floods did not drain", shape, seed)
				}
				f.round(shape.String() + " drain")
			}
			idle += f.idle
			merges += f.merges
		}
	}
	t.Logf("idle rounds %d, merged region-rounds %d, cancels %d, stale cancels %d", idle, merges, cancels, guarded)
	if idle == 0 || merges == 0 || cancels == 0 || guarded == 0 {
		t.Fatalf("scenarios missed a case: idle rounds %d, merges %d, cancels %d, stale cancels %d",
			idle, merges, cancels, guarded)
	}
}

// TestPlacementMarksMatchOnPlacement: the place marks a construction
// starts with equal OnPlacement at every node, for random boxes in 2-D,
// 3-D and 4-D, many of them clipped at the mesh border. Constructions are
// recycled between boxes, so this also pins that reuse clears the marks
// of the previous flood.
func TestPlacementMarksMatchOnPlacement(t *testing.T) {
	r := rng.New(11)
	for _, dims := range [][]int{{9, 6}, {6, 5, 7}, {5, 4, 5, 4}} {
		shape := grid.MustShape(dims...)
		m := mesh.New(shape)
		p := NewProtocol(m, info.NewStore(m.NumNodes()))
		clipped := 0
		for trial := 0; trial < 200; trial++ {
			box := grid.Box{Lo: make(grid.Coord, len(dims)), Hi: make(grid.Coord, len(dims))}
			border := false
			for i, k := range dims {
				box.Lo[i] = r.Intn(k)
				box.Hi[i] = min(box.Lo[i]+r.Intn(3), k-1)
				border = border || box.Lo[i] == 0 || box.Hi[i] == k-1
			}
			if border {
				clipped++
			}
			c := p.Start(box, 1, Deposit, nil)
			for id := 0; id < shape.NumNodes(); id++ {
				w, bit := c.word(grid.NodeID(id))
				cd := shape.CoordOf(grid.NodeID(id))
				if got, want := w.place&bit != 0, OnPlacement(box, cd); got != want {
					t.Fatalf("%v box %v: place mark at %v = %v, OnPlacement %v", shape, box, cd, got, want)
				}
				if w.queued&bit != 0 || w.done&bit != 0 {
					t.Fatalf("%v box %v: unseeded flood has queue marks at %v", shape, box, cd)
				}
			}
			p.Round() // empty front: retires c onto the free list for the next box
		}
		if clipped == 0 || len(p.spare) != 1 {
			t.Fatalf("%v: %d clipped boxes, %d spare constructions", shape, clipped, len(p.spare))
		}
	}
}

// TestBoundaryRoundAllocFree: a warm protocol cycling deposit, merge and
// cancel floods allocates nothing — Start recycles constructions and
// their marks, and rounds run in the double-buffered fronts.
func TestBoundaryRoundAllocFree(t *testing.T) {
	// The Figure 3(d) setup of TestMergeFigure3d: A's wall runs into B.
	m, err := mesh.NewUniform(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []grid.Coord{{6, 8}, {7, 9}, {5, 4}} {
		m.FailAt(c)
	}
	block.StabilizeFull(m)
	boxA := grid.NewBox(grid.Coord{6, 8}, grid.Coord{7, 9})
	boxB := grid.NewBox(grid.Coord{5, 4}, grid.Coord{5, 4})
	seedA := []grid.NodeID{m.Shape().Index(grid.Coord{5, 7})}
	seedB := []grid.NodeID{m.Shape().Index(grid.Coord{4, 3})}
	merged := m.Shape().Index(grid.Coord{4, 4})
	store := info.NewStore(m.NumNodes())
	p := NewProtocol(m, store)
	epoch := uint32(0)
	drain := func() {
		for !p.Quiescent() {
			p.Round()
		}
	}
	ok := true
	cycle := func() {
		epoch++
		p.Start(boxB, epoch, Deposit, seedB)
		drain()
		epoch++
		p.Start(boxA, epoch, Deposit, seedA)
		drain()
		ok = ok && store.Has(merged, boxA)
		epoch++
		p.Start(boxA, epoch, Cancel, seedA)
		p.Start(boxB, epoch, Cancel, seedB)
		drain()
		ok = ok && store.TotalRecords() == 0
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(50, cycle)
	if !ok {
		t.Fatal("cycle did not merge A into B's placement and cancel both")
	}
	if allocs != 0 {
		t.Fatalf("warm boundary flood cycle allocates %.1f allocs/op, want 0", allocs)
	}
}
