package route

import (
	"fmt"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
)

// fakeLoad is a deterministic, nonuniform LoadView, so Congested's
// tie-breaking actually deviates from Limited's.
type fakeLoad struct{}

func (fakeLoad) Resident(id grid.NodeID) int { return int(id) % 3 }
func (fakeLoad) LinkPending(from grid.NodeID, dir grid.Dir) int {
	return (int(from) + int(dir)) % 4
}

// TestSharedScratchMatchesPrivate drives two identical message fleets over
// the same faulty mesh and record store: one whose contexts are literals
// without a Scratch (each allocates a private one) and one whose contexts
// all share a single Scratch, their decisions interleaved message by
// message. Every message must take the same decisions in both fleets, so
// no decision may read scratch state another message's decision left
// behind — for every router, from 2-D to 5-D, with records present.
func TestSharedScratchMatchesPrivate(t *testing.T) {
	meshes := []struct {
		dims   []int
		faults []grid.Coord
	}{
		{[]int{9, 9}, []grid.Coord{{4, 4}, {5, 4}, {4, 5}}},
		{[]int{6, 6, 6}, []grid.Coord{{2, 2, 2}, {3, 2, 2}}},
		{[]int{4, 4, 4, 4}, []grid.Coord{{1, 1, 1, 1}, {2, 1, 1, 1}}},
		{[]int{3, 3, 3, 3, 3}, []grid.Coord{{1, 1, 1, 1, 1}}},
	}
	routers := map[string]func() Router{
		"limited":   func() Router { return Limited{} },
		"blind":     func() Router { return Blind{} },
		"dor":       func() Router { return DOR{} },
		"congested": func() Router { return Congested{Cfg: CongestionConfig{Eager: true}} },
		"oracle":    func() Router { return &Oracle{} },
	}
	for _, mc := range meshes {
		for _, name := range []string{"limited", "blind", "dor", "congested", "oracle"} {
			t.Run(fmt.Sprintf("%dD/%s", len(mc.dims), name), func(t *testing.T) {
				base, m := env(t, mc.dims, mc.faults)
				if base.Store.TotalRecords() == 0 {
					t.Fatal("no records deposited: the scenario does not exercise them")
				}
				n := m.NumNodes()
				r := rng.New(uint64(len(mc.dims)))
				shared := &Scratch{}
				var privCtx, sharedCtx []*Context
				var privMsg, sharedMsg []*Message
				for len(privMsg) < 24 {
					src, dst := grid.NodeID(r.Intn(n)), grid.NodeID(r.Intn(n))
					if src == dst || m.Status(src) != mesh.Enabled || m.Status(dst) != mesh.Enabled {
						continue
					}
					privCtx = append(privCtx, &Context{M: m, Store: base.Store, Load: fakeLoad{}})
					sharedCtx = append(sharedCtx, &Context{M: m, Store: base.Store, Load: fakeLoad{}, Scratch: shared})
					privMsg = append(privMsg, NewMessage(src, dst))
					sharedMsg = append(sharedMsg, NewMessage(src, dst))
				}
				privR, sharedR := routers[name](), routers[name]()
				// Deny every fifth traversal so messages also stall and
				// re-decide at the same node.
				mkGate := func() Gate {
					k := 0
					return func(grid.NodeID, grid.Dir) bool { k++; return k%5 != 0 }
				}
				privGate, sharedGate := mkGate(), mkGate()
				decisions := 0
				for round := 0; round < 200; round++ {
					for i := range privMsg {
						a, b := privMsg[i], sharedMsg[i]
						if a.Done() {
							continue
						}
						da, db := privR.Decide(privCtx[i], a), sharedR.Decide(sharedCtx[i], b)
						if da != db {
							t.Fatalf("round %d message %d: private scratch decides %+v, shared %+v", round, i, da, db)
						}
						decisions++
						AdvanceGated(privCtx[i], privR, a, privGate)
						AdvanceGated(sharedCtx[i], sharedR, b, sharedGate)
						as := fmt.Sprintf("%v in=%v waits=%d", a, a.Incoming, a.Waits)
						bs := fmt.Sprintf("%v in=%v waits=%d", b, b.Incoming, b.Waits)
						if as != bs {
							t.Fatalf("round %d message %d diverged:\n private %s\n shared  %s", round, i, as, bs)
						}
					}
				}
				if decisions < 100 {
					t.Fatalf("only %d decisions compared", decisions)
				}
				if name == "oracle" {
					return // Oracle keeps its own state and never touches the scratch
				}
				for i, ctx := range privCtx {
					if ctx.Scratch == nil || ctx.Scratch == shared {
						t.Fatalf("context %d: a literal without Scratch must get a private one", i)
					}
					if i > 0 && ctx.Scratch == privCtx[i-1].Scratch {
						t.Fatalf("contexts %d and %d share a private scratch", i-1, i)
					}
				}
			})
		}
	}
}

// TestReusedContextDecidesAllocFree pins the recycling half of the
// scratch split: a context reused for message after message — as a
// recycled engine flight is — keeps its destination buffer and shares a
// warm scratch, so routing a new flight allocates nothing.
func TestReusedContextDecidesAllocFree(t *testing.T) {
	base, m := env(t, []int{8, 8, 8}, []grid.Coord{{3, 3, 3}, {4, 3, 3}})
	shape := m.Shape()
	ctx := &Context{M: m, Store: base.Store, Scratch: &Scratch{}}
	msg := NewMessage(0, 1)
	pairs := [][2]grid.Coord{{{0, 0, 0}, {7, 7, 7}}, {{7, 0, 7}, {0, 7, 0}}, {{1, 6, 2}, {6, 1, 5}}}
	k := 0
	fly := func() {
		p := pairs[k%len(pairs)]
		k++
		msg.Reset(shape.Index(p[0]), shape.Index(p[1]))
		for Advance(ctx, Limited{}, msg) {
		}
		if !msg.Arrived {
			t.Fatalf("message did not arrive: %v", msg)
		}
	}
	for i := 0; i < len(pairs); i++ {
		fly()
	}
	if allocs := testing.AllocsPerRun(30, fly); allocs != 0 {
		t.Fatalf("a reused context allocates %.1f/flight, want 0", allocs)
	}
}

// TestVisitFilterCollisions pins the used-list filter: ids that share a
// filter bit must not answer for each other, and every lookup must agree
// with a plain scan of the list.
func TestVisitFilterCollisions(t *testing.T) {
	m := mesh.New(grid.MustShape(16, 16))
	shape := m.Shape()
	ctx := &Context{M: m}
	a := shape.Index(grid.Coord{3, 2})
	b := grid.InvalidNode
	for id := a + 1; int(id) < shape.NumNodes(); id++ {
		if seenBit(id) == seenBit(a) && m.Neighbor(id, grid.DirPlus(1)) != grid.InvalidNode {
			b = id
			break
		}
	}
	if b == grid.InvalidNode {
		t.Fatal("test setup: no id shares a's filter bit")
	}
	msg := NewMessage(a, shape.Index(grid.Coord{15, 15}))
	msg.applyMove(ctx, grid.DirPlus(0))
	if got := msg.Used(a); got != grid.DirSet(0).Add(grid.DirPlus(0)) {
		t.Fatalf("Used(a) = %v after one move out of a", got)
	}
	if got := msg.visitAt(b); got != -1 {
		t.Fatalf("visitAt(b) = %d with only a visited; the colliding bit must not answer for b", got)
	}
	msg.Cur = b
	msg.applyMove(ctx, grid.DirPlus(1))
	if msg.Used(b) != grid.DirSet(0).Add(grid.DirPlus(1)) || msg.Used(a) != grid.DirSet(0).Add(grid.DirPlus(0)) {
		t.Fatalf("colliding entries mixed up: Used(a)=%v Used(b)=%v", msg.Used(a), msg.Used(b))
	}

	// Random walks over a 16x16 mesh (256 ids, about 4 per filter bit)
	// against the unfiltered scan.
	scan := func(msg *Message, id grid.NodeID) int {
		for i := len(msg.visits) - 1; i >= 0; i-- {
			if msg.visits[i].id == id {
				return i
			}
		}
		return -1
	}
	r := rng.New(3)
	for walk := 0; walk < 50; walk++ {
		msg.Reset(grid.NodeID(r.Intn(shape.NumNodes())), 0)
		for hop := 0; hop < 60; hop++ {
			dir := grid.Dir(r.Intn(shape.NumDirs()))
			if m.Neighbor(msg.Cur, dir) == grid.InvalidNode {
				continue
			}
			msg.applyMove(ctx, dir)
			for id := 0; id < shape.NumNodes(); id++ {
				if got, want := msg.visitAt(grid.NodeID(id)), scan(msg, grid.NodeID(id)); got != want {
					t.Fatalf("walk %d hop %d: visitAt(%d) = %d, scan says %d", walk, hop, id, got, want)
				}
			}
		}
	}
}
