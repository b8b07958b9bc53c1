package route

import (
	"fmt"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
)

// freshAdvance is AdvanceGated with a fresh Decide on every call: the
// reference the memoized path must match step for step.
func freshAdvance(ctx *Context, r Router, msg *Message, gate Gate) bool {
	if msg.Done() {
		return false
	}
	msg.Steps++
	if msg.Cur == msg.Dst {
		msg.Arrived = true
		return false
	}
	return commitDecision(ctx, msg, r.Decide(ctx, msg), gate)
}

// TestDecideMemoMatchesFresh drives two identical messages over a shared
// mesh and store under a deny-every-third gate, one through AdvanceGated
// (memoized) and one deciding afresh every step, while the test flips node
// statuses and deposits, removes and clears records at random between
// steps. Before every step the memoized decision must equal a fresh
// Decide, and the two messages must stay in identical observable state.
func TestDecideMemoMatchesFresh(t *testing.T) {
	for _, name := range []string{"limited", "blind", "dor"} {
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				r, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				base, m := env(t, []int{10, 10}, []grid.Coord{{4, 4}, {5, 4}, {4, 5}})
				shape := m.Shape()
				store := base.Store
				ctxA := &Context{M: m, Store: store}
				ctxB := &Context{M: m, Store: store}
				src, dst := shape.Index(grid.Coord{1, 1}), shape.Index(grid.Coord{8, 8})
				msgA, msgB := NewMessage(src, dst), NewMessage(src, dst)
				mkGate := func() Gate {
					n := 0
					return func(grid.NodeID, grid.Dir) bool {
						n++
						return n%3 != 0
					}
				}
				gateA, gateB := mkGate(), mkGate()
				rnd := rng.New(seed)
				box := grid.NewBox(grid.Coord{5, 2}, grid.Coord{6, 7})
				for step := 0; step < 300; step++ {
					switch x := rnd.Intn(10); {
					case x < 2:
						// Flip an interior node other than the endpoints and
						// the message's own position.
						c := grid.Coord{1 + rnd.Intn(8), 1 + rnd.Intn(8)}
						id := shape.Index(c)
						if id != src && id != dst && id != msgA.Cur {
							if m.Status(id) == mesh.Faulty {
								m.SetStatus(id, mesh.Enabled)
							} else {
								m.SetStatus(id, mesh.Faulty)
							}
						}
					case x == 2:
						store.Add(msgA.Cur, info.Record{Box: box, Epoch: uint32(step + 1)})
					case x == 3:
						store.Remove(msgA.Cur, box, uint32(step+1))
					case x == 4 && step%5 == 0:
						store.Clear()
					}
					if !msgA.Done() && msgA.Cur != msgA.Dst {
						if got, want := DecideMemo(ctxA, r, msgA), r.Decide(ctxA, msgA); got != want {
							t.Fatalf("step %d: memoized %+v, fresh %+v", step, got, want)
						}
					}
					stillA := AdvanceGated(ctxA, r, msgA, gateA)
					stillB := freshAdvance(ctxB, r, msgB, gateB)
					a := fmt.Sprintf("%v waits=%d stalled=%v in=%v", msgA, msgA.Waits, msgA.Stalled(), msgA.Incoming)
					b := fmt.Sprintf("%v waits=%d stalled=%v in=%v", msgB, msgB.Waits, msgB.Stalled(), msgB.Incoming)
					if stillA != stillB || a != b {
						t.Fatalf("step %d diverged:\n memo  %s\n fresh %s", step, a, b)
					}
					if !stillA {
						break
					}
				}
			})
		}
	}
}

// TestDecideMemoInvalidation pins every input a memoized Limited decision
// is keyed on. A flight at (2,2) bound for (8,2) is stalled by a gate that
// denies everything; its memo is then poisoned, so a hit is observable:
// while nothing changes DecideMemo must hand the poison back without
// deciding, and after each mutation it must re-decide — returning exactly
// a fresh Decide, which differs from the decision the flight stalled on.
func TestDecideMemoInvalidation(t *testing.T) {
	shape := grid.MustShape(10, 10)
	u, dst := shape.Index(grid.Coord{2, 2}), shape.Index(grid.Coord{8, 2})
	east := shape.Index(grid.Coord{3, 2})
	// The box's -X wall holds (3,2) in its shadow with (8,2) trapped beyond
	// it, so a record of it at u demotes the preferred +X step.
	rec := info.Record{Box: grid.NewBox(grid.Coord{4, 1}, grid.Coord{6, 5}), Epoch: 1}
	deny := func(grid.NodeID, grid.Dir) bool { return false }
	poison := Decision{Fail: true}

	for _, tc := range []struct {
		name   string
		setup  func(m *mesh.Mesh, s *info.Store)
		mutate func(m *mesh.Mesh, s *info.Store)
	}{
		{"chosen neighbour fails",
			func(*mesh.Mesh, *info.Store) {},
			func(m *mesh.Mesh, _ *info.Store) { m.SetStatus(east, mesh.Faulty) }},
		{"record demotes preferred",
			func(*mesh.Mesh, *info.Store) {},
			func(_ *mesh.Mesh, s *info.Store) { s.Add(u, rec) }},
		{"record removed",
			func(_ *mesh.Mesh, s *info.Store) { s.Add(u, rec) },
			func(_ *mesh.Mesh, s *info.Store) { s.Remove(u, rec.Box, rec.Epoch+1) }},
		{"store cleared",
			func(_ *mesh.Mesh, s *info.Store) { s.Add(u, rec) },
			func(_ *mesh.Mesh, s *info.Store) { s.Clear() }},
		{"mesh reset",
			func(m *mesh.Mesh, _ *info.Store) { m.SetStatus(east, mesh.Faulty) },
			func(m *mesh.Mesh, _ *info.Store) { m.Reset() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mesh.New(shape)
			store := info.NewStore(m.NumNodes())
			ctx := &Context{M: m, Store: store}
			tc.setup(m, store)
			msg := NewMessage(u, dst)
			if !AdvanceGated(ctx, Limited{}, msg, deny) || !msg.Stalled() || msg.Cur != u {
				t.Fatalf("flight not stalled at its source: %v", msg)
			}
			stalledOn := msg.memo
			if !stalledOn.Move {
				t.Fatalf("stalled decision %+v is not a move", stalledOn)
			}
			msg.memo = poison
			if got := DecideMemo(ctx, Limited{}, msg); got != poison {
				t.Fatalf("unchanged inputs re-decided: got %+v, want the memo", got)
			}
			tc.mutate(m, store)
			got := DecideMemo(ctx, Limited{}, msg)
			if want := (Limited{}).Decide(ctx, msg); got != want {
				t.Fatalf("after mutation: memo %+v, fresh %+v", got, want)
			}
			if got == stalledOn {
				t.Fatalf("mutation did not change the decision (%+v): the case tests nothing", got)
			}
			if AdvanceGated(ctx, Limited{}, msg, nil); msg.Cur == u || msg.Incoming != got.Dir {
				t.Fatalf("granted step did not follow the re-decided %+v: %v", got, msg)
			}
		})
	}
}

// TestDecideMemoOnlyStepStable: Congested reads the load view and Oracle
// caches a distance field in the router value, so neither may ever leave a
// memo on the message.
func TestDecideMemoOnlyStepStable(t *testing.T) {
	shape := grid.MustShape(8, 8)
	m := mesh.New(shape)
	ctx := &Context{M: m, Store: info.NewStore(m.NumNodes())}
	deny := func(grid.NodeID, grid.Dir) bool { return false }
	for _, r := range []Router{Congested{}, &Oracle{}} {
		msg := NewMessage(shape.Index(grid.Coord{1, 1}), shape.Index(grid.Coord{6, 6}))
		for i := 0; i < 3; i++ {
			AdvanceGated(ctx, r, msg, deny)
		}
		if msg.memoOK {
			t.Errorf("%s left a memo: %+v", r.Name(), msg.memoKey)
		}
	}
}

// TestUsedSurvivesBacktrack: the used-direction set of a node outlives a
// backtrack through it, so a returning message never re-takes a direction
// (Algorithm 3's header discipline), and sets stay per node.
func TestUsedSurvivesBacktrack(t *testing.T) {
	m := mesh.New(grid.MustShape(6, 6))
	shape := m.Shape()
	ctx := &Context{M: m}
	u, v := shape.Index(grid.Coord{2, 2}), shape.Index(grid.Coord{3, 2})
	msg := NewMessage(u, shape.Index(grid.Coord{5, 5}))
	east, north := grid.DirPlus(0), grid.DirPlus(1)
	msg.applyMove(ctx, east)
	msg.applyMove(ctx, north)
	msg.applyBacktrack(ctx)
	msg.applyBacktrack(ctx)
	if msg.Cur != u || msg.Backtracks != 2 {
		t.Fatalf("not back at the source: %v", msg)
	}
	if got := msg.Used(u); got != grid.DirSet(0).Add(east) {
		t.Fatalf("Used(source) = %b after backtrack, want {+X}", got)
	}
	if got := msg.Used(v); got != grid.DirSet(0).Add(north) {
		t.Fatalf("Used(v) = %b after backtrack, want {+Y}", got)
	}
	msg.applyMove(ctx, north)
	if got := msg.Used(u); got != grid.DirSet(0).Add(east).Add(north) {
		t.Fatalf("Used(source) = %b, want {+X,+Y}", got)
	}
	if got := msg.Used(shape.Index(grid.Coord{2, 3})); got != 0 {
		t.Fatalf("unvisited node has used set %b", got)
	}
}

// TestResetKeepsVisitCapacity: a recycled message starts with an empty
// used-direction list and memo but keeps the list's storage, so its next
// flight appends without allocating.
func TestResetKeepsVisitCapacity(t *testing.T) {
	ctx, m := env(t, []int{10, 10}, []grid.Coord{{4, 4}, {5, 5}})
	shape := m.Shape()
	src := shape.Index(grid.Coord{1, 1})
	msg := NewMessage(src, shape.Index(grid.Coord{8, 8}))
	runToEnd(t, ctx, Limited{}, msg)
	if !msg.Arrived || len(msg.visits) == 0 {
		t.Fatalf("setup flight did not record visits: %v", msg)
	}
	c := cap(msg.visits)
	dst := shape.Index(grid.Coord{8, 1})
	msg.Reset(src, dst)
	if len(msg.visits) != 0 || cap(msg.visits) != c {
		t.Fatalf("Reset: len %d cap %d, want len 0 cap %d", len(msg.visits), cap(msg.visits), c)
	}
	if msg.Used(src) != 0 || msg.memoOK || msg.memoKey != (memoKey{}) || msg.memo != (Decision{}) {
		t.Fatalf("Reset left header state: used %b memo %+v", msg.Used(src), msg.memoKey)
	}
	allocs := testing.AllocsPerRun(10, func() {
		msg.Reset(src, dst)
		for Advance(ctx, Limited{}, msg) {
		}
	})
	if !msg.Arrived || cap(msg.visits) != c || allocs != 0 {
		t.Fatalf("recycled flight: arrived=%v cap %d allocs=%v, want an alloc-free delivery in cap %d",
			msg.Arrived, cap(msg.visits), allocs, c)
	}
}

var messageSink *Message

// TestNewMessageAllocatesOnlyItself: the used-direction list is a nil
// slice until the first hop, so building a message is one allocation (the
// map it replaced cost a second).
func TestNewMessageAllocatesOnlyItself(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { messageSink = NewMessage(1, 2) }); allocs != 1 {
		t.Fatalf("NewMessage: %v allocs, want 1", allocs)
	}
}
