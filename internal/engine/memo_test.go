package engine

import (
	"fmt"
	"slices"
	"testing"

	"ndmesh/internal/core"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
)

// freshRouter hides a router's type from route.StepStable, so its decisions
// are never memoized: every step decides it afresh.
type freshRouter struct{ route.Router }

// TestMemoizedStepMatchesFresh is the differential check of the decision
// memo under contention: an engine whose flights decide afresh every step
// (routers wrapped in freshRouter) and an engine deciding through
// route.DecideMemo are driven through the same scenario — random static
// faults or a live fail/repair process, bursty injection over Limited,
// Blind, DOR and Congested, finite buffers and flight timeouts. After every step they must agree on every flight's
// state, every node's residency, and the per-link grant and stall counters
// of the step. The stall counters record the link each losing flight
// asked for, so a memoized decision that differed from a fresh one on a
// stalled step would show there even before it moved a flight.
func TestMemoizedStepMatchesFresh(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *Engine {
				shape := grid.MustShape(10, 10)
				if seed%2 == 0 {
					shape = grid.MustShape(5, 5, 5)
				}
				r := rng.New(seed)
				var sched *fault.Schedule
				var err error
				if seed <= 2 {
					sched, err = fault.Generate(shape, 4, fault.Options{Interval: 9, Start: 0}, r)
				} else {
					sched, err = fault.GenerateProcess(shape, fault.ProcessOptions{
						Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: 0.1},
						Repair:  fault.Delay{Model: fault.DelayBernoulli, Rate: 1.0 / 15},
						Start:   1, Horizon: 100,
					}, r)
				}
				if err != nil {
					t.Fatal(err)
				}
				e := New(core.New(mesh.New(shape)), 1+int(seed%2), sched)
				e.EnableContention(ContentionConfig{LinkRate: 1, NodeCapacity: 3, FlightTimeout: 20})
				return e
			}
			fresh, memo := build(), build()

			routers := []route.Router{route.Limited{}, route.Blind{}, route.DOR{}, route.Congested{}}
			m := fresh.Model.M
			n := m.NumNodes()
			r := rng.New(100 + seed)
			for step := 0; step < 120; step++ {
				for k := r.Intn(10); k > 0; k-- {
					src, dst := grid.NodeID(r.Intn(n)), grid.NodeID(r.Intn(n))
					rtr := routers[r.Intn(len(routers))]
					if src == dst || m.Status(src) != mesh.Enabled || !fresh.Admit(src) {
						continue
					}
					if _, err := fresh.Inject(src, dst, freshRouter{rtr}); err != nil {
						t.Fatal(err)
					}
					if _, err := memo.Inject(src, dst, rtr); err != nil {
						t.Fatal(err)
					}
				}
				fresh.Step()
				memo.Step()
				ff, mf := fresh.Flights(), memo.Flights()
				if len(ff) != len(mf) {
					t.Fatalf("step %d: flight counts diverged: %d vs %d", step, len(ff), len(mf))
				}
				for i := range ff {
					a, b := ff[i], mf[i]
					as := fmt.Sprintf("%v in=%v waits=%d stall=%d timedout=%v", a.Msg, a.Msg.Incoming, a.Msg.Waits, a.StallAge, a.Msg.TimedOut)
					bs := fmt.Sprintf("%v in=%v waits=%d stall=%d timedout=%v", b.Msg, b.Msg.Incoming, b.Msg.Waits, b.StallAge, b.Msg.TimedOut)
					if as != bs {
						t.Fatalf("step %d flight %d diverged:\n fresh %s\n memo  %s", step, i, as, bs)
					}
				}
				if !slices.Equal(fresh.ctn.resident, memo.ctn.resident) {
					t.Fatalf("step %d: residency diverged", step)
				}
				if !slices.Equal(fresh.ctn.served, memo.ctn.served) {
					t.Fatalf("step %d: link grants diverged", step)
				}
				if !slices.Equal(fresh.ctn.pending, memo.ctn.pending) {
					t.Fatalf("step %d: link stalls diverged", step)
				}
				fresh.DetachDone(nil)
				memo.DetachDone(nil)
			}
			if len(fresh.Events) == 0 {
				t.Fatal("no fault event fired: the scenario does not exercise invalidation")
			}
		})
	}
}
