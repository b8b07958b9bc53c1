package engine

import (
	"fmt"
	"reflect"
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

// TestParkedStepMatchesFresh is the differential check of the in-place
// denial: a step-stable flight that lost the gate is parked on the link it
// was denied and, while the gate would still deny it, stalls without
// deciding. An engine whose flights decide afresh every step (freshRouter
// never parks) and an engine that parks are driven through the same
// scenario; after every step they must agree on every flight's state and
// counters, every node's residency, the per-link grant and stall counters
// and the flushed census. Each scenario must fire the in-place denial at
// least 100 times, so the check cannot pass by never parking.
func TestParkedStepMatchesFresh(t *testing.T) {
	type scenario struct {
		name   string
		shape  *grid.Shape
		lambda int
		cfg    ContentionConfig
		burst  int // upper bound of injections offered per step
		faults func(*grid.Shape, *rng.Source) (*fault.Schedule, error)
	}
	liveFaults := func(shape *grid.Shape, r *rng.Source) (*fault.Schedule, error) {
		return fault.GenerateProcess(shape, fault.ProcessOptions{
			Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: 0.05},
			Repair:  fault.Delay{Model: fault.DelayBernoulli, Rate: 1.0 / 10},
			Start:   1, Horizon: 150,
		}, r)
	}
	scenarios := []scenario{
		{name: "saturated-rate1", shape: grid.MustShape(12, 12), lambda: 1,
			cfg: ContentionConfig{LinkRate: 1}, burst: 40},
		{name: "saturated-rate2", shape: grid.MustShape(8, 8), lambda: 1,
			cfg: ContentionConfig{LinkRate: 2}, burst: 80},
		{name: "fail-repair", shape: grid.MustShape(12, 12), lambda: 1,
			cfg: ContentionConfig{LinkRate: 1}, burst: 40, faults: liveFaults},
		{name: "capacity-timeout", shape: grid.MustShape(10, 10), lambda: 1,
			cfg:   ContentionConfig{LinkRate: 1, NodeCapacity: 2, FlightTimeout: 6, GridlockWindow: 3},
			burst: 30, faults: liveFaults},
	}
	routers := []route.Router{route.Limited{}, route.Blind{}, route.DOR{}, route.Limited{}, route.Congested{}}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			build := func() (*Engine, *censusLog) {
				sched := &fault.Schedule{}
				if sc.faults != nil {
					var err error
					if sched, err = sc.faults(sc.shape, rng.New(7)); err != nil {
						t.Fatal(err)
					}
				}
				e := New(core.New(mesh.New(sc.shape)), sc.lambda, sched)
				e.EnableContention(sc.cfg)
				log := &censusLog{}
				e.SetProbe(log)
				return e, log
			}
			fresh, freshLog := build()
			parked, parkedLog := build()
			m := fresh.Model.M
			n := m.NumNodes()
			r := rng.New(11)
			for step := 0; step < 150; step++ {
				for k := r.Intn(sc.burst); k > 0; k-- {
					src, dst := grid.NodeID(r.Intn(n)), grid.NodeID(r.Intn(n))
					rtr := routers[r.Intn(len(routers))]
					if src == dst || m.Status(src) != mesh.Enabled || !fresh.Admit(src) {
						continue
					}
					if _, err := fresh.Inject(src, dst, freshRouter{rtr}); err != nil {
						t.Fatal(err)
					}
					if _, err := parked.Inject(src, dst, rtr); err != nil {
						t.Fatal(err)
					}
				}
				fresh.Step()
				parked.Step()
				ff, pf := fresh.Flights(), parked.Flights()
				if len(ff) != len(pf) {
					t.Fatalf("step %d: flight counts diverged: %d vs %d", step, len(ff), len(pf))
				}
				for i := range ff {
					if a, b := flightState(ff[i]), flightState(pf[i]); a != b {
						t.Fatalf("step %d flight %d diverged:\n fresh  %s\n parked %s", step, i, a, b)
					}
				}
				if !slices.Equal(fresh.ctn.resident, parked.ctn.resident) {
					t.Fatalf("step %d: residency diverged", step)
				}
				if !slices.Equal(fresh.ctn.served, parked.ctn.served) {
					t.Fatalf("step %d: link grants diverged", step)
				}
				if !slices.Equal(fresh.ctn.pending, parked.ctn.pending) {
					t.Fatalf("step %d: link stalls diverged", step)
				}
				fresh.DetachDone(nil)
				parked.DetachDone(nil)
				fresh.FlushCensus()
				parked.FlushCensus()
				if !reflect.DeepEqual(freshLog, parkedLog) {
					t.Fatalf("step %d: census diverged:\n fresh  %+v\n parked %+v", step,
						freshLog.rows[len(freshLog.rows)-1], parkedLog.rows[len(parkedLog.rows)-1])
				}
			}
			if fresh.ctn.parked != 0 {
				t.Fatalf("the fresh engine parked %d stalls; freshRouter must never park", fresh.ctn.parked)
			}
			t.Logf("%d stalls applied in place, %d events", parked.ctn.parked, len(parked.Events))
			if parked.ctn.parked < 100 {
				t.Fatalf("in-place denial fired %d times, want >= 100: the scenario does not exercise it", parked.ctn.parked)
			}
			if sc.faults != nil && len(fresh.Events) == 0 {
				t.Fatal("no fault event fired: the scenario does not exercise invalidation")
			}
			if sc.cfg.FlightTimeout > 0 {
				kills := 0
				for _, row := range parkedLog.rows {
					kills += row.TimedOut
				}
				if kills == 0 {
					t.Fatal("no flight timed out: the scenario does not exercise the timeout")
				}
			}
		})
	}
}

// flightState renders everything observable about a flight's progress.
func flightState(f *Flight) string {
	m := f.Msg
	return fmt.Sprintf("%v in=%v waits=%d stall=%d stalled=%v", m, m.Incoming, m.Waits, f.StallAge, m.Stalled())
}
