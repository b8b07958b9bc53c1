package main

import (
	"testing"

	"ndmesh"
	"ndmesh/internal/core"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
)

// faultyCell is a small load cell with a live fail/repair process and
// flight timeouts, so the timing router sees moves, backtracks and
// failures and the core replay sees protocol activity.
func faultyCell() ndmesh.LoadOptions {
	return ndmesh.LoadOptions{
		Dims: []int{6, 6, 6}, Lambda: 2,
		Router: "limited", Pattern: "uniform", Process: "bernoulli", Rate: 0.05,
		Warmup: 32, Measure: 96, Drain: 64, LinkRate: 1,
		FlightTimeout: 24, RetryBackoff: 4,
		FaultRate: 0.1, FaultRepair: 40,
		Seed: 11,
	}
}

// TestStepLoopMatchesLoadRun pins the benchmark's copy of the step loop to
// the library: bare and traced, a cell must reproduce LoadRun's point.
func TestStepLoopMatchesLoadRun(t *testing.T) {
	for _, opt := range []ndmesh.LoadOptions{mesh32Small(), faultyCell()} {
		want, err := ndmesh.LoadRun(opt)
		if err != nil {
			t.Fatal(err)
		}
		c := cellFromLoad(opt)
		st, err := newStack(c.dims, c.lambda)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := driveCell(st, &c, rng.New(opt.Seed).Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if bare != want {
			t.Errorf("%v: bare step loop %+v, LoadRun %+v", opt.Dims, bare, want)
		}
		var lt layerTrace
		traced, err := driveCell(st, &c, rng.New(opt.Seed).Split(), &lt)
		if err != nil {
			t.Fatal(err)
		}
		if traced != want {
			t.Errorf("%v: traced step loop %+v, LoadRun %+v", opt.Dims, traced, want)
		}
		if lt.router.decides == 0 || lt.probe.moves == 0 || len(lt.stepNs) != c.total() {
			t.Errorf("%v: traced cell recorded no work: %d decides, %d moves, %d step spans",
				opt.Dims, lt.router.decides, lt.probe.moves, len(lt.stepNs))
		}
	}
}

// mesh32Small is the mesh32-sat cell shortened for a test.
func mesh32Small() ndmesh.LoadOptions {
	opt := mesh32Options(5)
	opt.Warmup, opt.Measure, opt.Drain = 16, 32, 16
	return opt
}

// TestRouteTimerCounts checks that the delegating router reports the
// wrapped router's name and counts and times its decisions, backtracks
// included; TestStepLoopMatchesLoadRun checks that it changes no outcome.
func TestRouteTimerCounts(t *testing.T) {
	opt := faultyCell()
	c := cellFromLoad(opt)
	st, err := newStack(c.dims, c.lambda)
	if err != nil {
		t.Fatal(err)
	}
	var lt layerTrace
	if _, err := driveCell(st, &c, rng.New(opt.Seed).Split(), &lt); err != nil {
		t.Fatal(err)
	}
	r := &lt.router
	if r.Name() != "limited" {
		t.Errorf("timing router reports name %q", r.Name())
	}
	if r.backtracks == 0 {
		t.Errorf("faulty cell produced no backtracks; the test cell no longer exercises that path")
	}
	if r.ns <= 0 {
		t.Errorf("timing router recorded %d ns over %d decisions", r.ns, r.decides)
	}
}

// TestCoreReplayMatchesEngine checks the protocol-only replay against the
// engine on a faulty cell, and that a doctored record series is caught.
func TestCoreReplayMatchesEngine(t *testing.T) {
	opt := faultyCell()
	c := cellFromLoad(opt)
	st, err := newStack(c.dims, c.lambda)
	if err != nil {
		t.Fatal(err)
	}
	var lt layerTrace
	if _, err := driveCell(st, &c, rng.New(opt.Seed).Split(), &lt); err != nil {
		t.Fatal(err)
	}
	replay := core.New(mesh.New(st.shape))
	rep := newReport()
	lt.replayCore(rep, replay, st)
	if rep.failed != 0 {
		t.Fatalf("replay disagrees with the engine: %v", rep.failures)
	}
	if lt.coreRounds != c.total()*c.lambda || lt.coreActive == 0 || lt.recordsPeak == 0 {
		t.Errorf("replay ran %d rounds (%d active, %d peak records) over %d steps at λ=%d",
			lt.coreRounds, lt.coreActive, lt.recordsPeak, c.total(), c.lambda)
	}
	lt.records[len(lt.records)/2]++
	rep = newReport()
	lt.replayCore(rep, replay, st)
	if rep.failed == 0 {
		t.Errorf("replay accepted a doctored record series")
	}
}
