package main

import (
	"testing"

	"ndmesh"
)

// TestConservationRejectsDoctoredPoint runs a real load cell, accepts its
// point, and rejects the same point with one flight moved out of every
// outcome class.
func TestConservationRejectsDoctoredPoint(t *testing.T) {
	pt, err := ndmesh.LoadRun(ndmesh.LoadOptions{
		Dims: []int{8, 8}, Router: "limited", Pattern: "uniform", Rate: 0.2,
		Warmup: 16, Measure: 64, Drain: 32, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conservation(pointCounts(pt)); err != nil {
		t.Fatalf("genuine point rejected: %v", err)
	}
	doctored := pt
	doctored.Delivered--
	if conservation(pointCounts(doctored)) == nil {
		t.Errorf("point with a vanished delivery accepted: %+v", doctored)
	}
	doctored = pt
	doctored.Injected++
	if conservation(pointCounts(doctored)) == nil {
		t.Errorf("point with an unaccounted injection accepted: %+v", doctored)
	}
}

func TestTallyCounts(t *testing.T) {
	var tl tally
	tl.expect(true, "fine")
	tl.expect(false, "broken %d", 7)
	tl.expectNil(nil, "op")
	if tl.attempted != 3 || tl.failed != 1 || len(tl.failures) != 1 || tl.failures[0] != "broken 7" {
		t.Errorf("tally = %+v", tl)
	}
}
