package ndmesh

import (
	"sync"
	"sync/atomic"
	"testing"

	"ndmesh/internal/probe"
	"ndmesh/internal/traffic"
)

// TestSweepProgress pins runCells' Progress contract on every sweep that
// exposes the hook: one call per job, each done value from 1 to total
// exactly once, and total the sweep's documented job count — cells for
// most sweeps, scenario cells (not mechanism arms) for gridlock, and
// Monte-Carlo trials (not cells) for reliability. It also pins the probe
// guard: a probed saturation or closed-loop sweep with more than one cell
// is refused before any cell runs.
func TestSweepProgress(t *testing.T) {
	rec := &traffic.Trace{}
	if _, err := LoadRun(LoadOptions{
		Dims: []int{6, 6}, Router: "limited", Pattern: "uniform",
		Rate: 0.1, Warmup: 8, Measure: 16, Drain: 16, Seed: 1, Record: rec,
	}); err != nil {
		t.Fatal(err)
	}
	sat, cl, cs := smallSaturation(), smallClosedLoop(), smallCongestionShift()
	gl, rel := smallGridlock(), smallReliability()
	rc := ReplayCompareOptions{Trace: rec, Routers: []string{"limited", "congested", "dor"}}
	type hook = func(done, total int)
	for _, tc := range []struct {
		name  string
		total int
		run   func(progress hook) error
	}{
		{"saturation", len(sat.Patterns) * len(sat.Rates) * len(sat.Routers), func(progress hook) error {
			sat.Progress = progress
			_, err := SaturationSweepWorkers(sat, 1, 3)
			return err
		}},
		{"closed loop", len(cl.Patterns) * len(cl.Windows) * len(cl.Routers), func(progress hook) error {
			cl.Progress = progress
			_, err := ClosedLoopSweepWorkers(cl, 1, 3)
			return err
		}},
		{"congestion shift", len(cs.Patterns) * len(cs.Rates), func(progress hook) error {
			cs.Progress = progress
			_, _, err := CongestionShiftSweepWorkers(cs, 1, 3)
			return err
		}},
		{"gridlock", len(gl.Patterns) * len(gl.Windows) * len(gl.Capacities) * len(gl.FaultCounts), func(progress hook) error {
			gl.Progress = progress
			_, err := GridlockSweepWorkers(gl, 1, 3)
			return err
		}},
		{"reliability", len(rel.Patterns) * len(rel.FaultRates) * len(rel.Routers) * rel.Trials, func(progress hook) error {
			rel.Progress = progress
			_, err := ReliabilitySweepWorkers(rel, 1, 3)
			return err
		}},
		{"replay compare", len(rc.Routers), func(progress hook) error {
			rc.Progress = progress
			_, err := ReplayCompareSweepWorkers(rc, 1, 3)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			seen := make(map[int]int)
			err := tc.run(func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				if total != tc.total {
					t.Errorf("progress total %d, want %d", total, tc.total)
				}
				seen[done]++
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != tc.total {
				t.Errorf("%d distinct done values, want %d", len(seen), tc.total)
			}
			for d := 1; d <= tc.total; d++ {
				if seen[d] != 1 {
					t.Errorf("done=%d reported %d times, want once", d, seen[d])
				}
			}
		})
	}

	// The probe guard runs before the fan-out: Cancel is polled before
	// every cell, so a refused sweep must never have polled it.
	var polled, progressed atomic.Int32
	cancel := func() bool { polled.Add(1); return false }
	progress := func(int, int) { progressed.Add(1) }
	sat, cl = smallSaturation(), smallClosedLoop()
	sat.Probe, sat.Cancel, sat.Progress = probe.NewTimeSeries(8), cancel, progress
	cl.Probe, cl.Cancel, cl.Progress = probe.NewTimeSeries(8), cancel, progress
	if _, err := SaturationSweepWorkers(sat, 1, 2); err == nil {
		t.Error("probed multi-cell saturation sweep was not refused")
	}
	if _, err := ClosedLoopSweepWorkers(cl, 1, 2); err == nil {
		t.Error("probed multi-cell closed-loop sweep was not refused")
	}
	if polled.Load() != 0 || progressed.Load() != 0 {
		t.Errorf("a refused probed sweep ran cells: %d cancel polls, %d progress calls", polled.Load(), progressed.Load())
	}
}
