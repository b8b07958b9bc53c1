package main

import (
	"slices"

	"ndmesh"
	"ndmesh/internal/traffic"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one cold start cannot move it.
const setupReps = 5

// setupMedian runs setup setupReps times and returns the median wall time
// in seconds.
func setupMedian(setup func() error) (float64, error) {
	durs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t := now()
		if err := setup(); err != nil {
			return 0, err
		}
		durs = append(durs, since(t))
	}
	return median(durs), nil
}

// timedLoop repeats unit until the window has elapsed (at least once) and
// returns each repetition's wall time in seconds and the median over
// repetitions of the peak live heap in MiB.
func timedLoop(seconds float64, unit func(i int)) (durs []float64, heapMiB float64) {
	heap := startHeapSampler()
	defer heap.stopSampling()
	var peaks []float64
	start := now()
	for len(durs) == 0 || since(start) < seconds {
		t := now()
		unit(len(durs))
		durs = append(durs, since(t))
		peaks = append(peaks, heap.takeMiB())
	}
	return durs, median(peaks)
}

// mesh32Options is the mesh32-sat cell: a fault-free 32x32 mesh at λ=1
// under Bernoulli uniform traffic at rate 0.16, the knee of its
// latency-throughput curve, routed by the limited-global router.
func mesh32Options(seed uint64) ndmesh.LoadOptions {
	return ndmesh.LoadOptions{
		Dims: []int{32, 32}, Lambda: 1,
		Router: "limited", Pattern: "uniform", Process: "bernoulli", Rate: 0.16,
		Warmup: 192, Measure: 384, Drain: 256,
		LinkRate: 1,
		Seed:     seed,
	}
}

// faultstormOptions is the mesh3d-faultstorm sweep: the paper's n-D case
// (8x8x8, λ=2) under a live fail/repair process at two fault rates and
// light uniform load, with DefaultReliability's flight timeout and retry.
func faultstormOptions() ndmesh.ReliabilityOptions {
	opt := ndmesh.DefaultReliability()
	opt.Dims = []int{8, 8, 8}
	opt.Lambda = 2
	opt.FaultRates = []float64{0.05, 0.1}
	opt.FaultRepair = 60
	opt.Rate = 0.03
	opt.Trials = 32
	return opt
}

func mesh32Untraced(cfg runConfig) (*report, error) {
	rep := newReport()
	opt := mesh32Options(cfg.seed)
	// Set-up: build the options and warm the 32x32 stack with a short
	// run of the same cell shape.
	setup, err := setupMedian(func() error {
		warm := mesh32Options(cfg.seed)
		warm.Warmup, warm.Measure, warm.Drain = 4, 8, 4
		_, err := ndmesh.LoadRun(warm)
		return err
	})
	if err != nil {
		return nil, err
	}
	var first traffic.LoadPoint
	durs, heap := timedLoop(cfg.seconds, func(i int) {
		pt, err := ndmesh.LoadRun(opt)
		if !rep.expectNil(err, "LoadRun") {
			return
		}
		rep.expectNil(conservation(pointCounts(pt)), "mesh32-sat load point")
		if i == 0 {
			first = pt
		} else {
			rep.expect(pt == first, "LoadRun repetition %d differs from the first: %+v vs %+v", i, pt, first)
		}
	})
	run := median(durs)
	steps := float64(opt.Warmup + opt.Measure + opt.Drain)
	v := rep.values
	v["setup_s"] = setup
	v["run_s"] = run
	v["ops_per_s"] = steps / run
	v["msgs_per_s"] = float64(first.Delivered) / run
	v["heap_peak_mb"] = heap
	var agg simAgg
	agg.add(first.AcceptedRate, first.Latency.Mean, first.Delivered, first.Injected)
	agg.put(v)
	rep.note("mesh32-sat cells (%v steps each): %s", steps, describe(durs, "s"))
	rep.note("ops_per_s counts simulated steps")
	return rep, nil
}

func faultstormUntraced(cfg runConfig) (*report, error) {
	rep := newReport()
	opt := faultstormOptions()
	// Set-up: build the options and warm one worker stack per core with a
	// short sweep of the same shape.
	setup, err := setupMedian(func() error {
		warm := faultstormOptions()
		warm.FaultRates = warm.FaultRates[:1]
		warm.Trials = 2 * cfg.nproc
		warm.Warmup, warm.Measure, warm.Drain = 16, 32, 16
		_, err := ndmesh.ReliabilitySweepWorkers(warm, cfg.seed, cfg.nproc)
		return err
	})
	if err != nil {
		return nil, err
	}
	var first []ndmesh.ReliabilityRow
	durs, heap := timedLoop(cfg.seconds, func(i int) {
		rows, err := ndmesh.ReliabilitySweepWorkers(opt, cfg.seed, cfg.nproc)
		if !rep.expectNil(err, "ReliabilitySweep") {
			return
		}
		for _, row := range rows {
			rep.expectNil(conservation(reliabilityCounts(row)), "mesh3d-faultstorm row")
		}
		if i == 0 {
			first = rows
		} else {
			rep.expect(slices.Equal(rows, first), "ReliabilitySweep repetition %d differs from the first", i)
		}
	})
	run := median(durs)
	var agg simAgg
	for _, row := range first {
		agg.add(row.AcceptedRate, row.LatMean, row.Delivered, row.Injected)
	}
	trials := float64(len(opt.FaultRates) * opt.Trials)
	v := rep.values
	v["setup_s"] = setup
	v["run_s"] = run
	v["ops_per_s"] = trials / run
	v["msgs_per_s"] = float64(agg.delivered) / run
	v["heap_peak_mb"] = heap
	agg.put(v)
	rep.note("mesh3d-faultstorm sweeps (%v trials each, %d workers): %s", trials, cfg.nproc, describe(durs, "s"))
	rep.note("ops_per_s counts Monte-Carlo trials")
	return rep, nil
}

// reliabilityCounts extracts the counters of one reliability row.
func reliabilityCounts(r ndmesh.ReliabilityRow) flightCounts {
	return flightCounts{r.Injected, r.Delivered, r.Unreachable, r.Lost, r.TimedOut, r.Unfinished}
}
