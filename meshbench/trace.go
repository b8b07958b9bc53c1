package main

// This file is the traced run of the two simulation workloads. It drives
// load cells with the benchmark's own copy of the library's open-loop step
// loop (ndmesh's loadPoint), built from the public grid/mesh/core/engine/
// traffic/fault constructors, so every span sits around a call into one
// layer's public function. Identity checks tie the copy to the program: a
// cell driven here must equal the library's result for the same options
// and seed, a cell driven through the timing router must equal the same
// cell driven through the bare router, and a protocol-only replay of each
// cell's fault schedule must reproduce the engine's round and record
// counts.

import (
	"runtime"
	"slices"
	"time"

	"ndmesh"
	"ndmesh/internal/core"
	"ndmesh/internal/engine"
	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/mesh"
	"ndmesh/internal/rng"
	"ndmesh/internal/route"
	"ndmesh/internal/traffic"
)

// stack is the simulator assembled from the layer constructors, as
// ndmesh.NewSimulation assembles it.
type stack struct {
	shape *grid.Shape
	model *core.Model
	eng   *engine.Engine
	sched *fault.Schedule
}

func newStack(dims []int, lambda int) (*stack, error) {
	shape, err := grid.NewShape(dims...)
	if err != nil {
		return nil, err
	}
	md := core.New(mesh.New(shape))
	sched := &fault.Schedule{}
	return &stack{shape: shape, model: md, eng: engine.New(md, lambda, sched), sched: sched}, nil
}

// reset rewinds the stack to the fault-free state, as Simulation.Reset.
func (s *stack) reset() {
	s.model.Reset()
	s.eng.Reset()
	s.sched.Events = s.sched.Events[:0]
}

// cellSpec is one open-loop load run of the limited router: the subset of
// the library's load options the two simulation workloads use.
type cellSpec struct {
	dims                        []int
	lambda                      int
	pattern, process            string
	rate                        float64
	warmup, measure, drain      int
	flightTimeout, retryBackoff int
	faultRate, faultRepair      float64
}

func (c *cellSpec) total() int { return c.warmup + c.measure + c.drain }

func cellFromLoad(o ndmesh.LoadOptions) cellSpec {
	return cellSpec{
		dims: o.Dims, lambda: o.Lambda, pattern: o.Pattern, process: o.Process, rate: o.Rate,
		warmup: o.Warmup, measure: o.Measure, drain: o.Drain,
		flightTimeout: o.FlightTimeout, retryBackoff: o.RetryBackoff,
		faultRate: o.FaultRate, faultRepair: o.FaultRepair,
	}
}

func cellFromReliability(o ndmesh.ReliabilityOptions, faultRate float64) cellSpec {
	return cellSpec{
		dims: o.Dims, lambda: o.Lambda, pattern: o.Patterns[0], process: o.Process, rate: o.Rate,
		warmup: o.Warmup, measure: o.Measure, drain: o.Drain,
		flightTimeout: o.FlightTimeout, retryBackoff: o.RetryBackoff,
		faultRate: faultRate, faultRepair: o.FaultRepair,
	}
}

// routeTimer is a delegating route.Router: it forwards every decision to
// the wrapped router unchanged and times it.
type routeTimer struct {
	inner                      route.Router
	decides, backtracks, fails int
	ns                         int64
}

func (t *routeTimer) Name() string { return t.inner.Name() }

func (t *routeTimer) Decide(ctx *route.Context, msg *route.Message) route.Decision {
	start := now()
	d := t.inner.Decide(ctx, msg)
	t.ns += sinceNs(start)
	t.decides++
	if d.Backtrack {
		t.backtracks++
	}
	if d.Fail {
		t.fails++
	}
	return d
}

// censusProbe folds the engine's per-step census into run totals. It only
// reads the census it is handed.
type censusProbe struct {
	moves, stalls, inflight, steps int
}

func (p *censusProbe) ObserveStep(c engine.StepCensus) {
	p.moves += c.Moves
	p.stalls += c.Stalls
	p.inflight += c.InFlight
	p.steps += c.Steps
}

// layerTrace accumulates the spans and counts of a traced run.
type layerTrace struct {
	router routeTimer
	probe  censusProbe

	stepNs                 []float64
	stepTotalNs, routeNs   int64
	injects                int
	injectNs               int64
	offers, admitted       int
	trafficSteps           int
	trafficSelfNs          int64
	harvests               int
	harvestNs              int64
	generates, events      int
	generateNs             int64
	mallocs                uint64
	allocSteps             int
	records                []int // the engine's record count after each step of the current cell
	coreRounds, coreActive int
	coreNs, coreActiveNs   int64
	recordsPeak            int
}

// driveCell runs one open-loop load cell on st, step for step as the
// library's loadPoint does. With lt nil it calls the layers bare; with lt
// set it routes through lt's timing router, attaches lt's census probe
// and times each layer call.
func driveCell(st *stack, c *cellSpec, r *rng.Source, lt *layerTrace) (traffic.LoadPoint, error) {
	st.reset()
	shape := st.shape
	total := c.total()
	if c.faultRate > 0 {
		// As in loadPoint: the fault process draws from a stream split off
		// the cell's before any traffic draw.
		fr := r.Split()
		popt := fault.ProcessOptions{
			Arrival: fault.Delay{Model: fault.DelayBernoulli, Rate: c.faultRate},
			Horizon: total - 1,
		}
		if c.faultRepair > 0 {
			popt.Repair = fault.Delay{Model: fault.DelayBernoulli, Rate: 1 / c.faultRepair}
		}
		t := lt.clock()
		sched, err := fault.GenerateProcess(shape, popt, fr)
		if err != nil {
			return traffic.LoadPoint{}, err
		}
		if lt != nil {
			lt.generateNs += sinceNs(t)
			lt.generates++
			lt.events += len(sched.Events)
		}
		st.sched.Events = append(st.sched.Events[:0], sched.Events...)
	}
	var rtr route.Router = route.Limited{}
	if lt != nil {
		lt.router.inner = rtr
		rtr = &lt.router
	}
	pat, err := traffic.ByName(shape, c.pattern)
	if err != nil {
		return traffic.LoadPoint{}, err
	}
	proc, err := traffic.ProcessByName(c.process)
	if err != nil {
		return traffic.LoadPoint{}, err
	}
	var src traffic.Injector = traffic.NewGenerator(shape, pat, proc, c.rate, r)
	var rq *traffic.RetrySource
	if c.flightTimeout > 0 {
		rq = traffic.NewRetrySource(src, shape.NumNodes(), c.retryBackoff, r)
		src = rq
	}
	eng := st.eng
	eng.EnableContention(engine.ContentionConfig{LinkRate: 1, FlightTimeout: c.flightTimeout})
	if lt != nil {
		eng.SetProbe(&lt.probe)
	}
	defer func() {
		eng.SetProbe(nil)
		eng.ClearFlights()
		eng.DisableContention()
	}()
	ph := traffic.Phases{Warmup: c.warmup, Measure: c.measure, Drain: c.drain}
	var col traffic.Collector
	col.Reset(ph)

	fab := st.model.M
	var injectErr error
	step := 0
	emit := func(src, dst grid.NodeID) bool {
		if lt != nil {
			lt.offers++
		}
		if injectErr != nil {
			return false
		}
		if fab.Status(src) != mesh.Enabled || !eng.Admit(src) {
			col.Offer(step, false)
			return false
		}
		t := lt.clock()
		fl, err := eng.Inject(src, dst, rtr)
		if lt != nil {
			lt.injectNs += sinceNs(t)
			lt.injects++
		}
		if err != nil {
			injectErr = err
			return false
		}
		fl.Ctx.Policy = route.LowestAxis
		col.Offer(step, true)
		if lt != nil {
			lt.admitted++
		}
		return true
	}
	harvest := func(fl *engine.Flight) {
		oc := traffic.Unfinished
		switch {
		case fl.Msg.Arrived:
			oc = traffic.Delivered
		case fl.Msg.Unreachable:
			oc = traffic.Unreachable
		case fl.Msg.Lost:
			oc = traffic.Lost
		case fl.Msg.TimedOut:
			oc = traffic.TimedOut
		}
		if rq != nil {
			if oc == traffic.TimedOut {
				rq.Timeout(fl.Msg.Src, fl.Msg.Dst, ph.Measured(fl.StartStep))
				col.Retry(fl.StartStep)
				eng.NoteRetried()
			} else {
				rq.Settle(fl.Msg.Src)
			}
		}
		col.Finish(fl.StartStep, fl.Msg.Steps, oc)
	}

	var ms runtime.MemStats
	if lt != nil {
		lt.records = lt.records[:0]
	}
	for ; step < total; step++ {
		if lt != nil && step == c.warmup {
			runtime.ReadMemStats(&ms)
			lt.mallocs -= ms.Mallocs
			lt.allocSteps += total - step
		}
		if step < ph.InjectUntil() {
			t := lt.clock()
			injected := lt.injectTotal()
			src.Step(emit)
			if lt != nil {
				lt.trafficSelfNs += sinceNs(t) - (lt.injectNs - injected)
				lt.trafficSteps++
			}
			if injectErr != nil {
				return traffic.LoadPoint{}, injectErr
			}
		}
		t := lt.clock()
		routed := lt.routeTotal()
		eng.Step()
		if lt != nil {
			d := sinceNs(t)
			lt.stepNs = append(lt.stepNs, float64(d))
			lt.stepTotalNs += d
			lt.routeNs += lt.router.ns - routed
			t = now()
		}
		eng.DetachDone(harvest)
		if lt != nil {
			lt.harvestNs += sinceNs(t)
			lt.harvests++
			eng.FlushCensus()
			lt.records = append(lt.records, st.model.Store.TotalRecords())
		}
	}
	if lt != nil {
		runtime.ReadMemStats(&ms)
		lt.mallocs += ms.Mallocs
	}
	for _, fl := range eng.Flights() {
		if !fl.Msg.Done() {
			col.Finish(fl.StartStep, fl.Msg.Steps, traffic.Unfinished)
		}
	}
	pt := col.Result(c.rate, shape.NumNodes())
	pt.Gridlocked = eng.Gridlocked()
	pt.GridlockStep = eng.GridlockStep()
	pt.RecoverySteps = eng.GridlockRecovery()
	if rq != nil {
		pt.RetryDropped = rq.PendingMeasured()
	}
	for _, rec := range eng.Events {
		switch rec.Kind {
		case fault.Fail:
			pt.Failed++
		case fault.Recover:
			pt.Recovered++
		}
	}
	return pt, nil
}

// clock, injectTotal and routeTotal read the clock and the running span
// sums of a traced cell; untraced (lt nil) they cost nothing and read 0.
func (lt *layerTrace) clock() time.Time {
	if lt == nil {
		return time.Time{}
	}
	return now()
}

func (lt *layerTrace) injectTotal() int64 {
	if lt == nil {
		return 0
	}
	return lt.injectNs
}

func (lt *layerTrace) routeTotal() int64 {
	if lt == nil {
		return 0
	}
	return lt.router.ns
}

// replayCore replays the fault schedule of the cell st just ran through a
// protocol-only model — events applied and λ rounds run per step, in the
// engine's order — timing every round, and checks that the replay
// reproduces the engine's round count and its record count after every
// step.
func (lt *layerTrace) replayCore(rep *report, md *core.Model, st *stack) {
	md.Reset()
	events := st.sched.Events
	steps, lambda := st.eng.StepCount(), st.eng.Lambda
	next, rounds := 0, 0
	same := len(lt.records) == steps
	for step := 0; step < steps; step++ {
		for next < len(events) && events[next].Step <= step {
			md.Labeling.ResetAffected()
			if events[next].Kind == fault.Fail {
				md.ApplyFault(events[next].Node)
			} else {
				md.ApplyRecovery(events[next].Node)
			}
			next++
		}
		for i := 0; i < lambda; i++ {
			t := now()
			active := md.Round()
			d := sinceNs(t)
			rounds++
			lt.coreNs += d
			if active > 0 {
				lt.coreActive++
				lt.coreActiveNs += d
			}
		}
		recs := md.Store.TotalRecords()
		if recs > lt.recordsPeak {
			lt.recordsPeak = recs
		}
		if same && recs != lt.records[step] {
			same = false
		}
	}
	lt.coreRounds += rounds
	rep.expect(rounds == st.eng.RoundsRun, "core replay ran %d rounds, the engine %d", rounds, st.eng.RoundsRun)
	rep.expect(same, "core replay's per-step record counts differ from the engine's")
	rep.expect(md.Store.TotalRecords() == st.model.Store.TotalRecords(),
		"core replay ends with %d records, the engine with %d", md.Store.TotalRecords(), st.model.Store.TotalRecords())
}

// put writes the engine, route, core, traffic and fault metrics.
func (lt *layerTrace) put(v map[string]float64) {
	p := &lt.probe
	v["engine.step_us_p50"] = percentile(lt.stepNs, 50) / 1e3
	v["engine.step_us_p90"] = percentile(lt.stepNs, 90) / 1e3
	v["engine.step_self_share"] = 1 - ratio(float64(lt.routeNs), float64(lt.stepTotalNs))
	v["engine.inject_ns_mean"] = ratio(float64(lt.injectNs), float64(lt.injects))
	v["engine.harvest_us_mean"] = ratio(float64(lt.harvestNs), float64(lt.harvests)) / 1e3
	v["engine.moves"] = float64(p.moves)
	v["engine.stalls"] = float64(p.stalls)
	v["engine.move_ratio"] = ratio(float64(p.moves), float64(p.moves+p.stalls))
	v["engine.inflight_mean"] = ratio(float64(p.inflight), float64(p.steps))
	v["engine.allocs_per_step"] = ratio(float64(lt.mallocs), float64(lt.allocSteps))
	r := &lt.router
	v["route.decides"] = float64(r.decides)
	v["route.decide_ns_mean"] = ratio(float64(r.ns), float64(r.decides))
	v["route.decide_share"] = ratio(float64(lt.routeNs), float64(lt.stepTotalNs))
	v["route.backtracks"] = float64(r.backtracks)
	v["route.backtrack_ratio"] = ratio(float64(r.backtracks), float64(r.decides))
	v["route.fails"] = float64(r.fails)
	v["core.rounds"] = float64(lt.coreRounds)
	v["core.active_rounds"] = float64(lt.coreActive)
	v["core.round_us_mean"] = ratio(float64(lt.coreNs), float64(lt.coreRounds)) / 1e3
	v["core.active_round_us_mean"] = ratio(float64(lt.coreActiveNs), float64(lt.coreActive)) / 1e3
	v["core.records_peak"] = float64(lt.recordsPeak)
	v["core.share"] = ratio(float64(lt.coreNs), float64(lt.stepTotalNs))
	v["traffic.offers"] = float64(lt.offers)
	v["traffic.admit_ratio"] = ratio(float64(lt.admitted), float64(lt.offers))
	v["traffic.step_self_ns_mean"] = ratio(float64(lt.trafficSelfNs), float64(lt.trafficSteps))
	v["fault.generate_us_mean"] = ratio(float64(lt.generateNs), float64(lt.generates)) / 1e3
	v["fault.events_per_trial"] = ratio(float64(lt.events), float64(lt.generates))
}

func mesh32Traced(cfg runConfig) (*report, error) {
	rep := newReport()
	opt := mesh32Options(cfg.seed)
	c := cellFromLoad(opt)
	st, err := newStack(c.dims, c.lambda)
	if err != nil {
		return nil, err
	}
	replay := core.New(mesh.New(st.shape))
	want, err := ndmesh.LoadRun(opt)
	if !rep.expectNil(err, "LoadRun") {
		return rep, nil
	}
	// The library seeds a single cell with rng.New(seed).Split().
	t := now()
	bare, err := driveCell(st, &c, rng.New(opt.Seed).Split(), nil)
	bareS := since(t)
	if rep.expectNil(err, "bare step-loop cell") {
		rep.expect(bare == want, "step-loop cell differs from LoadRun: %+v vs %+v", bare, want)
	}
	var lt layerTrace
	t = now()
	got, err := driveCell(st, &c, rng.New(opt.Seed).Split(), &lt)
	tracedS := since(t)
	if rep.expectNil(err, "traced step-loop cell") {
		rep.expect(got == want, "traced cell differs from LoadRun: %+v vs %+v", got, want)
		rep.expectNil(conservation(pointCounts(got)), "traced mesh32-sat point")
		lt.replayCore(rep, replay, st)
	}
	v := rep.values
	lt.put(v)
	v["bench.trace_overhead_frac"] = tracedS/bareS - 1
	rep.note("traced cell %.3fs, bare step-loop cell %.3fs (%d steps)", tracedS, bareS, c.total())
	return rep, nil
}

func faultstormTraced(cfg runConfig) (*report, error) {
	rep := newReport()
	opt := faultstormOptions()
	nt := opt.Trials

	// par: the same sweep at one worker and at nproc, alternated.
	var oneS, allS []float64
	var rows []ndmesh.ReliabilityRow
	for i := 0; i < 2; i++ {
		for _, w := range []int{1, cfg.nproc} {
			t := now()
			got, err := ndmesh.ReliabilitySweepWorkers(opt, cfg.seed, w)
			d := since(t)
			if !rep.expectNil(err, "ReliabilitySweep") {
				return rep, nil
			}
			if w == 1 {
				oneS = append(oneS, d)
			} else {
				allS = append(allS, d)
			}
			if rows == nil {
				rows = got
			} else {
				rep.expect(slices.Equal(got, rows), "ReliabilitySweep at %d workers differs", w)
			}
		}
	}
	speedup := median(oneS) / median(allS)

	// Every trial of the sweep, serially through the step-loop copy: traced, then
	// replayed protocol-only, then bare. The streams are split in the
	// sweep's job order (cells outer, trials inner).
	st, err := newStack(opt.Dims, opt.Lambda)
	if err != nil {
		return nil, err
	}
	replay := core.New(mesh.New(st.shape))
	tracedRng, bareRng := rng.New(cfg.seed), rng.New(cfg.seed)
	var lt layerTrace
	var tracedS, bareS float64
	for cell, fr := range opt.FaultRates {
		c := cellFromReliability(opt, fr)
		var sum flightCounts
		retryDropped, failed := 0, 0
		for trial := 0; trial < nt; trial++ {
			t := now()
			got, err := driveCell(st, &c, tracedRng.Split(), &lt)
			tracedS += since(t)
			if !rep.expectNil(err, "traced step-loop trial") {
				return rep, nil
			}
			lt.replayCore(rep, replay, st)
			t = now()
			bare, err := driveCell(st, &c, bareRng.Split(), nil)
			bareS += since(t)
			if !rep.expectNil(err, "bare step-loop trial") {
				return rep, nil
			}
			rep.expect(got == bare, "trial %d at fault rate %v: timing router changed the outcome", trial, fr)
			rep.expectNil(conservation(pointCounts(got)), "traced mesh3d-faultstorm trial")
			sum.add(pointCounts(got))
			retryDropped += got.RetryDropped
			failed += got.Failed
		}
		row := rows[cell]
		rowSum := reliabilityCounts(row)
		rep.expect(sum == rowSum && retryDropped == row.RetryDropped && float64(failed)/float64(nt) == row.MeanFailed,
			"step-loop trials at fault rate %v fold to %+v, the sweep row holds %+v", fr, sum, rowSum)
	}
	v := rep.values
	lt.put(v)
	v["par.speedup"] = speedup
	v["par.efficiency"] = speedup / float64(cfg.nproc)
	v["bench.trace_overhead_frac"] = tracedS/bareS - 1
	rep.note("sweep at 1 worker %s; at %d workers %s", describe(oneS, "s"), cfg.nproc, describe(allS, "s"))
	rep.note("%d traced trials %.3fs, bare %.3fs", len(opt.FaultRates)*nt, tracedS, bareS)
	return rep, nil
}
