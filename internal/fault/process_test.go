package fault

import (
	"fmt"
	"math"
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/rng"
)

func processShape(t *testing.T) *grid.Shape {
	t.Helper()
	shape, err := grid.NewShape(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	return shape
}

// TestGenerateProcessDeterministic pins the purity contract: the same
// (shape, options, stream) yields the identical schedule, and different
// seeds yield different ones.
func TestGenerateProcessDeterministic(t *testing.T) {
	shape := processShape(t)
	opt := ProcessOptions{
		Arrival: Delay{Model: DelayBernoulli, Rate: 0.05},
		Repair:  Delay{Model: DelayBernoulli, Rate: 0.02},
		Start:   1, Horizon: 400, MinSpacing: 2,
	}
	a, err := GenerateProcess(shape, opt, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateProcess(shape, opt, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Events) != fmt.Sprint(b.Events) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a.Events, b.Events)
	}
	c, err := GenerateProcess(shape, opt, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Events) == fmt.Sprint(c.Events) {
		t.Fatal("different seeds produced the identical schedule")
	}
	if a.NumFaults() == 0 {
		t.Fatal("rate 0.05 over 400 steps produced no faults")
	}
}

// TestGenerateProcessSpansHorizon checks that arrivals land inside
// [Start, Horizon], honor the placement rules (no border, spacing against
// the live faulty set), and that repairs follow their failures.
func TestGenerateProcessSpansHorizon(t *testing.T) {
	shape := processShape(t)
	const start, horizon = 10, 600
	opt := ProcessOptions{
		Arrival: Delay{Model: DelayBernoulli, Rate: 0.08},
		Repair:  Delay{Model: DelayBernoulli, Rate: 0.05},
		Start:   start, Horizon: horizon, MinSpacing: 3,
	}
	sched, err := GenerateProcess(shape, opt, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumFaults() < 5 {
		t.Fatalf("expected a populated schedule, got %d faults", sched.NumFaults())
	}
	failAt := map[grid.NodeID]int{}
	sawLate := false
	for _, ev := range sched.Events {
		switch ev.Kind {
		case Fail:
			if ev.Step < start || ev.Step > horizon {
				t.Fatalf("fail at step %d outside [%d, %d]", ev.Step, start, horizon)
			}
			if shape.OnBorder(ev.Node) {
				t.Fatalf("fault on the outermost surface: node %v", shape.CoordOf(ev.Node))
			}
			if ev.Step > horizon/2 {
				sawLate = true
			}
			failAt[ev.Node] = ev.Step
		case Recover:
			fs, ok := failAt[ev.Node]
			if !ok || ev.Step <= fs {
				t.Fatalf("recover at step %d without a preceding fail (fail step %d)", ev.Step, fs)
			}
			delete(failAt, ev.Node)
		}
	}
	if !sawLate {
		t.Fatal("no arrival in the second half of the horizon — the process is front-loaded")
	}
}

// TestGenerateProcessRepairReopens checks that with repair enabled a node
// may fail more than once: the active set shrinks on repair, so a long
// horizon at a high rate revisits nodes.
func TestGenerateProcessRepairReopens(t *testing.T) {
	shape := processShape(t)
	opt := ProcessOptions{
		Arrival: Delay{Model: DelayBernoulli, Rate: 0.5},
		Repair:  Delay{Model: DelayBernoulli, Rate: 0.5},
		Start:   1, Horizon: 4000,
	}
	sched, err := GenerateProcess(shape, opt, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	fails := map[grid.NodeID]int{}
	refailed := false
	for _, ev := range sched.Events {
		if ev.Kind == Fail {
			fails[ev.Node]++
			if fails[ev.Node] > 1 {
				refailed = true
			}
		}
	}
	if !refailed {
		t.Fatal("4000 high-rate steps with repair never re-failed a node")
	}
}

// TestGenerateProcessMaxActive pins the concurrency cap: replaying the
// schedule in order, the faulty population never exceeds MaxActive.
func TestGenerateProcessMaxActive(t *testing.T) {
	shape := processShape(t)
	opt := ProcessOptions{
		Arrival: Delay{Model: DelayBernoulli, Rate: 0.4},
		Repair:  Delay{Model: DelayBernoulli, Rate: 0.05},
		Start:   1, Horizon: 1000,
		MaxActive: 3,
	}
	sched, err := GenerateProcess(shape, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, ev := range sched.Events {
		if ev.Kind == Fail {
			active++
		} else {
			active--
		}
		// Same-step repairs are conservatively counted still-faulty by the
		// generator, so the replay bound matches exactly.
		if active > opt.MaxActive {
			t.Fatalf("active faults %d exceed MaxActive %d at step %d", active, opt.MaxActive, ev.Step)
		}
	}
}

// TestGenerateProcessWeibull checks the weibull model: valid schedules,
// distinct from bernoulli at the same rate, and a shape-dependent draw.
func TestGenerateProcessWeibull(t *testing.T) {
	shape := processShape(t)
	wopt := ProcessOptions{
		Arrival: Delay{Model: DelayWeibull, Rate: 0.05, Shape: 2},
		Start:   1, Horizon: 800,
	}
	w, err := GenerateProcess(shape, wopt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	bopt := wopt
	bopt.Arrival = Delay{Model: DelayBernoulli, Rate: 0.05}
	b, err := GenerateProcess(shape, bopt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumFaults() == 0 || b.NumFaults() == 0 {
		t.Fatalf("empty schedules: weibull %d, bernoulli %d", w.NumFaults(), b.NumFaults())
	}
	if fmt.Sprint(w.Events) == fmt.Sprint(b.Events) {
		t.Fatal("weibull and bernoulli arrivals produced identical schedules")
	}
}

// TestGenerateProcessValidation covers the error paths.
func TestGenerateProcessValidation(t *testing.T) {
	shape := processShape(t)
	cases := []ProcessOptions{
		{Arrival: Delay{Model: "poisson", Rate: 0.1}, Horizon: 10},                 // unknown model
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0}, Horizon: 10},              // rate 0
		{Arrival: Delay{Model: DelayBernoulli, Rate: 1.5}, Horizon: 10},            // rate > 1
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.1}, Start: 20, Horizon: 10}, // horizon < start
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.1}, Horizon: 10,
			Repair: Delay{Model: "fixed", Rate: 0.1}}, // bad repair model
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.1}, Horizon: 10, MaxActive: -1},
		{Arrival: Delay{Model: DelayBernoulli, Rate: math.NaN()}, Horizon: 10},               // NaN rate
		{Arrival: Delay{Model: DelayBernoulli, Rate: math.Inf(1)}, Horizon: 10},              // +Inf rate
		{Arrival: Delay{Model: DelayWeibull, Rate: 0.1, Shape: math.NaN()}, Horizon: 10},     // NaN shape
		{Arrival: Delay{Model: DelayWeibull, Rate: 0.1, Shape: math.Inf(1)}, Horizon: 10},    // +Inf shape
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.1, Shape: math.Inf(-1)}, Horizon: 10}, // -Inf shape
		{Arrival: Delay{Model: DelayBernoulli, Rate: 0.1}, Horizon: 10,
			Repair: Delay{Model: DelayBernoulli, Rate: math.NaN()}}, // NaN repair rate
	}
	for i, opt := range cases {
		if _, err := GenerateProcess(shape, opt, rng.New(1)); err == nil {
			t.Errorf("case %d: expected an error, got none", i)
		}
	}
}

// TestWeibullTinyRateIsRare pins the Weibull draw's clamp: at a valid but
// tiny rate the mean delay dwarfs the int range, and an unclamped draw
// used to convert to a 1-step delay about half the time — a near-zero
// fault rate produced a fault almost every other step.
func TestWeibullTinyRateIsRare(t *testing.T) {
	d := Delay{Model: DelayWeibull, Rate: 1e-19, Shape: 1.5}
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		if n := d.Sample(r); n < 1<<20 {
			t.Fatalf("draw %d: delay %d steps at mean 1e19", i, n)
		}
	}
	sched, err := GenerateProcess(processShape(t), ProcessOptions{Arrival: d, Start: 1, Horizon: 4096}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := sched.NumFaults(); n != 0 {
		t.Fatalf("%d faults in 4096 steps at mean inter-arrival 1e19", n)
	}
}

// fuzzDelayModels maps a fuzzed byte onto a delay model: both real ones,
// disabled, and an unknown name.
var fuzzDelayModels = []string{DelayBernoulli, DelayWeibull, "", "poisson"}

// validFuzzDelay mirrors Delay.validate: the fuzz target checks that
// GenerateProcess accepts exactly the option sets this predicate admits.
func validFuzzDelay(d Delay) bool {
	if d.Model != DelayBernoulli && d.Model != DelayWeibull {
		return false
	}
	if !(d.Rate > 0 && d.Rate <= 1) || math.IsNaN(d.Shape) || math.IsInf(d.Shape, 0) {
		return false
	}
	return d.Model != DelayWeibull || d.Shape >= 0
}

// FuzzFaultProcess drives GenerateProcess over small 2-D and 3-D meshes
// with bounded Start/Horizon and fuzzed models, rates, shapes, repair,
// MaxActive, spacing and clustering. It must reject exactly the invalid
// option sets, and every schedule it returns must be step-sorted, keep
// each Fail inside [Start, Horizon] and off the outer surface, replay
// without failing a faulty node or recovering a healthy one, respect
// MaxActive, and come out identical from a second call with the same
// seed. The checked-in corpus (testdata/fuzz/FuzzFaultProcess) runs on
// every plain test run.
func FuzzFaultProcess(f *testing.F) {
	f.Add(uint64(1), false, uint8(8), uint8(8), uint8(0), uint8(0), 0.05, 0.0, uint8(0), 0.02, uint16(1), uint16(400), uint8(0), uint8(2), false)
	f.Add(uint64(2), true, uint8(4), uint8(4), uint8(4), uint8(1), 0.3, 1.5, uint8(1), 0.1, uint16(10), uint16(4096), uint8(3), uint8(0), true)
	f.Add(uint64(3), false, uint8(6), uint8(2), uint8(0), uint8(1), 1.0, 0.5, uint8(0), 1.0, uint16(0), uint16(2000), uint8(1), uint8(1), true)
	f.Add(uint64(4), false, uint8(5), uint8(5), uint8(0), uint8(0), math.NaN(), 0.0, uint8(2), 0.1, uint16(1), uint16(100), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, threeD bool, da, db, dc, arrival uint8, rate, k float64,
		repair uint8, repairRate float64, start, horizon uint16, maxActive, spacing uint8, clustered bool) {
		dims := []int{2 + int(da%9), 2 + int(db%9)}
		if threeD {
			dims = []int{2 + int(da%5), 2 + int(db%5), 2 + int(dc%5)}
		}
		shape := grid.MustShape(dims...)
		opt := ProcessOptions{
			Arrival:    Delay{Model: fuzzDelayModels[arrival%4], Rate: rate, Shape: k},
			Repair:     Delay{Model: fuzzDelayModels[repair%4], Rate: repairRate, Shape: k},
			Start:      int(start % 4097),
			Horizon:    int(horizon % 4097),
			MaxActive:  int(maxActive % 8),
			MinSpacing: int(spacing % 4),
			Clustered:  clustered,
		}
		sched, err := GenerateProcess(shape, opt, rng.New(seed))
		first := max(opt.Start, 1)
		valid := validFuzzDelay(opt.Arrival) && (opt.Repair.Model == "" || validFuzzDelay(opt.Repair)) &&
			opt.Horizon >= first
		if (err == nil) != valid {
			t.Fatalf("valid=%v but err=%v for %+v", valid, err, opt)
		}
		if err != nil {
			return
		}
		faulty := make(map[grid.NodeID]bool)
		for i, ev := range sched.Events {
			if i > 0 && ev.Step < sched.Events[i-1].Step {
				t.Fatalf("event %d at step %d sorts after step %d", i, ev.Step, sched.Events[i-1].Step)
			}
			switch ev.Kind {
			case Fail:
				if ev.Step < first || ev.Step > opt.Horizon {
					t.Fatalf("fail at step %d outside [%d, %d]", ev.Step, first, opt.Horizon)
				}
				if shape.OnBorder(ev.Node) {
					t.Fatalf("fault on the outer surface at %v", shape.CoordOf(ev.Node))
				}
				if faulty[ev.Node] {
					t.Fatalf("step %d fails node %v, already faulty", ev.Step, shape.CoordOf(ev.Node))
				}
				faulty[ev.Node] = true
				if opt.MaxActive > 0 && len(faulty) > opt.MaxActive {
					t.Fatalf("step %d: %d faulty nodes exceed MaxActive %d", ev.Step, len(faulty), opt.MaxActive)
				}
			case Recover:
				if !faulty[ev.Node] {
					t.Fatalf("step %d recovers healthy node %v", ev.Step, shape.CoordOf(ev.Node))
				}
				delete(faulty, ev.Node)
			default:
				t.Fatalf("event %d has unknown kind %v", i, ev.Kind)
			}
		}
		again, err := GenerateProcess(shape, opt, rng.New(seed))
		if err != nil {
			t.Fatalf("second call failed: %v", err)
		}
		if fmt.Sprint(again.Events) != fmt.Sprint(sched.Events) {
			t.Fatalf("same seed, different schedules:\n%v\n%v", sched.Events, again.Events)
		}
	})
}
