package ndmesh

import (
	"reflect"
	"testing"
)

// These tests pin the parallel experiment engine's determinism guarantee:
// for a fixed seed, every sweep must produce results identical to the
// serial path (workers=1) at any worker count. Run them under -race (CI
// does) to also certify the fan-out shares no mutable state.

var parWorkerCounts = []int{2, 3, 8}

func TestParallelTheoremSweepDeterministic(t *testing.T) {
	serial, err := TheoremSweepWorkers([]int{12, 12}, 10, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		got, err := TheoremSweepWorkers([]int{12, 12}, 10, 42, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != serial {
			t.Errorf("workers=%d: %+v != serial %+v", w, got, serial)
		}
	}
}

func TestParallelDegradationSweepDeterministic(t *testing.T) {
	opt := DefaultDegradation()
	opt.Dims = []int{12, 12}
	opt.Trials = 4
	opt.Intervals = []int{4, 32}
	serial, err := DegradationSweepWorkers(opt, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		got, err := DegradationSweepWorkers(opt, 7, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", w, got, serial)
		}
	}
}

func TestParallelConvergenceSweepDeterministic(t *testing.T) {
	shapes := [][]int{{12, 12}, {8, 8, 8}, {14, 14}}
	serial, err := ConvergenceSweepWorkers(shapes, 3, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		got, err := ConvergenceSweepWorkers(shapes, 3, 11, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", w, got, serial)
		}
	}
}

func TestParallelLambdaSweepDeterministic(t *testing.T) {
	serial, err := LambdaSweepWorkers([]int{12, 12}, []int{1, 4}, 4, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		got, err := LambdaSweepWorkers([]int{12, 12}, []int{1, 4}, 4, 5, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", w, got, serial)
		}
	}
}

func TestParallelMemorySweepDeterministic(t *testing.T) {
	shapes := [][]int{{12, 12}, {8, 8, 8}}
	serial, err := MemorySweepWorkers(shapes, []int{2, 4}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		got, err := MemorySweepWorkers(shapes, []int{2, 4}, 3, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", w, got, serial)
		}
	}
}

func TestParallelOscillationSweepDeterministic(t *testing.T) {
	serial, err := OscillationSweepWorkers([]int{12, 12}, 4, []int{4, 12}, 3, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		got, err := OscillationSweepWorkers([]int{12, 12}, 4, []int{4, 12}, 3, 9, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", w, got, serial)
		}
	}
}

func TestParallelTrafficSweepDeterministic(t *testing.T) {
	serial, err := TrafficSweepWorkers([]int{14, 14}, 8, 4, 10, 21, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		got, err := TrafficSweepWorkers([]int{14, 14}, 8, 4, 10, 21, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", w, got, serial)
		}
	}
}
