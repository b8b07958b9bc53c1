// Command meshbench is the repository's end-to-end benchmark. It runs one
// named workload through the library's public entry points
// (ndmesh.LoadRun, ndmesh.ReliabilitySweep) or through the meshd service
// layer over loopback HTTP, checks every output, and prints its metrics:
//
//	meshbench --workload mesh32-sat --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced variant, which times the benchmark's own calls into each
// layer (engine, route, core, traffic, fault, par, server, pool) and
// reports the per-layer metrics. End-to-end numbers never come from a
// traced run. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Lines before it, each starting with "#", give the environment and a
// human-readable summary. README.md documents workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"ops_per_s", "1/s"},
	{"msgs_per_s", "1/s"},
	{"heap_peak_mb", "MiB"},
	{"sim_accepted", "msgs/node/step"},
	{"sim_latency_steps", "steps"},
	{"sim_delivered_frac", "frac"},
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"engine.step_us_p50", "us"},
	{"engine.step_us_p90", "us"},
	{"engine.step_self_share", "frac"},
	{"engine.inject_ns_mean", "ns"},
	{"engine.harvest_us_mean", "us"},
	{"engine.moves", "count"},
	{"engine.stalls", "count"},
	{"engine.move_ratio", "frac"},
	{"engine.inflight_mean", "flights"},
	{"engine.allocs_per_step", "allocs"},
	{"route.decides", "count"},
	{"route.decide_ns_mean", "ns"},
	{"route.decide_share", "frac"},
	{"route.backtracks", "count"},
	{"route.backtrack_ratio", "frac"},
	{"route.fails", "count"},
	{"core.rounds", "count"},
	{"core.active_rounds", "count"},
	{"core.round_us_mean", "us"},
	{"core.active_round_us_mean", "us"},
	{"core.records_peak", "count"},
	{"core.share", "frac"},
	{"traffic.offers", "count"},
	{"traffic.admit_ratio", "frac"},
	{"traffic.step_self_ns_mean", "ns"},
	{"fault.generate_us_mean", "us"},
	{"fault.events_per_trial", "count"},
	{"par.speedup", "x"},
	{"par.efficiency", "frac"},
	{"server.hit_ms_p50", "ms"},
	{"server.hit_ms_p90", "ms"},
	{"server.miss_ms_p50", "ms"},
	{"server.miss_ms_p90", "ms"},
	{"server.miss_ttfb_ms_p50", "ms"},
	{"server.stream_ms_p50", "ms"},
	{"server.rows_per_s", "1/s"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.cache_hit_ratio", "frac"},
	{"server.cache_evictions", "count"},
	{"server.refused", "count"},
	{"pool.built", "count"},
	{"pool.acquired", "count"},
	{"pool.reuse_ratio", "frac"},
	{"pool.dropped", "count"},
	{"bench.trace_overhead_frac", "frac"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	nproc   int
}

// report is one run's outcome: the checks it made, the metric values it
// measured, and summary lines for humans.
type report struct {
	tally
	values map[string]float64
	notes  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// note adds one human-readable summary line.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named benchmark input: its untraced and traced runs.
type workload struct {
	name     string
	untraced func(runConfig) (*report, error)
	traced   func(runConfig) (*report, error)
}

var workloads = []workload{
	{"mesh32-sat", mesh32Untraced, mesh32Traced},
	{"mesh3d-faultstorm", faultstormUntraced, faultstormTraced},
	{"meshd-mix", meshdUntraced, meshdTraced},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: mesh32-sat | mesh3d-faultstorm | meshd-mix")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "meshbench: need --workload (mesh32-sat | mesh3d-faultstorm | meshd-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, nproc: runtime.NumCPU()}
	env, _ := json.Marshal(environment(cfg, wl.name, *trace))
	fmt.Printf("# env %s\n", env)

	runFn, defs := wl.untraced, endToEnd
	if *trace == 1 {
		runFn, defs = wl.traced, perLayer
	}
	rep, err := runFn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, f := range rep.failures {
		fmt.Printf("# FAILED CHECK: %s\n", f)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if rep.attempted < 1 {
		fmt.Fprintf(os.Stderr, "meshbench: %s attempted nothing\n", wl.name)
		return 1
	}
	// A traced run whose identity checks failed reports no per-layer
	// numbers: they would describe a step loop that is not the program's.
	if *trace == 0 || res.Correct {
		for _, d := range defs {
			v, ok := rep.values[d.name]
			if !ok && *trace == 0 {
				fmt.Fprintf(os.Stderr, "meshbench: %s did not measure %s\n", wl.name, d.name)
				return 1
			}
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// environment describes the host and the build, printed with every result.
func environment(cfg runConfig, name string, trace int) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      trace,
		"nproc":      cfg.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     commit,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// the file is absent).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// now, since and sinceNs are the benchmark's only clock reads outside the
// heap sampler's ticker; timing is the benchmark's output and never feeds a
// simulated result.
func now() time.Time {
	return time.Now() //meshvet:wallclock benchmark timing, never reaches a simulated result
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 {
	return time.Since(t).Seconds() //meshvet:wallclock benchmark timing, never reaches a simulated result
}

// sinceNs returns the nanoseconds elapsed from t.
func sinceNs(t time.Time) int64 {
	return int64(time.Since(t)) //meshvet:wallclock benchmark timing, never reaches a simulated result
}
