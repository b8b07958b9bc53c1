// sweep regenerates the experiment tables of EXPERIMENTS.md: the
// convergence, degradation, λ-ablation, memory and oscillation studies
// (E14-E17 of DESIGN.md) and the randomized validation of Theorems 3-5
// (E11-E13). Each experiment prints one aligned table; -csv switches to
// comma-separated output.
//
// Examples:
//
//	sweep -exp all
//	sweep -exp degradation -trials 100 -seed 7
//	sweep -exp theorems -trials 200
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/route"
	"ndmesh/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		exp      = flag.String("exp", "all", "experiment: convergence | degradation | lambda | memory | oscillation | theorems | traffic | saturation | congestion | closedloop | gridlock | reliability | all")
		seed     = flag.Uint64("seed", 1, "random seed")
		trials   = flag.Int("trials", 0, "trials per cell (0 = experiment default)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		workers  = flag.Int("workers", 0, "parallel trial workers (0 = all CPUs); results are identical for every value")
		preset   = flag.String("congestion", "", "congested-router tuning preset for the load experiments: off | mild | aggressive (empty = library defaults)")
		progress = flag.Bool("progress", false, "print per-cell completion of the load experiments (saturation/congestion/closedloop/gridlock) to stderr")
	)
	flag.Parse()

	var congestion route.CongestionConfig
	if *preset != "" {
		var err error
		if congestion, err = route.CongestionPresetByName(*preset); err != nil {
			log.Fatal(err)
		}
	}

	run := func(name string, fn func() (*stats.Table, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		tab, err := fn()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab.String())
		}
	}

	run("convergence", func() (*stats.Table, error) { return convergenceTable(*seed, *workers) })
	run("degradation", func() (*stats.Table, error) { return degradationTable(*seed, *trials, *workers) })
	run("lambda", func() (*stats.Table, error) { return lambdaTable(*seed, *trials, *workers) })
	run("memory", func() (*stats.Table, error) { return memoryTable(*seed, *workers) })
	run("oscillation", func() (*stats.Table, error) { return oscillationTable(*seed, *trials, *workers) })
	run("theorems", func() (*stats.Table, error) { return theoremsTable(*seed, *trials, *workers) })
	run("traffic", func() (*stats.Table, error) { return trafficTable(*seed, *workers) })
	run("saturation", func() (*stats.Table, error) {
		return saturationTable(*seed, *workers, congestion, loadProgress(*progress, "saturation"))
	})
	run("congestion", func() (*stats.Table, error) {
		return congestionTable(*seed, *workers, congestion, loadProgress(*progress, "congestion"))
	})
	run("closedloop", func() (*stats.Table, error) {
		return closedLoopTable(*seed, *workers, congestion, loadProgress(*progress, "closedLoop"))
	})
	run("gridlock", func() (*stats.Table, error) {
		return gridlockTable(*seed, *workers, congestion, loadProgress(*progress, "gridlock"))
	})
	run("reliability", func() (*stats.Table, error) {
		return reliabilityTable(*seed, *trials, *workers, congestion, loadProgress(*progress, "reliability"))
	})

	if *exp != "all" {
		switch *exp {
		case "convergence", "degradation", "lambda", "memory", "oscillation", "theorems", "traffic", "saturation", "congestion", "closedloop", "gridlock", "reliability":
		default:
			log.Printf("unknown experiment %q", *exp)
			flag.Usage()
			os.Exit(2)
		}
	}
}

// loadProgress builds the per-cell stderr progress callback for the load
// experiments (nil when -progress is off).
func loadProgress(enabled bool, exp string) func(done, total int) {
	return cliutil.Progress(enabled, "sweep "+exp)
}

func trafficTable(seed uint64, workers int) (*stats.Table, error) {
	tab := stats.NewTable("E18 traffic: 24 concurrent messages, 16x16, 8 dynamic faults",
		"interval", "router", "arrived%", "extra (mean)", "backtracks", "max steps")
	for _, interval := range []int{4, 16} {
		rows, err := ndmesh.TrafficSweepWorkers([]int{16, 16}, 24, 8, interval, seed, workers)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			tab.AddRow(interval, r.Router, r.ArrivedPct, r.MeanExtra, r.TotalBack, r.MaxSteps)
		}
	}
	return tab, nil
}

func congestionTable(seed uint64, workers int, congestion route.CongestionConfig, progress func(done, total int)) (*stats.Table, error) {
	opt := ndmesh.DefaultCongestionShift()
	opt.Congestion = congestion
	opt.Progress = progress
	rows, summaries, err := ndmesh.CongestionShiftSweepWorkers(opt, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E20 congestion shift: 8x8, capacity 8, limited vs congested on identical scenarios",
		"pattern", "offered", "lim acc", "cong acc", "lim drop", "cong drop", "lim lat", "cong lat", "shift")
	for _, r := range rows {
		tab.AddRow(r.Pattern, fmt.Sprintf("%.2f", r.OfferedRate),
			fmt.Sprintf("%.3f", r.LimitedAccepted), fmt.Sprintf("%.3f", r.CongestedAccepted),
			r.LimitedDropped, r.CongestedDropped, r.LimitedLatMean, r.CongestedLatMean, "")
	}
	for _, s := range summaries {
		tab.AddRow(s.Pattern, "peak",
			fmt.Sprintf("%.3f", s.LimitedSatAccepted), fmt.Sprintf("%.3f", s.CongestedSatAccepted),
			"", "", "", "", fmt.Sprintf("%+.1f%%", s.ShiftPct))
	}
	return tab, nil
}

func closedLoopTable(seed uint64, workers int, congestion route.CongestionConfig, progress func(done, total int)) (*stats.Table, error) {
	opt := ndmesh.DefaultClosedLoop()
	opt.Congestion = congestion
	opt.Progress = progress
	rows, err := ndmesh.ClosedLoopSweepWorkers(opt, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E21 closed loop: 8x8, window-size vs delivered throughput/latency (population-limited)",
		"pattern", "router", "window", "inj rate", "accepted", "delivered", "unfin", "lat mean", "p50", "p99")
	for _, r := range rows {
		tab.AddRow(r.Pattern, r.Router, r.Window, fmt.Sprintf("%.3f", r.InjectedRate),
			fmt.Sprintf("%.3f", r.AcceptedRate), r.Delivered, r.Unfinished, r.LatMean, r.LatP50, r.LatP99)
	}
	return tab, nil
}

func gridlockTable(seed uint64, workers int, congestion route.CongestionConfig, progress func(done, total int)) (*stats.Table, error) {
	opt := ndmesh.DefaultGridlock()
	opt.Congestion = congestion
	opt.Progress = progress
	rows, err := ndmesh.GridlockSweepWorkers(opt, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E22 gridlock phase diagram: 8x8 closed loop, finite buffers, escape mechanism as the comparison axis",
		"pattern", "window", "cap", "faults", "mechanism", "gridlocked", "gstep", "recovery", "accepted", "delivered", "timedout", "retried", "unfin", "lat mean", "p99")
	for _, r := range rows {
		gl := ""
		if r.Gridlocked {
			gl = "GRIDLOCK"
		}
		tab.AddRow(r.Pattern, r.Window, r.Capacity, r.Faults, r.Mechanism, gl,
			r.GridlockStep, r.RecoverySteps, fmt.Sprintf("%.3f", r.AcceptedRate),
			r.Delivered, r.TimedOut, r.Retried, r.Unfinished, r.LatMean, r.LatP99)
	}
	return tab, nil
}

func reliabilityTable(seed uint64, trials, workers int, congestion route.CongestionConfig, progress func(done, total int)) (*stats.Table, error) {
	opt := ndmesh.DefaultReliability()
	opt.Routers = []string{"limited", "congested"}
	if trials > 0 {
		opt.Trials = trials
	}
	opt.Congestion = congestion
	opt.Progress = progress
	rows, err := ndmesh.ReliabilitySweepWorkers(opt, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E23 reliability: 8x8 open loop under a live fault process, Monte-Carlo per cell",
		"pattern", "rate", "router", "trials", "delivered%", "unreach%", "lost%", "timedout%", "accepted", "rdrop", "failed", "recovered", "glk", "lat mean", "p99")
	for _, r := range rows {
		tab.AddRow(r.Pattern, fmt.Sprintf("%.3f", r.FaultRate), r.Router, r.Trials,
			fmt.Sprintf("%.3f", r.DeliveredFrac), fmt.Sprintf("%.3f", r.UnreachableFrac),
			fmt.Sprintf("%.3f", r.LostFrac), fmt.Sprintf("%.3f", r.TimedOutFrac),
			fmt.Sprintf("%.3f", r.AcceptedRate), r.RetryDropped, fmt.Sprintf("%.1f", r.MeanFailed),
			fmt.Sprintf("%.1f", r.MeanRecovered), r.GridlockedTrials, r.LatMean, r.LatP99Mean)
	}
	return tab, nil
}

func saturationTable(seed uint64, workers int, congestion route.CongestionConfig, progress func(done, total int)) (*stats.Table, error) {
	opt := ndmesh.DefaultSaturation()
	opt.Routers = []string{"limited", "congested", "blind"}
	opt.Rates = []float64{0.05, 0.15, 0.3}
	opt.Warmup, opt.Measure, opt.Drain = 32, 128, 128
	opt.Congestion = congestion
	opt.Progress = progress
	rows, err := ndmesh.SaturationSweepWorkers(opt, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E19 saturation: 8x8, contention (link-rate 1), Bernoulli injection",
		"pattern", "router", "offered", "accepted", "delivered", "unfin", "lat mean", "p50", "p99")
	for _, r := range rows {
		tab.AddRow(r.Pattern, r.Router, fmt.Sprintf("%.2f", r.OfferedRate), fmt.Sprintf("%.3f", r.AcceptedRate),
			r.Delivered, r.Unfinished, r.LatMean, r.LatP50, r.LatP99)
	}
	return tab, nil
}

func convergenceTable(seed uint64, workers int) (*stats.Table, error) {
	rows, err := ndmesh.ConvergenceSweepWorkers([][]int{
		{16, 16}, {24, 24}, {10, 10, 10}, {6, 6, 6, 6}, {5, 5, 5, 5, 5},
	}, 4, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E14 convergence: one growing block per mesh (rounds)",
		"mesh", "N", "fault#", "e_max", "a_i", "b_i", "c_i", "affected", "records")
	for _, r := range rows {
		tab.AddRow(r.Dims, r.N, r.FaultIndex, r.EMax, r.ARounds, r.BRounds, r.CRounds, r.Affected, r.Records)
	}
	return tab, nil
}

func degradationTable(seed uint64, trials, workers int) (*stats.Table, error) {
	opt := ndmesh.DefaultDegradation()
	if trials > 0 {
		opt.Trials = trials
	}
	rows, err := ndmesh.DegradationSweepWorkers(opt, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("E15 degradation: %v, F=%d, %d trials/cell (routing under dynamic faults)",
			opt.Dims, opt.Faults, opt.Trials),
		"interval", "router", "success%", "steps", "extra", "backtracks", "p95 extra")
	for _, r := range rows {
		tab.AddRow(r.Interval, r.Router, r.SuccessPct, r.MeanSteps, r.MeanExtra, r.MeanBack, r.P95Extra)
	}
	return tab, nil
}

func lambdaTable(seed uint64, trials, workers int) (*stats.Table, error) {
	if trials == 0 {
		trials = 30
	}
	rows, err := ndmesh.LambdaSweepWorkers([]int{16, 16}, []int{1, 2, 4, 8}, trials, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("E15b lambda ablation: 16x16, clustered faults under the message, %d trials", trials),
		"lambda", "router", "success%", "extra hops", "backtracks")
	for _, r := range rows {
		tab.AddRow(r.Lambda, r.Router, r.SuccessPct, r.MeanExtra, r.MeanBack)
	}
	return tab, nil
}

func memoryTable(seed uint64, workers int) (*stats.Table, error) {
	rows, err := ndmesh.MemorySweepWorkers([][]int{
		{16, 16}, {32, 32}, {10, 10, 10}, {6, 6, 6, 6},
	}, []int{2, 4, 8}, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("E16 memory: limited-information records vs. global tables",
		"mesh", "N", "F", "records", "nodes w/ info", "% of N", "global N*F")
	for _, r := range rows {
		tab.AddRow(r.Dims, r.N, r.Faults, r.Records, r.NodesWithInfo, r.NodePct, r.GlobalEntries)
	}
	return tab, nil
}

func oscillationTable(seed uint64, trials, workers int) (*stats.Table, error) {
	if trials == 0 {
		trials = 20
	}
	rows, err := ndmesh.OscillationSweepWorkers([]int{16, 16}, 6, []int{2, 4, 8, 16, 32}, trials, seed, workers)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("E17 oscillation/locality: 16x16, 6 clustered faults, %d trials", trials),
		"interval", "affected/event", "a rounds (mean)", "a rounds (max)")
	for _, r := range rows {
		tab.AddRow(r.Interval, r.MeanAffected, r.MeanARounds, r.MaxARounds)
	}
	return tab, nil
}

func theoremsTable(seed uint64, trials, workers int) (*stats.Table, error) {
	if trials == 0 {
		trials = 60
	}
	tab := stats.NewTable(
		fmt.Sprintf("E11-E13 theorem validation: randomized conforming schedules, %d trials/mesh", trials),
		"mesh", "trials", "safe", "unsafe", "skipped", "arrived", "viol T3", "viol T4", "viol T5", "extra (mean)", "bound (mean)")
	for _, dims := range [][]int{{16, 16}, {10, 10, 10}} {
		rep, err := ndmesh.TheoremSweepWorkers(dims, trials, seed, workers)
		if err != nil {
			return nil, err
		}
		tab.AddRow(strings.Trim(fmt.Sprint(dims), "[]"), rep.Trials, rep.SafeTrials, rep.UnsafeTrials,
			rep.PremiseSkipped, rep.Arrived, rep.Violations3, rep.Violations4, rep.Violations5,
			rep.MeanExtraHops, rep.MeanDetourBound)
	}
	return tab, nil
}
