package main

import (
	"fmt"

	"ndmesh/internal/traffic"
)

// tally counts the operations and output checks a run attempted and the
// ones that failed; every failure keeps a line of explanation.
type tally struct {
	attempted, failed int
	failures          []string
}

// expect records one check; it reports ok.
func (t *tally) expect(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// expectNil records one check that err is nil.
func (t *tally) expectNil(err error, what string) bool {
	if err != nil {
		return t.expect(false, "%s: %v", what, err)
	}
	return t.expect(true, "")
}

// flightCounts are the measurement-window flight counters every result
// row carries.
type flightCounts struct {
	injected, delivered, unreachable, lost, timedOut, unfinished int
}

// conservation checks the accounting identity of a load run: every
// injected flight ends in exactly one outcome class.
func conservation(c flightCounts) error {
	sum := c.delivered + c.unreachable + c.lost + c.timedOut + c.unfinished
	if c.injected != sum {
		return fmt.Errorf("conservation broken: injected %d != delivered %d + unreachable %d + lost %d + timed out %d + unfinished %d (= %d)",
			c.injected, c.delivered, c.unreachable, c.lost, c.timedOut, c.unfinished, sum)
	}
	return nil
}

// add sums o into c.
func (c *flightCounts) add(o flightCounts) {
	c.injected += o.injected
	c.delivered += o.delivered
	c.unreachable += o.unreachable
	c.lost += o.lost
	c.timedOut += o.timedOut
	c.unfinished += o.unfinished
}

// String renders the counters for failure messages.
func (c flightCounts) String() string {
	return fmt.Sprintf("injected %d delivered %d unreachable %d lost %d timed out %d unfinished %d",
		c.injected, c.delivered, c.unreachable, c.lost, c.timedOut, c.unfinished)
}

// pointCounts extracts the counters of one load point.
func pointCounts(pt traffic.LoadPoint) flightCounts {
	return flightCounts{pt.Injected, pt.Delivered, pt.Unreachable, pt.Lost, pt.TimedOut, pt.Unfinished}
}

// simAgg folds result rows into the sim_ metrics: the mean accepted rate
// over rows, the delivered-weighted mean latency, and delivered/injected.
type simAgg struct {
	rows                 int
	accepted, latWeighed float64
	delivered, injected  int
}

func (a *simAgg) add(accepted, latMean float64, delivered, injected int) {
	a.rows++
	a.accepted += accepted
	a.latWeighed += latMean * float64(delivered)
	a.delivered += delivered
	a.injected += injected
}

// merge folds b's rows into a.
func (a *simAgg) merge(b simAgg) {
	a.rows += b.rows
	a.accepted += b.accepted
	a.latWeighed += b.latWeighed
	a.delivered += b.delivered
	a.injected += b.injected
}

// put writes the sim_ metrics into m.
func (a *simAgg) put(m map[string]float64) {
	m["sim_accepted"] = ratio(a.accepted, float64(a.rows))
	m["sim_latency_steps"] = ratio(a.latWeighed, float64(a.delivered))
	m["sim_delivered_frac"] = ratio(float64(a.delivered), float64(a.injected))
}
