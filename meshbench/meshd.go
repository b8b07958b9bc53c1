package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/rng"
	"ndmesh/internal/server"
)

// meshdCacheEntries bounds the result cache the benchmark's server runs
// with: fewer entries than one job set holds distinct specs, so the LRU
// evicts inside every batch.
const meshdCacheEntries = 4

// template is one catalogue entry of the meshd-mix job stream: a job spec
// (its seed drawn per job set), the response format, and how many times
// the job is repeated after its first submission.
type template struct {
	name    string
	format  string
	spec    server.Spec
	repeats int
}

// openLoop8x8 is the 8x8 open-loop grid the NDJSON and CSV entries share.
var openLoop8x8 = server.Spec{
	Kind: server.KindOpenLoop, Dims: []int{8, 8}, Lambda: 1,
	Routers: []string{"limited"}, Patterns: []string{"uniform", "transpose"},
	Rates: []float64{0.05, 0.1, 0.2, 0.3}, Process: "bernoulli",
	Warmup: 64, Measure: 256, Drain: 256, LinkRate: 1,
}

// catalogue lists the meshd-mix jobs. Every field the server would
// default is spelled out, so the spec a client sends is already canonical
// and the library sweep can be run from the same struct.
var catalogue = []template{
	{name: "open-loop", format: "ndjson", repeats: 1, spec: openLoop8x8},
	{name: "open-loop-csv", format: "csv", repeats: 1, spec: openLoop8x8},
	{name: "closed-loop", format: "ndjson", repeats: 1, spec: server.Spec{
		Kind: server.KindClosedLoop, Dims: []int{8, 8}, Lambda: 1,
		Routers: []string{"limited"}, Patterns: []string{"uniform"},
		Windows: []int{1, 4, 16},
		Warmup:  64, Measure: 256, Drain: 256, LinkRate: 1,
	}},
	{name: "reliability-3d", format: "ndjson", repeats: 1, spec: server.Spec{
		Kind: server.KindReliability, Dims: []int{4, 4, 4}, Lambda: 2,
		Routers: []string{"limited"}, Patterns: []string{"uniform"},
		FaultRates: []float64{0.05}, FaultModel: "bernoulli", FaultRepair: 60,
		Trials: 8, Rate: 0.03, Process: "bernoulli",
		Warmup: 64, Measure: 256, Drain: 256, LinkRate: 1,
		FlightTimeout: 48, RetryBackoff: 4,
	}},
	{name: "open-loop-bitrev-csv", format: "csv", repeats: 0, spec: server.Spec{
		Kind: server.KindOpenLoop, Dims: []int{8, 8}, Lambda: 1,
		Routers: []string{"limited"}, Patterns: []string{"bitrev"},
		Rates: []float64{0.15, 0.25}, Process: "bernoulli",
		Warmup: 64, Measure: 256, Drain: 256, LinkRate: 1,
	}},
}

// warmupJob is the small job every set-up submits once, so the timed
// window starts with the server's code paths and an 8x8 engine warm.
var warmupJob = jobSpec{
	name: "warm-up", format: "ndjson",
	body: []byte(`{"kind":"open-loop","dims":[8,8],"rates":[0.1],"warmup":16,"measure":32,"drain":16}`),
}

// jobSpec is one catalogue entry instantiated with a seed: what a client
// submits.
type jobSpec struct {
	name   string
	format string
	spec   server.Spec
	body   []byte
}

// job is one submission of a job set. after, when >= 0, is the index of
// the job that must complete first: a repeat waits for the result it
// repeats, so it is served from the cache rather than racing it.
type job struct {
	spec  int
	after int
}

// jobSet is one batch of the script: the seeded specs and the order in
// which clients submit them.
type jobSet struct {
	specs []jobSpec
	jobs  []job
}

// newScript draws the meshd-mix script from the workload seed: two job
// sets, each the whole catalogue under fresh spec seeds in a shuffled
// order, every repeat placed after the next first submission. Batches
// alternate between the two sets; each set holds more distinct specs than
// the cache, so by the time a set comes round again its entries have been
// evicted and every first submission misses.
func newScript(seed uint64) ([2]jobSet, error) {
	r := rng.New(seed)
	var sets [2]jobSet
	for s := range sets {
		set := &sets[s]
		for _, t := range catalogue {
			sp := t.spec
			sp.Seed = r.Uint64()
			body, err := json.Marshal(&sp)
			if err != nil {
				return sets, fmt.Errorf("encoding %s spec: %w", t.name, err)
			}
			set.specs = append(set.specs, jobSpec{name: t.name, format: t.format, spec: sp, body: body})
		}
		order := make([]int, len(catalogue))
		for i := range order {
			order[i] = i
		}
		for i := len(order) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		firstAt := make([]int, len(catalogue))
		repeat := func(spec int) {
			for k := 0; k < catalogue[spec].repeats; k++ {
				set.jobs = append(set.jobs, job{spec: spec, after: firstAt[spec]})
			}
		}
		for k, spec := range order {
			firstAt[spec] = len(set.jobs)
			set.jobs = append(set.jobs, job{spec: spec, after: -1})
			if k > 0 {
				repeat(order[k-1])
			}
		}
		repeat(order[len(order)-1])
	}
	return sets, nil
}

// rig is an in-process meshd server on a loopback listener and the HTTP
// client the benchmark drives it with.
type rig struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

// startRig starts a server with the benchmark's cache bound and checks it
// answers its health endpoint.
func startRig(clients int) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := server.New(server.Config{CacheEntries: meshdCacheEntries})
	rg := &rig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { rg.served <- rg.hs.Serve(ln) }()
	resp, err := rg.client.Get(rg.base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		rg.close()
		return nil, fmt.Errorf("meshd health check: %w", err)
	}
	return rg, nil
}

// close shuts the server down and waits for its serving goroutine.
func (rg *rig) close() {
	rg.client.CloseIdleConnections()
	_ = rg.hs.Shutdown(context.Background()) // every job has finished; nothing to drain
	<-rg.served
}

// response is what one submission returned. The span timestamps are
// recorded only in traced runs.
type response struct {
	status int
	cache  string
	body   []byte
	err    error

	submit, headers, first, last time.Time
}

// submit posts one job and reads its streamed body.
func (rg *rig) submit(js *jobSpec, traced bool) response {
	var res response
	if traced {
		res.submit = now()
	}
	resp, err := rg.client.Post(rg.base+"/v1/jobs?format="+js.format, "application/json", bytes.NewReader(js.body))
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if traced {
		res.headers = now()
	}
	res.status = resp.StatusCode
	res.cache = resp.Header.Get("X-Meshd-Cache")
	var body bytes.Buffer
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if traced && res.first.IsZero() {
				res.first = now()
			}
			body.Write(buf[:n])
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			res.err = err
			return res
		}
	}
	if traced {
		res.last = now()
	}
	res.body = body.Bytes()
	return res
}

// runBatch submits one job set from clients closed-loop clients: each
// takes the next job in script order once the job it depends on has
// completed.
func (rg *rig) runBatch(set *jobSet, clients int, traced bool) []response {
	out := make([]response, len(set.jobs))
	done := make([]chan struct{}, len(set.jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(set.jobs) {
					return
				}
				j := set.jobs[i]
				if j.after >= 0 {
					<-done[j.after]
				}
				out[i] = rg.submit(&set.specs[j.spec], traced)
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// meshdRun is the state of one meshd-mix run: the script, the rig, and
// the first body received for every (set, spec), which every later
// response for it must equal.
type meshdRun struct {
	cfg     runConfig
	clients int
	script  [2]jobSet
	rig     *rig
	bodies  [2][][]byte
	batches int
}

// batchStats is what a window of batches measured. durs holds the
// untraced batches' wall times, tracedDurs the traced ones'.
type batchStats struct {
	durs, tracedDurs     []float64
	jobs, rows           int
	hits, misses, refuse int
	hitMs, missMs        []float64
	headersMs, ttfbMs    []float64
	streamMs             []float64
	heapMiB              []float64
	seconds              float64
}

// window runs batches, alternating job sets, until the window has elapsed
// and checks every response against the first body of its spec. With
// interleave, every other pair of batches (one of each set) records
// request spans, so traced and untraced batches see the same host
// conditions. With a heap sampler it records each batch's peak live heap.
func (m *meshdRun) window(rep *report, interleave bool, heap *heapSampler) batchStats {
	var st batchStats
	start := now()
	for m.batches < 4 || since(start) < m.cfg.seconds {
		s := m.batches % 2
		set := &m.script[s]
		traced := interleave && m.batches/2%2 == 1
		t := now()
		resps := m.rig.runBatch(set, m.clients, traced)
		if traced {
			st.tracedDurs = append(st.tracedDurs, since(t))
		} else {
			st.durs = append(st.durs, since(t))
		}
		if heap != nil {
			st.heapMiB = append(st.heapMiB, heap.takeMiB())
		}
		m.batches++
		for i, res := range resps {
			js := &set.specs[set.jobs[i].spec]
			st.jobs++
			if !rep.expect(res.err == nil && res.status == http.StatusOK,
				"meshd %s job: status %d, error %v", js.name, res.status, res.err) {
				if res.status == http.StatusServiceUnavailable {
					st.refuse++
				}
				continue
			}
			rows := bytes.Count(res.body, []byte{'\n'})
			if js.format == "csv" {
				rows-- // the header line
			}
			st.rows += rows
			hit := res.cache == "hit"
			if hit {
				st.hits++
			} else {
				st.misses++
			}
			ref := &m.bodies[s][set.jobs[i].spec]
			if *ref == nil {
				rep.expect(!hit, "meshd %s: first response for its spec was a cache hit", js.name)
				*ref = res.body
			} else {
				rep.expect(bytes.Equal(res.body, *ref), "meshd %s: %s body differs from the first body for its spec", js.name, res.cache)
			}
			if traced {
				total := res.last.Sub(res.submit).Seconds() * 1000
				if hit {
					st.hitMs = append(st.hitMs, total)
				} else {
					st.missMs = append(st.missMs, total)
					st.headersMs = append(st.headersMs, res.headers.Sub(res.submit).Seconds()*1000)
					st.ttfbMs = append(st.ttfbMs, res.first.Sub(res.submit).Seconds()*1000)
					st.streamMs = append(st.streamMs, res.last.Sub(res.first).Seconds()*1000)
				}
			}
		}
	}
	st.seconds = since(start)
	return st
}

// newMeshdRun draws the script, starts the rig and submits a warm-up job;
// the set-up is timed setupReps times and the last rig is kept.
func newMeshdRun(cfg runConfig) (*meshdRun, float64, error) {
	m := &meshdRun{cfg: cfg, clients: cfg.nproc}
	var rigs []*rig
	setup, err := setupMedian(func() error {
		script, err := newScript(cfg.seed)
		if err != nil {
			return err
		}
		rg, err := startRig(m.clients)
		if err != nil {
			return err
		}
		rigs = append(rigs, rg)
		m.script = script
		res := rg.submit(&warmupJob, false)
		if res.err == nil && res.status != http.StatusOK {
			res.err = fmt.Errorf("answered %d", res.status)
		}
		if res.err != nil {
			return fmt.Errorf("meshd warm-up job: %w", res.err)
		}
		return nil
	})
	// Every set-up but the last is torn down outside the timed region.
	for len(rigs) > 1 || (err != nil && len(rigs) > 0) {
		rigs[0].close()
		rigs = rigs[1:]
	}
	if err != nil {
		return nil, 0, err
	}
	m.rig = rigs[0]
	for s := range m.bodies {
		m.bodies[s] = make([][]byte, len(catalogue))
	}
	return m, setup, nil
}

// verify runs outside the timed window: every spec that was served must
// match the library sweep rendered as the server renders it, each spec's
// canonical form must be the one the client sent, and the engine pool
// must be clean. It returns the sim_ aggregate over one cycle of the
// script (both job sets, every job, hits included).
func (m *meshdRun) verify(rep *report) simAgg {
	var agg simAgg
	for s := range m.script {
		set := &m.script[s]
		sims := make([]simAgg, len(set.specs))
		for i := range set.specs {
			js := &set.specs[i]
			parsed, err := server.ParseSpec(js.body)
			if rep.expectNil(err, "meshd "+js.name+" spec") {
				rep.expect(reflect.DeepEqual(*parsed, js.spec), "meshd %s: server canonicalizes the spec differently from the one sent", js.name)
			}
			want, rowSims, err := libraryBody(rep, js, m.cfg.nproc)
			if !rep.expectNil(err, "library sweep for "+js.name) {
				continue
			}
			sims[i] = rowSims
			if got := m.bodies[s][i]; got != nil {
				rep.expect(bytes.Equal(got, want), "meshd %s: served body differs from the library sweep", js.name)
			}
		}
		for _, j := range set.jobs {
			agg.merge(sims[j.spec])
		}
	}
	rep.expectNil(m.rig.srv.Pool().VerifyClean(), "meshd engine pool after the run")
	return agg
}

// libraryBody runs js's sweep through the library and renders the rows
// exactly as the server streams them, checking conservation on each row.
func libraryBody(rep *report, js *jobSpec, workers int) ([]byte, simAgg, error) {
	s := &js.spec
	var buf bytes.Buffer
	var agg simAgg
	ndjson := func(row any) {
		data, _ := json.Marshal(row) // result rows hold only finite numbers and strings
		buf.Write(append(data, '\n'))
	}
	switch s.Kind {
	case server.KindOpenLoop:
		rows, err := ndmesh.SaturationSweepWorkers(ndmesh.SaturationOptions{
			Dims: s.Dims, Lambda: s.Lambda,
			Routers: s.Routers, Patterns: s.Patterns, Rates: s.Rates,
			Process: s.Process,
			Warmup:  s.Warmup, Measure: s.Measure, Drain: s.Drain,
			LinkRate: s.LinkRate, NodeCapacity: s.NodeCapacity,
			FlightTimeout: s.FlightTimeout, RetryBackoff: s.RetryBackoff,
			Bubble: s.Bubble, GridlockWindow: s.GridlockWindow,
			Faults: s.Faults, FaultInterval: s.FaultInterval,
			Clustered: s.Clustered, FaultStart: s.FaultStart,
			FaultRate: s.FaultRate, FaultModel: s.FaultModel,
			FaultShape: s.FaultShape, FaultRepair: s.FaultRepair,
		}, s.Seed, workers)
		if err != nil {
			return nil, agg, err
		}
		if js.format == "csv" {
			buf.WriteString(cliutil.CSVHeader(cliutil.OpenLoopHeader()))
		}
		for _, r := range rows {
			if js.format == "csv" {
				buf.WriteString(cliutil.CSVLine(cliutil.OpenLoopCells(r)))
			} else {
				ndjson(r)
			}
			// Open-loop rows carry no timeout class; these specs set no
			// flight timeout, so none can occur.
			rep.expectNil(conservation(flightCounts{r.Injected, r.Delivered, r.Unreachable, r.Lost, 0, r.Unfinished}), js.name+" row")
			agg.add(r.AcceptedRate, r.LatMean, r.Delivered, r.Injected)
		}
	case server.KindClosedLoop:
		rows, err := ndmesh.ClosedLoopSweepWorkers(ndmesh.ClosedLoopOptions{
			Dims: s.Dims, Lambda: s.Lambda,
			Routers: s.Routers, Patterns: s.Patterns, Windows: s.Windows,
			Warmup: s.Warmup, Measure: s.Measure, Drain: s.Drain,
			LinkRate: s.LinkRate, NodeCapacity: s.NodeCapacity,
			FlightTimeout: s.FlightTimeout, RetryBackoff: s.RetryBackoff,
			Bubble: s.Bubble, GridlockWindow: s.GridlockWindow,
			Faults: s.Faults, FaultInterval: s.FaultInterval,
			Clustered: s.Clustered, FaultStart: s.FaultStart,
			FaultRate: s.FaultRate, FaultModel: s.FaultModel,
			FaultShape: s.FaultShape, FaultRepair: s.FaultRepair,
		}, s.Seed, workers)
		if err != nil {
			return nil, agg, err
		}
		for _, r := range rows {
			ndjson(r)
			rep.expectNil(conservation(flightCounts{r.Injected, r.Delivered, r.Unreachable, r.Lost, 0, r.Unfinished}), js.name+" row")
			agg.add(r.AcceptedRate, r.LatMean, r.Delivered, r.Injected)
		}
	case server.KindReliability:
		rows, err := ndmesh.ReliabilitySweepWorkers(ndmesh.ReliabilityOptions{
			Dims: s.Dims, Lambda: s.Lambda,
			Routers: s.Routers, Patterns: s.Patterns, FaultRates: s.FaultRates,
			FaultModel: s.FaultModel, FaultShape: s.FaultShape,
			FaultRepair: s.FaultRepair, Clustered: s.Clustered,
			Trials: s.Trials, Rate: s.Rate, Process: s.Process,
			Warmup: s.Warmup, Measure: s.Measure, Drain: s.Drain,
			LinkRate: s.LinkRate, NodeCapacity: s.NodeCapacity,
			FlightTimeout: s.FlightTimeout, RetryBackoff: s.RetryBackoff,
			Bubble: s.Bubble, GridlockWindow: s.GridlockWindow,
		}, s.Seed, workers)
		if err != nil {
			return nil, agg, err
		}
		for _, r := range rows {
			ndjson(r)
			rep.expectNil(conservation(reliabilityCounts(r)), js.name+" row")
			agg.add(r.AcceptedRate, r.LatMean, r.Delivered, r.Injected)
		}
	default:
		return nil, agg, fmt.Errorf("no library path for kind %q", s.Kind)
	}
	return buf.Bytes(), agg, nil
}

func meshdUntraced(cfg runConfig) (*report, error) {
	rep := newReport()
	m, setup, err := newMeshdRun(cfg)
	if err != nil {
		return nil, err
	}
	defer m.rig.close()
	heap := startHeapSampler()
	st := m.window(rep, false, heap)
	heap.stopSampling()
	agg := m.verify(rep)

	run := median(st.durs)
	cycleJobs := float64(len(m.script[0].jobs) + len(m.script[1].jobs))
	v := rep.values
	v["setup_s"] = setup
	v["run_s"] = run
	v["ops_per_s"] = cycleJobs / 2 / run
	v["msgs_per_s"] = float64(agg.delivered) / 2 / run
	v["heap_peak_mb"] = median(st.heapMiB)
	agg.put(v)
	rep.note("meshd-mix batches (%v jobs each, %d clients): %s", cycleJobs/2, m.clients, describe(st.durs, "s"))
	rep.note("jobs %d: %d hits, %d misses, %d refused; ops_per_s counts jobs", st.jobs, st.hits, st.misses, st.refuse)
	return rep, nil
}

func meshdTraced(cfg runConfig) (*report, error) {
	rep := newReport()
	m, _, err := newMeshdRun(cfg)
	if err != nil {
		return nil, err
	}
	defer m.rig.close()
	cs0, ps0 := m.rig.srv.CacheStats(), m.rig.srv.Pool().Stats()
	st := m.window(rep, true, nil)
	cs1, ps1 := m.rig.srv.CacheStats(), m.rig.srv.Pool().Stats()
	m.verify(rep)

	v := rep.values
	v["server.hit_ms_p50"] = percentile(st.hitMs, 50)
	v["server.hit_ms_p90"] = percentile(st.hitMs, 90)
	v["server.miss_ms_p50"] = percentile(st.missMs, 50)
	v["server.miss_ms_p90"] = percentile(st.missMs, 90)
	v["server.miss_ttfb_ms_p50"] = percentile(st.ttfbMs, 50)
	v["server.stream_ms_p50"] = percentile(st.streamMs, 50)
	v["server.rows_per_s"] = float64(st.rows) / st.seconds
	hits, misses := cs1.Hits-cs0.Hits, cs1.Misses-cs0.Misses
	v["server.cache_hits"] = float64(hits)
	v["server.cache_misses"] = float64(misses)
	v["server.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	v["server.cache_evictions"] = float64(cs1.Evictions - cs0.Evictions)
	v["server.refused"] = float64(st.refuse)
	built, acquired := ps1.Built-ps0.Built, ps1.Acquired-ps0.Acquired
	v["pool.built"] = float64(built)
	v["pool.acquired"] = float64(acquired)
	v["pool.reuse_ratio"] = ratio(float64(acquired), float64(acquired+built))
	v["pool.dropped"] = float64(ps1.Dropped - ps0.Dropped)
	v["bench.trace_overhead_frac"] = median(st.tracedDurs)/median(st.durs) - 1
	rep.note("untraced batches %s", describe(st.durs, "s"))
	rep.note("traced batches %s", describe(st.tracedDurs, "s"))
	rep.note("hit latency: %s", describe(st.hitMs, "ms"))
	rep.note("miss latency: %s", describe(st.missMs, "ms"))
	rep.note("miss time to headers: %s", describe(st.headersMs, "ms"))
	rep.note("miss time to first byte: %s", describe(st.ttfbMs, "ms"))
	rep.note("miss streaming: %s", describe(st.streamMs, "ms"))
	return rep, nil
}
