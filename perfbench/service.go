package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/sweep"
)

// gridBody is a POST /grids body: the JSON form of sweep.Grid that
// cmd/sweepd accepts.
type gridBody struct {
	Families   []string  `json:"families"`
	Ns         []int     `json:"ns"`
	Params     []int     `json:"params"`
	Epsilons   []float64 `json:"epsilons"`
	Engines    []string  `json:"engines"`
	Workloads  []string  `json:"workloads"`
	Rounds     int       `json:"rounds"`
	Replicates int       `json:"replicates"`
	BaseSeed   uint64    `json:"base_seed"`
}

func (b gridBody) grid() sweep.Grid {
	return sweep.Grid{Families: b.Families, Ns: b.Ns, Params: b.Params, Epsilons: b.Epsilons,
		Engines: b.Engines, Workloads: b.Workloads, Rounds: b.Rounds, Replicates: b.Replicates, BaseSeed: b.BaseSeed}
}

// submission is a grid ready to POST, with the scenarios it expands to.
type submission struct {
	body   []byte
	scs    []sweep.Scenario
	hashes []string
}

func newSubmission(b gridBody) (submission, error) {
	body, err := json.Marshal(b)
	if err != nil {
		return submission{}, err
	}
	scs, err := b.grid().Expand()
	if err != nil {
		return submission{}, err
	}
	hashes := make([]string, len(scs))
	for i, sc := range scs {
		hashes[i] = sc.Hash()
	}
	return submission{body, scs, hashes}, nil
}

// replicateGrid is one service-replicates cycle: 256 TDMA gossip
// scenarios on the hard family (n ∈ {48,64}, Δ ∈ {6,8}, ε = 0), 64
// replicates per point — the shape batch execution slices 64 lanes wide.
func replicateGrid(seed uint64) gridBody {
	return gridBody{
		Families: []string{sweep.FamilyHard}, Ns: []int{48, 64}, Params: []int{6, 8},
		Epsilons: []float64{0}, Engines: []string{sweep.EngineTDMA}, Workloads: []string{sweep.WorkloadGossip},
		Rounds: 3, Replicates: 64, BaseSeed: seed,
	}
}

// fetchJob follows a job's events to the end and fetches its records,
// checking each against the submission. It returns the raw record lines
// and how many events were cache hits.
func fetchJob(a api, id string, sent time.Time, sub submission, t *tally) ([]sweep.Record, [][]byte, int, bool) {
	events, cached, err := a.follow(id, sent)
	if !t.op(err) {
		return nil, nil, 0, false
	}
	recs, lines, err := a.jobRecords(id)
	if !t.op(err) {
		return nil, nil, 0, false
	}
	if !t.op(countsMatch(events, len(recs), len(sub.hashes))) {
		return nil, nil, 0, false
	}
	ok := true
	for i, r := range recs {
		ok = t.op(checkRecord(r, sub.hashes[i])) && ok
	}
	return recs, lines, cached, ok
}

func countsMatch(events, records, want int) error {
	if events != want || records != want {
		return fmt.Errorf("job streamed %d events and %d records, want %d", events, records, want)
	}
	return nil
}

// allCached checks a job over an already submitted grid executed
// nothing: every scenario came from the store or an in-flight execution.
func allCached(what, id string, cached, total int) error {
	if cached != total {
		return fmt.Errorf("%s %s executed %d scenarios, want 0", what, id, total-cached)
	}
	return nil
}

// executedOnce checks two concurrent jobs over one cold grid executed
// each scenario once between them: whichever job's task reaches a
// scenario first runs it, and the other job's task is served by the
// in-flight execution or the store.
func executedOnce(cachedBoth, total int) error {
	if ran := 2*total - cachedBoth; ran != total {
		return fmt.Errorf("two jobs over one cold grid of %d scenarios executed %d", total, ran)
	}
	return nil
}

// exactlyOnce checks sweepd's execution count against the number of
// unique scenarios submitted.
func exactlyOnce(executions float64, unique int) error {
	if int(executions) != unique {
		return fmt.Errorf("sweepd executed %d scenarios for %d unique submitted", int(executions), unique)
	}
	return nil
}

// sameDigest checks the service's records against the batch
// scheduler's for the same specs, timing fields stripped.
func sameDigest(service, batch []sweep.Record) error {
	a, err := digest(service)
	if err != nil {
		return err
	}
	b, err := digest(batch)
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("service records digest %s differs from batch digest %s", a, b)
	}
	return nil
}

// sameLines checks two jobs over one grid served byte-identical records.
func sameLines(a, b [][]byte) error {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return fmt.Errorf("record %d differs between two jobs over one grid", i)
		}
	}
	return nil
}

// setupsPerSegment is how many set-up samples the workload takes before
// its first cycle and at each segment boundary.
const setupsPerSegment = 3

// segmentCycles bounds the cycles one sweepd process serves. sweepd
// keeps every finished job in memory, so a single process would grow by
// hundreds of MB over a run, and its growing heap rather than the path
// under test would set the later cycles' times. The next segment's
// sweepd reopens the same store; its start, and the set-up samples taken
// at the boundary, are outside every timing and extend the run.
const segmentCycles = 32

// segment is one sweepd process of a run, the run's two connections to
// it, and its counters when the segment began.
type segment struct {
	d      *daemon
	c1, c2 api
	before map[string]float64
}

func openSegment(d *daemon) (*segment, error) {
	s := &segment{d: d, c1: api{newClient(), d.base, nil}, c2: api{newClient(), d.base, nil}}
	var err error
	if s.before, err = s.c1.metrics(); err != nil {
		d.stop()
		return nil, err
	}
	return s, nil
}

// close adds the segment's counter deltas into sum and stops its sweepd.
func (s *segment) close(sum map[string]float64) error {
	after, err := s.c1.metrics()
	for k, v := range delta(s.before, after) {
		sum[k] += v
	}
	s.c1.c.CloseIdleConnections()
	s.c2.c.CloseIdleConnections()
	s.d.stop()
	return err
}

// serviceReplicates is a closed loop with one client against sweepd
// serving the populated fixture store. Each cycle POSTs a cold
// replicate-heavy grid, POSTs the same grid again on a second
// connection while the first is in flight, follows both jobs' events
// and fetches their records, then resubmits the grid once it is fully
// stored.
func serviceReplicates(cfg config, t *tally) (outcome, error) {
	var out outcome
	dir, err := subdir(cfg, "svc")
	if err != nil {
		return out, err
	}
	// Set-up starts sweepd over the pristine fixture, and stops it again;
	// the workload's sweepd serves a copy, which its cycles append to.
	fixture, storePath := filepath.Join(dir, "fixture.jsonl"), filepath.Join(dir, "store.jsonl")
	nFixture, err := buildFixture(cfg, fixture)
	if err != nil {
		return out, err
	}
	for _, p := range [][2]string{{fixture, storePath}, {sweep.IndexPath(fixture), sweep.IndexPath(storePath)}} {
		if err := copyFile(p[0], p[1]); err != nil {
			return out, err
		}
	}
	setups := setupSamples{once: func() (time.Duration, error) {
		d, el, err := startDaemon(cfg.sweepd, fixture, cfg.procs)
		if err != nil {
			return 0, err
		}
		d.stop()
		return el, nil
	}}
	if err := setups.take(setupsPerSegment); err != nil {
		return out, err
	}
	d, _, err := startDaemon(cfg.sweepd, storePath, cfg.procs)
	if err != nil {
		return out, err
	}
	seg, err := openSegment(d)
	if err != nil {
		return out, err
	}
	defer func() { seg.d.stop() }() // stopping twice is a no-op

	hs := &httpStats{}
	obsDelta := map[string]float64{}
	var (
		jobs, warm, jobTraced, jobUntraced Samples
		rate                               Samples // verified cold scenarios per second, per cycle
		executed                           execTotals
		firstSub                           submission
		firstRecs, lastRecs                []sweep.Record
		lastScs                            []sweep.Scenario
		rss                                float64
		restarts                           time.Duration
		unique, segments                   = 0, 1
	)
	perCycle := 0
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		if cycle > 0 && cycle%segmentCycles == 0 {
			r := time.Now()
			if err := seg.close(obsDelta); err != nil {
				return out, err
			}
			if err := setups.take(setupsPerSegment); err != nil {
				return out, err
			}
			d, _, err := startDaemon(cfg.sweepd, storePath, cfg.procs)
			if err != nil {
				return out, err
			}
			next, err := openSegment(d)
			if err != nil {
				return out, err
			}
			seg = next
			segments++
			restarts += time.Since(r)
			deadline = deadline.Add(time.Since(r))
		}
		sub, err := newSubmission(replicateGrid(mix(cfg.seed, cycle)))
		if err != nil {
			return out, err
		}
		perCycle = len(sub.scs)
		traced := cfg.trace && cycle%2 == 1
		c1, c2 := seg.c1, seg.c2
		if traced {
			c1.h, c2.h = hs, hs
		}

		sent := time.Now()
		idA, err := c1.submit(sub.body)
		if !t.op(err) {
			continue
		}
		unique += len(sub.scs)
		idB, err := c2.submit(sub.body)
		if !t.op(err) {
			continue
		}
		recs, linesA, cachedA, ok := fetchJob(c1, idA, sent, sub, t)
		jt := time.Since(sent)
		if !ok {
			continue
		}
		_, linesB, cachedB, ok := fetchJob(c2, idB, sent, sub, t)
		if ok {
			t.op(sameLines(linesA, linesB))
			t.op(executedOnce(cachedA+cachedB, len(sub.scs)))
		}
		jobs.AddDuration(jt)
		if traced {
			jobTraced.AddDuration(jt)
		} else {
			jobUntraced.AddDuration(jt)
		}

		resent := time.Now()
		idC, err := c1.submit(sub.body)
		if t.op(err) {
			_, linesC, cachedC, ok := fetchJob(c1, idC, resent, sub, t)
			if ok {
				warm.AddDuration(time.Since(resent))
				t.op(sameLines(linesA, linesC))
				t.op(allCached("warm resubmit", idC, cachedC, len(sub.scs)))
			}
		}

		// Point reads of every 16th record: the served body must be the
		// record asked for.
		for i := 0; i < len(sub.hashes); i += 16 {
			t.op(c1.getRecord(sub.hashes[i]))
		}

		executed.add(recs)
		if cycle == 0 {
			firstSub, firstRecs = sub, recs
		}
		lastScs, lastRecs = sub.scs, recs
		rate.Add(float64(len(recs)) / time.Since(sent).Seconds())
		if cycle+1 == rssAfterCycles {
			rss = seg.d.peakRSSMB()
		}
	}
	window := time.Since(start) - restarts
	if rss == 0 {
		rss = seg.d.peakRSSMB()
	}
	if err := seg.close(obsDelta); err != nil {
		return out, err
	}
	// Exactly once: every unique scenario submitted ran once, however
	// many jobs asked for it.
	t.op(exactlyOnce(obsDelta["sweep.service.executions"], unique))
	if jobs.N() == 0 || warm.N() == 0 {
		return out, fmt.Errorf("service-replicates: no cycle completed")
	}
	out.note("samples: jobs=%d (%d scenarios each, plus a duplicate POST and a warm resubmit) on %d sweepd processes, setup reps=%d over a %d-record store",
		jobs.N(), perCycle, segments, setups.N(), nFixture)
	if q, v := jobs.Tail(10); q > 0 {
		out.note("job p%g=%.3f ms over %d samples (the tail is not gated: too noisy on a shared host)", 100*q, v, jobs.N())
	}

	if !cfg.trace {
		out.values = map[string]float64{
			"setup_s":         setups.Median(),
			"scenarios_per_s": rate.Median(),
			"job_p50_ms":      jobs.Median(),
			"resubmit_p50_ms": warm.Median(),
			"peak_rss_mb":     rss,
		}
		return out, nil
	}

	// The same specs through the batch scheduler must give the same
	// records, timing fields aside.
	batch, _, err := sweep.Run(firstSub.scs, sweep.NewMemStore(), sweep.Options{Jobs: cfg.procs})
	if t.op(err) {
		t.op(sameDigest(firstRecs, batch))
	}
	// Graph builds happen inside sweepd; time the same builds here.
	graphMs, _, err := buildCosts(lastScs)
	if err != nil {
		return out, err
	}
	probe, err := probeStoreFile(storePath, filepath.Join(dir, "probe"), lastRecs)
	if err != nil {
		return out, err
	}
	probe.gets = obsDelta["sweep.service.scenarios"] + obsDelta["sweep.service.executions"]
	probe.puts = obsDelta["sweep.service.executions"]
	out.values = perLayer(layerData{
		obs:          obsDelta,
		executed:     executed,
		graphBuildMs: graphMs,
		window:       window,
		parallelism:  cfg.procs,
		service:      true,
		store:        probe,
		http:         hs,
		overheadFrac: jobTraced.Median()/jobUntraced.Median() - 1,
	})
	out.note("traced jobs=%d untraced jobs=%d", jobTraced.N(), jobUntraced.N())
	return out, nil
}
