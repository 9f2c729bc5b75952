package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// flatten turns an obs snapshot into the same name → value map a
// /metrics scrape gives: counters, gauges and funcs by value, timers and
// histograms by sum with their count under name + "#count".
func flatten(ms []obs.Metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		switch m.Kind {
		case "timer", "histogram":
			out[m.Name] = float64(m.Sum)
			out[m.Name+"#count"] = float64(m.Count)
		default:
			out[m.Name] = float64(m.Value)
		}
	}
	return out
}

// delta is after − before, name by name.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// timedStore is a sweep.StoreEngine decorator that times every Get and
// Put from the caller's side, in microseconds.
type timedStore struct {
	sweep.StoreEngine
	mu       sync.Mutex
	get, put Samples
}

func (t *timedStore) Get(hash string) (sweep.Record, bool) {
	start := time.Now()
	rec, ok := t.StoreEngine.Get(hash)
	t.observe(&t.get, time.Since(start))
	return rec, ok
}

func (t *timedStore) Put(rec sweep.Record) error {
	start := time.Now()
	err := t.StoreEngine.Put(rec)
	t.observe(&t.put, time.Since(start))
	return err
}

func (t *timedStore) observe(s *Samples, d time.Duration) {
	t.mu.Lock()
	s.Add(float64(d) / float64(time.Microsecond))
	t.mu.Unlock()
}

// layerData is everything the per-layer metrics are computed from: obs
// deltas over the measured window, measurements the harness took itself
// by timing calls into public functions, and the records the run
// produced.
type layerData struct {
	obs map[string]float64 // obs registry delta (in-process or /metrics)

	executed     execTotals    // records executed cold in the window
	graphBuildMs float64       // mean Scenario.BuildGraph time, ms
	codesBuildMs float64       // mean core.BuildCodes time, ms
	window       time.Duration // wall time of the measured window
	parallelism  int
	service      bool // the scheduler is a sweep.Service (sweepd)
	store        storeProbe
	http         *httpStats
	overheadFrac float64
}

// execTotals sums what the per-layer metrics need from executed
// records, so a run need not keep the records themselves.
type execTotals struct {
	executeNanos     int64 // Σ build_nanos + wall_nanos
	coreRun, tdmaRun time.Duration
	tdmaScenarios    int
}

func (e *execTotals) add(recs []sweep.Record) {
	for _, r := range recs {
		e.executeNanos += r.BuildNanos + r.WallNanos
		switch r.Spec.Engine {
		case sweep.EngineAlg1:
			e.coreRun += time.Duration(r.WallNanos)
		case sweep.EngineTDMA:
			e.tdmaRun += time.Duration(r.WallNanos)
			e.tdmaScenarios++
		}
	}
}

// storeProbe is the store layer measured by the harness: caller-side
// Get/Put latencies (µs), open and compaction times, record codec cost.
type storeProbe struct {
	get, put              Samples
	gets, puts            float64
	openMs, openRebuildMs float64
	compactMs             float64
	encodeUs, decodeUs    float64
}

// perLayer computes every per-layer metric. Layers a workload never
// reaches read 0.
func perLayer(d layerData) map[string]float64 {
	o := d.obs
	ms := func(name string) float64 { return o[name] / 1e6 }
	m := map[string]float64{}

	e := d.executed
	executeNanos, coreRun, tdmaRun, tdmaScenarios := e.executeNanos, e.coreRun, e.tdmaRun, e.tdmaScenarios

	// The artifact cache builds each missed key once; its misses in the
	// window times the build cost measured from outside is the layer's time.
	graphMs := o["sim.cache.graph_misses"] * d.graphBuildMs
	codesMs := o["sim.cache.code_misses"] * d.codesBuildMs
	m["graph.build_ms"] = graphMs
	m["graph.builds"] = o["sim.cache.graph_misses"]
	m["codes.build_ms"] = codesMs
	m["sim.cache.graph_hit_ratio"] = ratio(o["sim.cache.graph_hits"], o["sim.cache.graph_hits"]+o["sim.cache.graph_misses"])
	m["sim.cache.code_hit_ratio"] = ratio(o["sim.cache.code_hits"], o["sim.cache.code_hits"]+o["sim.cache.code_misses"])

	m["core.run_ms"] = float64(coreRun) / 1e6
	m["core.phase.decode_ms"] = ms("core.phase.decode_nanos")
	m["core.phase.radio1_ms"] = ms("core.phase.radio1_nanos")
	m["core.phase.radio2_ms"] = ms("core.phase.radio2_nanos")
	m["core.phase.collect_ms"] = ms("core.phase.collect_nanos")
	m["core.decode.members"] = o["core.decode.members"]

	m["baseline.run_ms"] = float64(tdmaRun) / 1e6
	m["tdma.phase.decode_ms"] = ms("tdma.phase.decode_nanos")
	m["tdma.phase.radio_ms"] = ms("tdma.phase.radio_nanos")
	m["tdma.phase.encode_ms"] = ms("tdma.phase.encode_nanos")
	// Only TDMA slices, so every sliced execution is a TDMA one; the
	// TDMA scenarios not covered by sliced lanes ran one per execution.
	slicedExecs, slicedLanes := o["sweep.exec.sliced_lanes#count"], o["sweep.exec.sliced_lanes"]
	m["baseline.sliced_lanes_mean"] = ratio(float64(tdmaScenarios), slicedExecs+float64(tdmaScenarios)-slicedLanes)

	m["beep.rounds"] = o["beep.rounds"]
	m["beep.window_ms"] = ms("beep.window_nanos")
	var flips float64
	for k, v := range o {
		if strings.HasPrefix(k, "noise.flips.") {
			flips += v
		}
	}
	m["noise.flips"] = flips
	m["engine.pool.wait_ms"] = ms("pool.do_wait_nanos")

	m["sweep.execute_ms"] = float64(executeNanos) / 1e6
	m["sweep.busy_frac"] = ratio(float64(executeNanos), float64(d.window)*float64(d.parallelism))
	if d.service {
		m["sweep.store.hit_ratio"] = ratio(o["sweep.service.store_hits"], o["sweep.service.scenarios"])
	} else {
		m["sweep.store.hit_ratio"] = ratio(o["sweep.store.hits"], o["sweep.store.hits"]+o["sweep.store.misses"])
	}
	m["sweep.service.executions"] = o["sweep.service.executions"]
	m["sweep.service.singleflight_hits"] = o["sweep.service.singleflight_hits"]

	s := d.store
	m["store.get_us_p50"] = s.get.Quantile(0.5)
	m["store.get_us_p99"] = s.get.Quantile(0.99)
	m["store.gets"] = s.gets
	m["store.put_us_p50"] = s.put.Quantile(0.5)
	m["store.put_us_p99"] = s.put.Quantile(0.99)
	m["store.puts"] = s.puts
	m["store.open_ms"] = s.openMs
	m["store.open_rebuild_ms"] = s.openRebuildMs
	m["store.compact_ms"] = s.compactMs
	m["record.encode_us"] = s.encodeUs
	m["record.decode_us"] = s.decodeUs

	h := d.http
	if h == nil {
		h = &httpStats{}
	}
	m["sweep.service.first_event_ms"] = h.firstEvent.Median()
	m["http.get_ttfb_ms_p50"] = h.getTTFB.Quantile(0.5)
	m["http.get_ttfb_ms_p99"] = h.getTTFB.Quantile(0.99)
	m["http.submit_ms_p50"] = h.submit.Quantile(0.5)
	m["http.job_records_ms_p50"] = h.jobRecords.Quantile(0.5)
	m["http.conn_reuse_ratio"] = ratio(float64(h.connsReuse), float64(h.conns))

	m["trace.overhead_frac"] = d.overheadFrac

	// The layer tree: scenario execution (build + run, as the records
	// report it) splits into graph build, code tables and the two engine
	// runs, each engine run into its phases. Store operations sit beside
	// execution.
	ns := func(msv float64) time.Duration { return time.Duration(msv * 1e6) }
	phase := func(name string) Layer { return Layer{Name: name, Total: time.Duration(o[name])} }
	layers := []Layer{
		{Name: "sweep.execute", Total: time.Duration(executeNanos), Children: []Layer{
			{Name: "graph.build", Total: ns(graphMs)},
			{Name: "codes.build", Total: ns(codesMs)},
			{Name: "core.run", Total: coreRun, Children: []Layer{
				phase("core.phase.radio1_nanos"), phase("core.phase.radio2_nanos"),
				phase("core.phase.decode_nanos"), phase("core.phase.collect_nanos"),
			}},
			{Name: "baseline.run", Total: tdmaRun, Children: []Layer{
				phase("tdma.phase.encode_nanos"), phase("tdma.phase.radio_nanos"), phase("tdma.phase.decode_nanos"),
			}},
		}},
	}
	if !d.service {
		layers = append(layers,
			Layer{Name: "store.get", Total: ns(s.get.Sum() / 1e3)},
			Layer{Name: "store.put", Total: ns(s.put.Sum() / 1e3)})
	}
	m["layers.self_sum_frac"] = SelfSumFrac(layers, d.window, d.parallelism)
	return m
}

// buildCosts times, from outside, what the artifact cache builds for
// scenarios: one Scenario.BuildGraph per distinct graph key and one
// core.BuildCodes per distinct Algorithm 1 parameterization. It returns
// the mean time of each, in ms (0 when scs needs none).
func buildCosts(scs []sweep.Scenario) (graphMs, codesMs float64, err error) {
	seenG := map[sim.GraphKey]bool{}
	seenP := map[core.Params]bool{}
	for _, sc := range scs {
		k := sim.GraphKey{Family: sc.Family, N: sc.N, Param: sc.Param, Seed: sc.GraphSeed}
		if seenG[k] {
			continue
		}
		seenG[k] = true
		t := time.Now()
		g, err := sc.BuildGraph()
		if err != nil {
			return 0, 0, err
		}
		graphMs += float64(time.Since(t)) / 1e6
		if sc.Engine != sweep.EngineAlg1 {
			continue
		}
		wl, _ := sim.WorkloadFor(sc.Workload)
		msgBits := sc.MsgBits
		if msgBits == 0 {
			msgBits = wl.MsgBits(g)
		}
		p, err := core.DefaultParamsNoise(g.N(), g.MaxDegree(), msgBits, sc.Epsilon, sc.Noise)
		if err != nil {
			return 0, 0, err
		}
		if seenP[p] {
			continue
		}
		seenP[p] = true
		t = time.Now()
		if _, err := core.BuildCodes(p); err != nil {
			return 0, 0, err
		}
		codesMs += float64(time.Since(t)) / 1e6
	}
	return graphMs / float64(max(len(seenG), 1)), codesMs / float64(max(len(seenP), 1)), nil
}

// probeStoreFile measures the store layer on a copy of the store at
// path, never on the store itself: Put of sample into a fresh store,
// OpenIndexed with the sidecar, Get of every sampled hash, OpenIndexed
// after deleting the sidecar (the rebuild path), and Compact. It also
// times sweep.EncodeLine and sweep.DecodeRecord over sample.
func probeStoreFile(path, dir string, sample []sweep.Record) (storeProbe, error) {
	var p storeProbe
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)

	fresh, err := sweep.OpenIndexed(filepath.Join(dir, "fresh.jsonl"))
	if err != nil {
		return p, err
	}
	ts := &timedStore{StoreEngine: fresh}
	for _, r := range sample {
		if err := ts.Put(r); err != nil {
			fresh.Close()
			return p, err
		}
	}
	if err := fresh.Close(); err != nil {
		return p, err
	}
	p.put = ts.put

	cp := filepath.Join(dir, "copy.jsonl")
	if err := copyFile(path, cp); err != nil {
		return p, err
	}
	if err := copyFile(sweep.IndexPath(path), sweep.IndexPath(cp)); err != nil {
		return p, err
	}
	t := time.Now()
	st, err := sweep.OpenIndexed(cp)
	if err != nil {
		return p, err
	}
	p.openMs = float64(time.Since(t)) / 1e6
	ts = &timedStore{StoreEngine: st}
	for _, r := range sample {
		if got, ok := ts.Get(r.Hash); !ok || got.Hash != r.Hash {
			st.Close()
			return p, fmt.Errorf("store probe: %s not served by the copy", r.Hash)
		}
	}
	st.Close()
	p.get = ts.get

	if err := os.Remove(sweep.IndexPath(cp)); err != nil {
		return p, err
	}
	t = time.Now()
	st, err = sweep.OpenIndexed(cp)
	if err != nil {
		return p, err
	}
	p.openRebuildMs = float64(time.Since(t)) / 1e6
	st.Close()

	t = time.Now()
	if _, err := sweep.Compact(cp); err != nil {
		return p, err
	}
	p.compactMs = float64(time.Since(t)) / 1e6

	p.encodeUs, p.decodeUs, err = codecCost(sample)
	return p, err
}

// codecCost is the mean time, in µs per record, of sweep.EncodeLine and
// of sweep.DecodeRecord on its output.
func codecCost(sample []sweep.Record) (encUs, decUs float64, err error) {
	if len(sample) == 0 {
		return 0, 0, nil
	}
	lines := make([][]byte, len(sample))
	t := time.Now()
	for i, r := range sample {
		if lines[i], err = sweep.EncodeLine(r); err != nil {
			return 0, 0, err
		}
	}
	encUs = float64(time.Since(t)) / 1e3 / float64(len(sample))
	t = time.Now()
	for _, l := range lines {
		if _, err := sweep.DecodeRecord(l); err != nil {
			return 0, 0, err
		}
	}
	decUs = float64(time.Since(t)) / 1e3 / float64(len(sample))
	return encUs, decUs, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// checkRecord is the per-record correctness gate: no failure, output
// not verified false, and a content hash that is its spec's hash and
// the one expected.
func checkRecord(r sweep.Record, wantHash string) error {
	switch {
	case r.Failure != "":
		return fmt.Errorf("record %s failed: %s", r.Hash, r.Failure)
	case r.Counters.OutputOK != nil && !*r.Counters.OutputOK:
		return fmt.Errorf("record %s: output verification false", r.Hash)
	case r.Hash != r.Spec.Hash():
		return fmt.Errorf("record %s: hash is not its spec's hash %s", r.Hash, r.Spec.Hash())
	case r.Hash != wantHash:
		return fmt.Errorf("record %s: expected %s", r.Hash, wantHash)
	}
	return nil
}

// digest hashes records in order with their timing fields — the only
// fields allowed to differ between two executions of one spec — zeroed.
func digest(recs []sweep.Record) (string, error) {
	h := sha256.New()
	for _, r := range recs {
		r.WallNanos, r.BuildNanos = 0, 0
		line, err := sweep.EncodeLine(r)
		if err != nil {
			return "", err
		}
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
