package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// setupEvery is how many grid-cold cycles pass between two set-up
// samples, and minSetups the fewest a run takes.
const setupEvery, minSetups = 24, 9

// rssAfterCycles is the fixed amount of work after which the closed-loop
// workloads read peak RSS: reading it at the end would charge a faster
// program for the extra cycles it fits into the run.
const rssAfterCycles = 8

// mix derives the i-th input seed of a run from the run's seed
// (splitmix64), so every cycle gets fresh, reproducible specs.
func mix(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// coldGrid is one grid-cold cycle: Algorithm 1 and TDMA gossip on the
// regular family, n ∈ {64,128}, Δ ∈ {4,8}, ε = 0.05, 3 rounds.
func coldGrid(seed uint64) sweep.Grid {
	return sweep.Grid{
		Families:   []string{sweep.FamilyRegular},
		Ns:         []int{64, 128},
		Params:     []int{4, 8},
		Epsilons:   []float64{0.05},
		Engines:    []string{sweep.EngineAlg1, sweep.EngineTDMA},
		Workloads:  []string{sweep.WorkloadGossip},
		Rounds:     3,
		Replicates: 2,
		BaseSeed:   seed,
	}
}

// gridCold is a closed loop with one caller: each cycle runs sweep.Run
// with Jobs = nproc on a fresh grid into one on-disk IndexedStore, then
// runs the same grid again, now fully stored (the warm resubmit).
func gridCold(cfg config, t *tally) (outcome, error) {
	var out outcome
	dir, err := subdir(cfg, "grid")
	if err != nil {
		return out, err
	}
	storePath := filepath.Join(dir, "store.jsonl")
	store, err := sweep.OpenIndexed(storePath)
	if err != nil {
		return out, err
	}
	defer store.Close() // closing twice is harmless; the success path checks Close
	cache := sim.NewCache()

	// Set-up samples start once peak RSS is read, so neither the fixture
	// nor its opens count in it.
	fixture, nFixture := filepath.Join(dir, "fixture.jsonl"), 0
	setups := setupSamples{once: func() (time.Duration, error) {
		if nFixture == 0 {
			n, err := buildFixture(cfg, fixture)
			if err != nil {
				return 0, err
			}
			nFixture = n
		}
		return openFixture(fixture)
	}}

	reg := obs.NewRegistry()
	obsDelta := map[string]float64{}
	var (
		cold, warm, coldTraced, coldUntraced Samples
		rate                                 Samples // verified cold scenarios per second, per cycle
		sample                               []sweep.Record
		executed                             execTotals
		tracedScs                            []sweep.Scenario
		window                               time.Duration
		rss                                  float64
		ts                                   = &timedStore{StoreEngine: store}
		firstEvent                           httpStats
	)
	perCycle := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		if cycle >= rssAfterCycles && (cycle-rssAfterCycles)%setupEvery == 0 {
			paused := time.Now()
			if err := setups.take(1); err != nil {
				return out, err
			}
			deadline = deadline.Add(time.Since(paused))
		}
		cycleStart := time.Now()
		scs, err := coldGrid(mix(cfg.seed, cycle)).Expand()
		if err != nil {
			return out, err
		}
		perCycle = len(scs)
		traced := cfg.trace && cycle%2 == 1
		opt := sweep.Options{Jobs: cfg.procs, Artifacts: cache}
		var eng sweep.StoreEngine = store
		var before map[string]float64
		var start time.Time
		if traced {
			opt.Metrics = reg
			eng = ts
			var once sync.Once
			opt.Progress = func(sweep.Event) {
				once.Do(func() { firstEvent.add(&firstEvent.firstEvent, time.Since(start)) })
			}
			before = flatten(reg.Snapshot())
		}
		cs := cache.Stats()

		start = time.Now()
		recs, st, err := sweep.Run(scs, eng, opt)
		d := time.Since(start)
		if !t.op(err) {
			continue
		}
		if !t.op(expectRun(st, len(scs), 0)) {
			continue
		}
		verified := 0
		for i, r := range recs {
			if t.op(checkRecord(r, scs[i].Hash())) {
				verified++
			}
		}
		cold.AddDuration(d)

		start = time.Now()
		again, st, err := sweep.Run(scs, eng, opt)
		dw := time.Since(start)
		if t.op(err) && t.op(expectRun(st, 0, len(scs))) {
			warm.AddDuration(dw)
			for i := range again {
				t.op(sameRecord(again[i], recs[i]))
			}
		}

		if traced {
			cd := delta(before, flatten(reg.Snapshot()))
			// The registry's artifact-cache gauges are cumulative over the
			// cache's life; count this cycle's lookups from the cache.
			after := cache.Stats()
			cd["sim.cache.graph_hits"] = float64(after.GraphHits - cs.GraphHits)
			cd["sim.cache.graph_misses"] = float64(after.GraphMisses - cs.GraphMisses)
			cd["sim.cache.code_hits"] = float64(after.CodeHits - cs.CodeHits)
			cd["sim.cache.code_misses"] = float64(after.CodeMisses - cs.CodeMisses)
			for k, v := range cd {
				obsDelta[k] += v
			}
			coldTraced.AddDuration(d)
			window += d
			executed.add(recs)
			tracedScs = append(tracedScs, scs...)
		} else {
			coldUntraced.AddDuration(d)
		}
		sample = recs
		rate.Add(float64(verified) / time.Since(cycleStart).Seconds())
		if cycle+1 == rssAfterCycles {
			rss = peakRSSMB(0)
		}
	}
	if rss == 0 {
		rss = peakRSSMB(0)
	}
	if err := store.Close(); err != nil {
		return out, err
	}
	if err := setups.take(minSetups - setups.N()); err != nil {
		return out, err
	}
	if cold.N() == 0 || warm.N() == 0 {
		return out, fmt.Errorf("grid-cold: no cycle completed")
	}
	out.note("samples: cold cycles=%d (%d scenarios each), warm resubmits=%d, setup reps=%d over a %d-record store", cold.N(), perCycle, warm.N(), setups.N(), nFixture)
	if q, v := cold.Tail(10); q > 0 {
		out.note("cold cycle p%g=%.3f ms over %d samples (the tail is not gated: too noisy on a shared host)", 100*q, v, cold.N())
	}

	if !cfg.trace {
		out.values = map[string]float64{
			"setup_s":         setups.Median(),
			"scenarios_per_s": rate.Median(),
			"job_p50_ms":      cold.Median(),
			"resubmit_p50_ms": warm.Median(),
			"peak_rss_mb":     rss,
		}
		return out, nil
	}

	graphMs, codesMs, err := buildCosts(tracedScs[max(0, len(tracedScs)-64):])
	if err != nil {
		return out, err
	}
	probe, err := probeStoreFile(storePath, filepath.Join(dir, "probe"), sample)
	if err != nil {
		return out, err
	}
	probe.get, probe.put = ts.get, ts.put
	probe.gets, probe.puts = float64(ts.get.N()), float64(ts.put.N())
	out.values = perLayer(layerData{
		obs:          obsDelta,
		executed:     executed,
		graphBuildMs: graphMs,
		codesBuildMs: codesMs,
		window:       window,
		parallelism:  cfg.procs,
		store:        probe,
		http:         &firstEvent,
		overheadFrac: coldTraced.Median()/coldUntraced.Median() - 1,
	})
	out.note("traced cycles=%d untraced cycles=%d", coldTraced.N(), coldUntraced.N())
	return out, nil
}

// openFixture is one grid-cold set-up: the artifact cache, then the
// populated fixture store opened with its index sidecar, then opened
// again without one (the full-rescan rebuild, which writes the sidecar
// back for the next set-up).
func openFixture(path string) (time.Duration, error) {
	start := time.Now()
	_ = sim.NewCache()
	st, err := sweep.OpenIndexed(path)
	if err != nil {
		return 0, err
	}
	el := time.Since(start)
	if err := st.Close(); err != nil {
		return 0, err
	}
	if err := os.Remove(sweep.IndexPath(path)); err != nil {
		return 0, err
	}
	start = time.Now()
	st, err = sweep.OpenIndexed(path)
	if err != nil {
		return 0, err
	}
	el += time.Since(start)
	return el, st.Close()
}

// expectRun checks a batch's stats: ran scenarios executed and cached
// served from the store, with nothing failed.
func expectRun(st sweep.Stats, ran, cached int) error {
	if st.Ran != ran || st.Cached != cached || st.Failed != 0 {
		return fmt.Errorf("batch stats %s, want run=%d cached=%d", st, ran, cached)
	}
	return nil
}

// sameRecord checks a record served again is byte-identical to the one
// first produced, timing fields included: a stored record never changes.
func sameRecord(got, want sweep.Record) error {
	a, err := sweep.EncodeLine(got)
	if err != nil {
		return err
	}
	b, err := sweep.EncodeLine(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("record %s served differently the second time", want.Hash)
	}
	return nil
}
