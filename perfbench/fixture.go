package main

import (
	"fmt"
	"os"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// fixtureGrids × 256 scenarios is the populated store both workloads
// open during set-up: 8192 real executed records.
const fixtureGrids = 32

// fixtureGrid is the g-th grid of the set-up store: 256 TDMA gossip
// scenarios on the small hard family, 64 replicates per point. Its
// seeds come from mix(seed, -1-g), a stream the workloads' cycles
// (mix(seed, cycle), cycle ≥ 0) never reach.
func fixtureGrid(seed uint64, g int) gridBody {
	return gridBody{
		Families: []string{sweep.FamilyHard}, Ns: []int{16, 32}, Params: []int{2, 4},
		Epsilons: []float64{0}, Engines: []string{sweep.EngineTDMA}, Workloads: []string{sweep.WorkloadGossip},
		Rounds: 2, Replicates: 64, BaseSeed: mix(seed, -1-g),
	}
}

// buildFixture executes the fixture grids of seed into a fresh
// IndexedStore at path through sweep.Run, checking every record, and
// closes it so its index sidecar is on disk. It runs before the
// measured window and returns the number of records stored.
func buildFixture(cfg config, path string) (int, error) {
	st, err := sweep.OpenIndexed(path)
	if err != nil {
		return 0, err
	}
	defer st.Close() // closing twice is harmless; the success path checks Close
	cache := sim.NewCache()
	n := 0
	for g := 0; g < fixtureGrids; g++ {
		scs, err := fixtureGrid(cfg.seed, g).grid().Expand()
		if err != nil {
			return 0, err
		}
		recs, _, err := sweep.Run(scs, st, sweep.Options{Jobs: cfg.procs, Artifacts: cache})
		if err != nil {
			return 0, fmt.Errorf("fixture: %w", err)
		}
		for i, r := range recs {
			if err := checkRecord(r, scs[i].Hash()); err != nil {
				return 0, fmt.Errorf("fixture: %w", err)
			}
		}
		n += len(recs)
	}
	if got := st.Len(); got != n {
		return 0, fmt.Errorf("fixture: store holds %d records for %d scenarios", got, n)
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	// Flush the fixture to disk now, so its writeback cannot land in a
	// timed open.
	for _, p := range []string{path, sweep.IndexPath(path)} {
		if err := syncFile(p); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
