package sweep

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestArtifactCacheRecordsIdentical pins the artifact cache's
// determinism contract: a batch run with a shared graph/code-table
// cache produces byte-identical records (JSONL bytes, measured wall
// fields zeroed) to per-scenario construction with no cache.
func TestArtifactCacheRecordsIdentical(t *testing.T) {
	scs, err := Grid{
		Families:   []string{FamilyRegular},
		Ns:         []int{14},
		Params:     []int{3},
		Epsilons:   []float64{0.1, 0.2},
		Engines:    []string{EngineAlg1, EngineTDMA, EngineCongest},
		Workloads:  []string{WorkloadGossip, WorkloadMIS, WorkloadColoring},
		Rounds:     2,
		Replicates: 2,
		BaseSeed:   31,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}

	encode := func(recs []Record) [][]byte {
		out := make([][]byte, len(recs))
		for i, r := range recs {
			r.WallNanos, r.BuildNanos = 0, 0
			var buf bytes.Buffer
			if err := EncodeJSONL(&buf, r); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}

	cache := sim.NewCache()
	var cached, uncached []Record
	for _, sc := range scs {
		rec, err := Execute(sc, ExecOptions{Artifacts: cache})
		if err != nil {
			t.Fatalf("cached execute %s: %v", sc.Hash(), err)
		}
		cached = append(cached, rec)
		rec, err = Execute(sc, ExecOptions{})
		if err != nil {
			t.Fatalf("uncached execute %s: %v", sc.Hash(), err)
		}
		uncached = append(uncached, rec)
	}
	a, b := encode(cached), encode(uncached)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("scenario %d (%s): cache-on and cache-off records differ:\n%s\n%s",
				i, scs[i].Hash(), a[i], b[i])
		}
	}

	st := cache.Stats()
	if st.GraphMisses == 0 || st.GraphHits == 0 {
		t.Fatalf("cache never shared a graph: %+v", st)
	}
	// ε/engine/replicate axes share graphs: 2 graph seeds (replicates)
	// cover all 30 scenarios.
	if st.GraphMisses != 2 {
		t.Errorf("graph builds = %d, want 2 (one per replicate seed)", st.GraphMisses)
	}
	if st.CodeMisses == 0 || st.CodeHits == 0 {
		t.Fatalf("cache never shared a code table: %+v", st)
	}
}

// TestBatchUsesSharedArtifacts asserts Run threads one cache through
// its workers (the caller-supplied cache sees the batch's traffic).
func TestBatchUsesSharedArtifacts(t *testing.T) {
	scs, err := Grid{
		Families:   []string{FamilyRegular},
		Ns:         []int{12},
		Params:     []int{2},
		Epsilons:   []float64{0.05, 0.15},
		Engines:    []string{EngineAlg1},
		Rounds:     1,
		Replicates: 2,
		BaseSeed:   8,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewCache()
	if _, _, err := Run(scs, NewMemStore(), Options{Jobs: 2, Artifacts: cache}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.GraphMisses != 2 || st.GraphHits != 2 {
		t.Errorf("graph traffic = %+v, want 2 misses + 2 hits (ε axis shares each replicate's graph)", st)
	}
	if st.CodeMisses != 2 || st.CodeHits != 2 {
		t.Errorf("code traffic = %+v, want 2 misses + 2 hits (replicates share each ε's tables)", st)
	}
}

// TestSeedlessFamiliesIgnoreGraphSeed pins the rule the artifact cache
// and replicate slicing both rest on: for every family where
// graphSeedMatters is false, BuildGraph gives the identical graph for
// any GraphSeed, so keying such graphs (and grouping such lanes) with
// the seed zeroed is invisible in every record.
func TestSeedlessFamiliesIgnoreGraphSeed(t *testing.T) {
	all := []Scenario{
		{Family: FamilyRegular, N: 12, Param: 3},
		{Family: FamilyBounded, N: 12, Param: 3},
		{Family: FamilyPG, Param: 3},
		{Family: FamilyGrid, Param: 4},
		{Family: FamilyHypercube, Param: 3},
		{Family: FamilyHard, N: 12, Param: 3},
		{Family: FamilyComplete, N: 8},
		{Family: FamilyGeo, N: 64},
	}
	seedless := 0
	for _, sc := range all {
		if graphSeedMatters(sc.Family) {
			continue
		}
		seedless++
		a, b := sc, sc
		a.GraphSeed, b.GraphSeed = 1, 0xdeadbeef
		ga, err := a.BuildGraph()
		if err != nil {
			t.Fatalf("%s: %v", sc.Family, err)
		}
		gb, err := b.BuildGraph()
		if err != nil {
			t.Fatalf("%s: %v", sc.Family, err)
		}
		if ga.N() != gb.N() || !reflect.DeepEqual(ga.Edges(), gb.Edges()) {
			t.Errorf("%s: GraphSeed changed the graph, but graphSeedMatters says it is ignored", sc.Family)
		}
	}
	if seedless != 5 {
		t.Fatalf("%d seedless families, want 5 (pg, grid, hypercube, hard, complete)", seedless)
	}

	// The artifact cache relies on it: two hard-family replicates with
	// distinct GraphSeeds share one graph build.
	cache := sim.NewCache()
	for seed := uint64(1); seed <= 2; seed++ {
		sc := Scenario{Family: FamilyHard, N: 12, Param: 3, Engine: EngineTDMA, Workload: WorkloadGossip,
			Rounds: 1, GraphSeed: seed, ChannelSeed: seed, AlgSeed: seed}
		if _, err := Execute(sc, ExecOptions{Artifacts: cache}); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.GraphMisses != 1 || st.GraphHits != 1 {
		t.Fatalf("graph traffic = %+v, want 1 miss + 1 hit across GraphSeeds", st)
	}
}
