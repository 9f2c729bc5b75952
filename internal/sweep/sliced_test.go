package sweep

import (
	"bytes"
	"reflect"
	"testing"
)

// replicateGrid is the canonical sliced-execution workload: one grid
// point, a sliced-capable engine, and a full word of replicates. The
// grid family derives its topology without GraphSeed, so all 64
// replicates share one sliceKey and coalesce into a single lane group.
func replicateGrid(replicates int) Grid {
	return Grid{
		Families:   []string{FamilyGrid},
		Params:     []int{3},
		Epsilons:   []float64{0.1},
		Engines:    []string{EngineTDMA},
		Workloads:  []string{WorkloadGossip},
		Rounds:     2,
		Replicates: replicates,
		BaseSeed:   77,
	}
}

// encodeZeroed renders a record as its stored JSONL line with the two
// non-deterministic timing fields zeroed — the byte-identity currency
// of the determinism contract (DESIGN.md §4).
func encodeZeroed(t *testing.T, rec Record) []byte {
	t.Helper()
	rec.WallNanos, rec.BuildNanos = 0, 0
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// executeEach is the serial reference of the sliced conformance tests:
// one Execute per scenario, the definition of the unsliced path.
func executeEach(t *testing.T, scs []Scenario) []Record {
	t.Helper()
	recs := make([]Record, len(scs))
	for i, sc := range scs {
		recs[i] = execOrFatal(t, sc)
	}
	return recs
}

// TestSliceGroups pins the lane-group scheduler: full-word splitting,
// the non-capable-engine fallback, and the graph-seed rule that keeps
// random families out of groups.
func TestSliceGroups(t *testing.T) {
	base := Scenario{
		Family: FamilyGrid, Param: 3, Epsilon: 0.1,
		Engine: EngineTDMA, Workload: WorkloadGossip, Rounds: 2,
	}
	scs := make([]Scenario, 70)
	order := make([]int, 70)
	for r := range scs {
		sc := base
		sc.Replicate = r
		sc.GraphSeed = 100 + uint64(r) // grid family ignores it
		sc.ChannelSeed = 200 + uint64(r)
		sc.AlgSeed = 300 + uint64(r)
		scs[r] = sc
		order[r] = r
	}

	// 70 replicates of one point overflow a word: 64 + 6.
	groups := sliceGroups(scs, order)
	if len(groups) != 2 || len(groups[0]) != 64 || len(groups[1]) != 6 {
		t.Fatalf("70 replicates grouped as %d groups (sizes %d, ...), want 64+6",
			len(groups), len(groups[0]))
	}

	// A non-capable engine interleaved in the same order stays serial
	// without breaking the capable scenarios' grouping.
	mixed := append([]Scenario(nil), scs[:8]...)
	for i := range mixed {
		if i%2 == 1 {
			mixed[i].Engine = EngineAlg1
		}
	}
	groups = sliceGroups(mixed, order[:8])
	if len(groups) != 5 {
		t.Fatalf("mixed engines grouped as %d groups, want 5 (one tdma group + 4 alg1 singletons)", len(groups))
	}
	if want := []int{0, 2, 4, 6}; !reflect.DeepEqual(groups[0], want) {
		t.Fatalf("tdma lane group is %v, want %v (alg1 scenarios interleave as singletons)", groups[0], want)
	}
	for _, g := range groups[1:] {
		if len(g) != 1 || mixed[g[0]].Engine != EngineAlg1 {
			t.Fatalf("expected alg1 singleton, got group %v", g)
		}
	}

	// Random families consume GraphSeed, so replicates with distinct
	// seeds are distinct topologies — never lanes of one run.
	random := append([]Scenario(nil), scs[:4]...)
	for i := range random {
		random[i].Family = FamilyRegular
		random[i].N = 12
		random[i].Param = 2
	}
	if groups := sliceGroups(random, order[:4]); len(groups) != 4 {
		t.Fatalf("regular-family replicates grouped as %d groups, want 4 singletons", len(groups))
	}
}

// TestSlicedSweepByteIdentical is the sweep-level acceptance property:
// a 64-replicate grid run through the sliced scheduler stores
// byte-identical JSONL records (timing fields aside) to one Execute per
// scenario, and reports every scenario as engine work (grouping is an
// execution detail, not a caching effect).
func TestSlicedSweepByteIdentical(t *testing.T) {
	scs, err := replicateGrid(64).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 64 {
		t.Fatalf("grid expanded to %d scenarios, want 64", len(scs))
	}
	sliced, st, err := Run(scs, NewMemStore(), Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ran != 64 || st.Cached != 0 || st.Failed != 0 {
		t.Fatalf("stats: %+v, want run=64 cached=0 failed=0", st)
	}
	serial := executeEach(t, scs)
	for i := range scs {
		got, want := encodeZeroed(t, sliced[i]), encodeZeroed(t, serial[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("replicate %d stored differently sliced vs serial:\n got %s\nwant %s",
				scs[i].Replicate, got, want)
		}
	}
}

// TestSlicedPartialCacheHits: records already in the store drop out of
// a lane group member-by-member; the remainder still runs sliced and
// lands byte-identical to one Execute per scenario.
func TestSlicedPartialCacheHits(t *testing.T) {
	scs, err := replicateGrid(64).Expand()
	if err != nil {
		t.Fatal(err)
	}
	var warm []Scenario
	for _, sc := range scs {
		if sc.Replicate < 10 {
			warm = append(warm, sc)
		}
	}
	if len(warm) != 10 {
		t.Fatalf("warm subset has %d scenarios, want 10", len(warm))
	}
	store := NewMemStore()
	for _, rec := range executeEach(t, warm) {
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, st, err := Run(scs, store, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 10 || st.Ran != 54 || st.Failed != 0 {
		t.Fatalf("stats: %+v, want cached=10 run=54", st)
	}
	serial := executeEach(t, scs)
	for i := range scs {
		if got, want := encodeZeroed(t, recs[i]), encodeZeroed(t, serial[i]); !bytes.Equal(got, want) {
			t.Fatalf("replicate %d differs after partial cache short-circuit:\n got %s\nwant %s",
				scs[i].Replicate, got, want)
		}
	}
}

// TestSlicedMixedEngineGrid: a grid mixing sliced-capable and
// non-capable engines (with a non-default noise model and a replicate
// count that doesn't fill a word) produces the same records through the
// sliced scheduler as one Execute per scenario.
func TestSlicedMixedEngineGrid(t *testing.T) {
	g := Grid{
		Families:   []string{FamilyGrid},
		Params:     []int{3},
		Epsilons:   []float64{0.1},
		Noises:     []string{"", "asymmetric:0.03:0.15"},
		Engines:    []string{EngineAlg1, EngineTDMA},
		Workloads:  []string{WorkloadGossip},
		Rounds:     2,
		Replicates: 6,
		BaseSeed:   91,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sliced, st, err := Run(scs, NewMemStore(), Options{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != len(scs) || st.Unique != len(scs) || st.Ran != len(scs) || st.Cached != 0 || st.Failed != 0 {
		t.Fatalf("stats: %+v, want every one of %d scenarios run", st, len(scs))
	}
	serial := executeEach(t, scs)
	for i := range scs {
		if got, want := encodeZeroed(t, sliced[i]), encodeZeroed(t, serial[i]); !bytes.Equal(got, want) {
			t.Fatalf("scenario %d (%s/%s) differs sliced vs serial:\n got %s\nwant %s",
				i, scs[i].Engine, scs[i].Noise, got, want)
		}
	}
}

func TestExecuteSlicedValidation(t *testing.T) {
	base := Scenario{
		Family: FamilyGrid, Param: 2, Epsilon: 0.1,
		Engine: EngineTDMA, Workload: WorkloadGossip, Rounds: 2,
	}
	if _, err := executeSliced(nil, nil, ExecOptions{}); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := executeSliced(make([]Scenario, 65), make([]string, 65), ExecOptions{}); err == nil {
		t.Error("65-lane group accepted")
	}
	a, b := base, base
	b.Epsilon = 0.2
	if _, err := executeSliced([]Scenario{a, b}, []string{a.Hash(), b.Hash()}, ExecOptions{}); err == nil {
		t.Error("group mixing ε accepted")
	}
	c := base
	c.Engine = EngineAlg1
	if _, err := executeSliced([]Scenario{c, c}, []string{c.Hash(), c.Hash()}, ExecOptions{}); err == nil {
		t.Error("non-sliced-capable engine accepted")
	}

	// A well-formed pair matches two Execute calls exactly (timing aside).
	a, b = base, base
	a.ChannelSeed, a.AlgSeed = 10, 11
	b.Replicate, b.ChannelSeed, b.AlgSeed = 1, 20, 21
	recs, err := executeSliced([]Scenario{a, b}, []string{a.Hash(), b.Hash()}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k, sc := range []Scenario{a, b} {
		want, err := Execute(sc, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encodeZeroed(t, recs[k]), encodeZeroed(t, want); !bytes.Equal(got, want) {
			t.Fatalf("lane %d differs from Execute:\n got %s\nwant %s", k, got, want)
		}
	}
}

// TestGoldenPR4RecordsViaSlicedBatch routes the pinned PR 4 grid
// through the slicing scheduler (Run): the stored records
// must remain byte-identical to the golden file written by the PR 4
// tree, proving the sliced path invisible across repo generations.
func TestGoldenPR4RecordsViaSlicedBatch(t *testing.T) {
	golden := readGolden(t)
	scs, err := pr4Grid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := Run(scs, NewMemStore(), Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ran != len(scs) || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	byHash := make(map[string][]byte, len(recs))
	for _, rec := range recs {
		byHash[rec.Hash] = encodeZeroed(t, rec)
	}
	for i, want := range golden {
		rec, err := DecodeRecord(want)
		if err != nil {
			t.Fatalf("golden line %d: %v", i, err)
		}
		got, ok := byHash[rec.Hash]
		if !ok {
			t.Fatalf("golden record %s not produced by the sliced batch", rec.Hash)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %s differs from PR 4 golden via sliced batch:\n got %s\nwant %s", rec.Hash, got, want)
		}
	}
}
