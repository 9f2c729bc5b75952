package sweep

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// pr4Grid is the grid the PR 4 tree generated testdata/pr4_records.jsonl
// from (unique specs, wall fields zeroed, sorted by hash). It predates
// the noise axis, so every spec is a symmetric-channel spec.
func pr4Grid() Grid {
	return Grid{
		Families:   []string{FamilyRegular, FamilyGrid},
		Ns:         []int{14},
		Params:     []int{3},
		Epsilons:   []float64{0.1, 0.2},
		Engines:    []string{EngineAlg1, EngineTDMA, EngineCongest},
		Workloads:  []string{WorkloadGossip, WorkloadMIS},
		Rounds:     2,
		Replicates: 2,
		BaseSeed:   2023,
	}
}

func readGolden(t *testing.T) [][]byte {
	t.Helper()
	return readGoldenFile(t, "pr4_records.jsonl")
}

func readGoldenFile(t *testing.T, name string) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines [][]byte
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		lines = append(lines, append([]byte(nil), scan.Bytes()...))
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestGoldenPR4RecordsByteIdentical is the cross-model regression
// anchor: with the default symmetric channel, the pluggable-noise tree
// reproduces the records the PR 4 tree stored byte-for-byte — with the
// artifact cache on and off. The golden file was generated by the
// pre-noise code, so any drift in specs, hashes, seeds, channel
// consumption, decoding, or JSON encoding fails here.
func TestGoldenPR4RecordsByteIdentical(t *testing.T) {
	golden := readGolden(t)
	scs, err := pr4Grid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(golden) {
		t.Fatalf("grid expands to %d unique specs, golden has %d", len(scs), len(golden))
	}
	for name, cache := range map[string]*sim.Cache{"cache-on": sim.NewCache(), "cache-off": nil} {
		t.Run(name, func(t *testing.T) {
			byHash := make(map[string][]byte, len(scs))
			for _, sc := range scs {
				rec, err := Execute(sc, ExecOptions{Artifacts: cache})
				if err != nil {
					t.Fatalf("%s: %v", sc.Hash(), err)
				}
				rec.WallNanos, rec.BuildNanos = 0, 0
				var buf bytes.Buffer
				if err := EncodeJSONL(&buf, rec); err != nil {
					t.Fatal(err)
				}
				byHash[rec.Hash] = bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
			}
			for i, want := range golden {
				rec, err := DecodeRecord(want)
				if err != nil {
					t.Fatalf("golden line %d: %v", i, err)
				}
				got, ok := byHash[rec.Hash]
				if !ok {
					t.Fatalf("golden record %s not produced by the grid", rec.Hash)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("record %s differs from PR 4 golden:\n got %s\nwant %s", rec.Hash, got, want)
				}
			}
		})
	}
}

// TestGoldenPR4StoreServesFullCacheHits loads the PR 4 records into a
// store file — simulating a result store written before the noise axis
// (and the sidecar index) existed, so the open rebuilds the index — and
// re-runs the grid through the batch scheduler: every scenario must be
// served from the old store with zero engine work.
func TestGoldenPR4StoreServesFullCacheHits(t *testing.T) {
	golden := readGolden(t)
	path := filepath.Join(t.TempDir(), "pr4.jsonl")
	if err := os.WriteFile(path, bytes.Join(append(golden, nil), []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if d := store.Dropped(); d != 0 {
		t.Fatalf("old-format store dropped %d lines", d)
	}
	scs, err := pr4Grid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Run(scs, store, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != len(scs) || st.Ran != 0 || st.Failed != 0 {
		t.Fatalf("old store did not serve a full cache hit: %+v", st)
	}
}

// tdmaModelsGrid is the grid testdata/tdma_models_records.jsonl was
// generated from (wall fields zeroed, sorted by line) by a TDMA runner
// that kept one bit per beep round and read every node's reception
// window, before the lane-transposed runner became the only one. It
// covers every channel model and workloads whose Broadcast can finish a
// node, under noise strong enough to cause decode errors.
func tdmaModelsGrid() Grid {
	return Grid{
		Families:   []string{FamilyRegular},
		Ns:         []int{24},
		Params:     []int{3},
		Epsilons:   []float64{0.1},
		Noises:     []string{"", "asymmetric:0.03:0.15", "erasure:0.1:1", "gilbert-elliott:0.02:0.3:0.05:0.25", "adversary:solo:64", "jam:2:7"},
		Engines:    []string{EngineTDMA},
		Workloads:  []string{WorkloadGossip, WorkloadColoring, WorkloadMatching, WorkloadLeader},
		Rounds:     2,
		Replicates: 2,
		BaseSeed:   2031,
	}
}

// TestGoldenTDMAModelsByteIdentical pins the TDMA baseline's records —
// counters, error scores and energy — across every channel model to
// those of the bit-packed runner it replaced.
func TestGoldenTDMAModelsByteIdentical(t *testing.T) {
	golden := readGoldenFile(t, "tdma_models_records.jsonl")
	scs, err := tdmaModelsGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(golden) {
		t.Fatalf("grid expands to %d unique specs, golden has %d", len(scs), len(golden))
	}
	byHash := make(map[string][]byte, len(scs))
	for _, sc := range scs {
		rec, err := Execute(sc, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Hash(), err)
		}
		rec.WallNanos, rec.BuildNanos = 0, 0
		var buf bytes.Buffer
		if err := EncodeJSONL(&buf, rec); err != nil {
			t.Fatal(err)
		}
		byHash[rec.Hash] = bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	}
	for i, want := range golden {
		rec, err := DecodeRecord(want)
		if err != nil {
			t.Fatalf("golden line %d: %v", i, err)
		}
		if got := byHash[rec.Hash]; !bytes.Equal(got, want) {
			t.Errorf("record %s differs from the TDMA golden:\n got %s\nwant %s", rec.Hash, got, want)
		}
	}
}
