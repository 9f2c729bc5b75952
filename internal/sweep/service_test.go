package sweep

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func serviceGrid() Grid {
	return Grid{
		Families: []string{"regular"}, Ns: []int{14}, Params: []int{3},
		Epsilons: []float64{0.1}, Engines: []string{"alg1", "tdma"},
		Workloads: []string{"gossip"}, Rounds: 2, Replicates: 2, BaseSeed: 2023,
	}
}

func openStore(t *testing.T) *IndexedStore {
	t.Helper()
	s, err := OpenIndexed(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// canonLine encodes a record with the nondeterministic timing fields
// zeroed: the byte-identity comparison form used across the repo.
func canonLine(t *testing.T, rec Record) []byte {
	t.Helper()
	rec.WallNanos, rec.BuildNanos = 0, 0
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServiceMatchesRun: the service changes scheduling only. The same
// grid executed through Service.Submit and through the one-shot batch
// Run produces byte-identical records, slot for slot.
func TestServiceMatchesRun(t *testing.T) {
	scenarios, err := serviceGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}

	batchStore := openStore(t)
	batchRecs, _, err := Run(scenarios, batchStore, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}

	svcStore := openStore(t)
	svc := NewService(svcStore, ServiceOptions{Jobs: 2})
	defer svc.Close()
	job, err := svc.Submit(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	svcRecs, stats, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != len(scenarios) || stats.Failed != 0 {
		t.Fatalf("service stats: %+v", stats)
	}
	if len(svcRecs) != len(batchRecs) {
		t.Fatalf("record counts differ: %d vs %d", len(svcRecs), len(batchRecs))
	}
	for i := range svcRecs {
		if got, want := canonLine(t, svcRecs[i]), canonLine(t, batchRecs[i]); !bytes.Equal(got, want) {
			t.Fatalf("slot %d differs between service and batch:\n svc: %s\n run: %s", i, got, want)
		}
	}
	// Both stores hold the same record set.
	if svcStore.Len() != batchStore.Len() {
		t.Fatalf("store sizes differ: %d vs %d", svcStore.Len(), batchStore.Len())
	}
}

// TestServiceSingleflight pins the dedup path deterministically: a
// blocked execution for hash H is in flight; a second submission of H
// joins the flight (observed via Waiters) before release; exactly one
// execution runs and the joiner reports cached with the dedup counter
// incremented.
func TestServiceSingleflight(t *testing.T) {
	sc := baseSpec()
	hash := sc.Hash()
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	reg := obs.NewRegistry()
	svc := NewService(openStore(t), ServiceOptions{
		Jobs: 2, Metrics: reg,
		ExecuteFunc: func(s Scenario, _ ExecOptions) (Record, error) {
			started <- struct{}{}
			<-release
			return Record{Hash: s.Hash(), Spec: s}, nil
		},
	})
	defer svc.Close()

	job1, err := svc.Submit([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the flight for hash is open and blocked

	job2, err := svc.Submit([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until job2's worker is blocked inside the flight, so the
	// share — not a late store hit — is the path under test.
	for deadline := time.Now().Add(5 * time.Second); svc.flights.Waiters(hash) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second submission never joined the flight")
		}
		runtime.Gosched()
	}
	close(release)

	_, st1, err := job1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := job2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Ran != 1 || st1.Cached != 0 {
		t.Fatalf("owner job stats: %+v", st1)
	}
	if st2.Ran != 0 || st2.Cached != 1 {
		t.Fatalf("joiner job stats: %+v", st2)
	}
	if n := reg.Counter("sweep.service.executions").Value(); n != 1 {
		t.Fatalf("executions=%d, want exactly 1", n)
	}
	if n := reg.Counter("sweep.service.singleflight_hits").Value(); n != 1 {
		t.Fatalf("singleflight_hits=%d, want 1", n)
	}
	if n := len(started); n != 0 {
		t.Fatalf("%d extra executions started", n)
	}
}

// TestServiceStoreHit: records already in the store are served without
// execution and counted as cached.
func TestServiceStoreHit(t *testing.T) {
	sc := baseSpec()
	store := openStore(t)
	rec := execOrFatal(t, sc)
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc := NewService(store, ServiceOptions{
		Jobs: 1, Metrics: reg,
		ExecuteFunc: func(Scenario, ExecOptions) (Record, error) {
			t.Error("execution despite store hit")
			return Record{}, errors.New("unreachable")
		},
	})
	defer svc.Close()
	job, err := svc.Submit([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 1 || st.Ran != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if recs[0].Hash != rec.Hash {
		t.Fatal("wrong record served")
	}
	if n := reg.Counter("sweep.service.store_hits").Value(); n != 1 {
		t.Fatalf("store_hits=%d, want 1", n)
	}
}

// TestServiceBackpressure: admission is all-or-nothing against
// MaxPending; a rejected submission leaves no orphan tasks and accepted
// jobs still complete.
func TestServiceBackpressure(t *testing.T) {
	release := make(chan struct{})
	reg := obs.NewRegistry()
	svc := NewService(openStore(t), ServiceOptions{
		Jobs: 1, MaxPending: 2, Metrics: reg,
		ExecuteFunc: func(s Scenario, _ ExecOptions) (Record, error) {
			<-release
			return Record{Hash: s.Hash(), Spec: s}, nil
		},
	})
	defer svc.Close()

	accepted, err := svc.Submit([]Scenario{specN(0), specN(1)}) // fills the bound
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit([]Scenario{specN(2)}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow submission: err=%v, want ErrBackpressure", err)
	}
	if n := reg.Counter("sweep.service.rejected").Value(); n != 1 {
		t.Fatalf("rejected=%d, want 1", n)
	}
	close(release)
	if _, st, err := accepted.Wait(); err != nil || st.Ran != 2 {
		t.Fatalf("accepted job: stats=%+v err=%v", st, err)
	}
	// Capacity freed: the previously rejected scenario is admitted now.
	job, err := svc.Submit([]Scenario{specN(2)})
	if err != nil {
		t.Fatalf("post-drain submission: %v", err)
	}
	if _, _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceClosed: Submit after Close fails with ErrClosed.
func TestServiceClosed(t *testing.T) {
	svc := NewService(openStore(t), ServiceOptions{Jobs: 1})
	svc.Close()
	if _, err := svc.Submit([]Scenario{baseSpec()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err=%v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestServiceEvents: the event stream carries one event per slot with a
// strictly increasing Done counter and closes at completion.
func TestServiceEvents(t *testing.T) {
	scenarios := []Scenario{specN(0), specN(1), specN(2), specN(0)} // one duplicate
	svc := NewService(openStore(t), ServiceOptions{
		Jobs: 2,
		ExecuteFunc: func(s Scenario, _ ExecOptions) (Record, error) {
			return Record{Hash: s.Hash(), Spec: s}, nil
		},
	})
	defer svc.Close()
	job, err := svc.Submit(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	n := 0
	for ev := range job.Events() {
		n++
		if ev.Done != n {
			t.Fatalf("event %d has Done=%d", n, ev.Done)
		}
		if ev.Total != len(scenarios) {
			t.Fatalf("event Total=%d, want %d", ev.Total, len(scenarios))
		}
		if seen[ev.Index] {
			t.Fatalf("slot %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
	}
	if n != len(scenarios) {
		t.Fatalf("got %d events, want %d", n, len(scenarios))
	}
	st := job.Status()
	if !st.Complete || st.Done != len(scenarios) {
		t.Fatalf("status after stream close: %+v", st)
	}
	if st.Unique != 3 {
		t.Fatalf("Unique=%d, want 3", st.Unique)
	}
}

// TestServiceFailure: a failing scenario surfaces once per unique hash
// from Wait, and failed slots hold zero records.
func TestServiceFailure(t *testing.T) {
	bad := specN(0)
	svc := NewService(openStore(t), ServiceOptions{
		Jobs: 1,
		ExecuteFunc: func(s Scenario, _ ExecOptions) (Record, error) {
			if s.Hash() == bad.Hash() {
				return Record{}, errors.New("boom")
			}
			return Record{Hash: s.Hash(), Spec: s}, nil
		},
	})
	defer svc.Close()
	job, err := svc.Submit([]Scenario{bad, specN(1), bad}) // failure duplicated
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := job.Wait()
	if err == nil {
		t.Fatal("Wait returned nil error for failing job")
	}
	if st.Failed != 2 || st.Ran != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if recs[0].Hash != "" || recs[2].Hash != "" || recs[1].Hash == "" {
		t.Fatal("failed slots should be zero records, succeeded slot populated")
	}
	// One joined failure per unique hash, like Run.
	if got := len(errors.Join(err).Error()); got == 0 {
		t.Fatal("empty failure")
	}
}

// replicateHeavyGrid is the 256-scenario replicate-heavy grid: 4
// hard-family axis points × 64 replicates of TDMA gossip. The hard
// family ignores GraphSeed, so each point's replicates form one full
// 64-lane group.
func replicateHeavyGrid(t *testing.T) []Scenario {
	t.Helper()
	scs, err := Grid{
		Families: []string{FamilyHard}, Ns: []int{48, 64}, Params: []int{6, 8},
		Epsilons: []float64{0}, Engines: []string{EngineTDMA}, Workloads: []string{WorkloadGossip},
		Rounds: 3, Replicates: 64, BaseSeed: 2026,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 256 {
		t.Fatalf("grid expanded to %d scenarios, want 256", len(scs))
	}
	return scs
}

// submitWait runs scenarios as one job on svc.
func submitWait(t *testing.T, svc *Service, scs []Scenario) ([]Record, Stats) {
	t.Helper()
	job, err := svc.Submit(scs)
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return recs, st
}

// TestServiceSlicesReplicateGrid: the service runs the replicate-heavy
// grid as four 64-lane sliced passes, and its records equal Run's and
// one Execute per scenario, slot for slot (timing fields aside).
func TestServiceSlicesReplicateGrid(t *testing.T) {
	scs := replicateHeavyGrid(t)
	reg := obs.NewRegistry()
	svc := NewService(NewMemStore(), ServiceOptions{Jobs: 2, Metrics: reg})
	defer svc.Close()
	recs, st := submitWait(t, svc, scs)
	if st.Ran != 256 || st.Cached != 0 || st.Failed != 0 {
		t.Fatalf("stats: %+v, want run=256", st)
	}
	lanes := reg.Histogram("sweep.exec.sliced_lanes")
	if lanes.Count() != 4 || lanes.Sum() != 256 {
		t.Fatalf("sliced passes: %d covering %d lanes, want 4 passes of 64", lanes.Count(), lanes.Sum())
	}
	if n := reg.Counter("sweep.service.executions").Value(); n != 256 {
		t.Fatalf("executions=%d, want 256 (scenarios, not groups)", n)
	}

	batch, _, err := Run(scs, NewMemStore(), Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	serial := executeEach(t, scs)
	for i := range scs {
		got := canonLine(t, recs[i])
		if want := canonLine(t, batch[i]); !bytes.Equal(got, want) {
			t.Fatalf("slot %d differs between Service and Run:\n svc: %s\n run: %s", i, got, want)
		}
		if want := canonLine(t, serial[i]); !bytes.Equal(got, want) {
			t.Fatalf("slot %d differs between Service and Execute:\n svc: %s\nexec: %s", i, got, want)
		}
	}
}

// TestServiceConcurrentSubmitsExactlyOnce: two jobs over the same cold
// replicate grid, submitted back to back so their lane groups overlap
// in flight, execute each scenario once between them and return the
// same records.
func TestServiceConcurrentSubmitsExactlyOnce(t *testing.T) {
	scs := replicateHeavyGrid(t)
	reg := obs.NewRegistry()
	svc := NewService(NewMemStore(), ServiceOptions{Jobs: 2, Metrics: reg})
	defer svc.Close()
	job1, err := svc.Submit(scs)
	if err != nil {
		t.Fatal(err)
	}
	job2, err := svc.Submit(scs)
	if err != nil {
		t.Fatal(err)
	}
	recs1, st1, err := job1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	recs2, st2, err := job2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("sweep.service.executions").Value(); n != 256 {
		t.Fatalf("executions=%d, want 256 (one per unique scenario)", n)
	}
	if st1.Ran+st2.Ran != 256 || st1.Cached+st2.Cached != 256 || st1.Failed+st2.Failed != 0 {
		t.Fatalf("job stats %+v and %+v, want 256 runs and 256 cached between them", st1, st2)
	}
	for i := range scs {
		if a, b := canonLine(t, recs1[i]), canonLine(t, recs2[i]); !bytes.Equal(a, b) {
			t.Fatalf("slot %d differs between the two jobs:\n%s\n%s", i, a, b)
		}
	}
}

// TestServicePartlyStoredGroupSlicesMisses: a lane group whose first 10
// replicates are already stored serves them from the store and runs
// one sliced pass over the 54 misses only.
func TestServicePartlyStoredGroupSlicesMisses(t *testing.T) {
	scs := replicateHeavyGrid(t)[:64] // one axis point: one lane group
	store := NewMemStore()
	for _, rec := range executeEach(t, scs[:10]) {
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	svc := NewService(store, ServiceOptions{Jobs: 2, Metrics: reg})
	defer svc.Close()
	recs, st := submitWait(t, svc, scs)
	if st.Cached != 10 || st.Ran != 54 || st.Failed != 0 {
		t.Fatalf("stats: %+v, want cached=10 run=54", st)
	}
	lanes := reg.Histogram("sweep.exec.sliced_lanes")
	if lanes.Count() != 1 || lanes.Sum() != 54 {
		t.Fatalf("sliced passes: %d covering %d lanes, want one pass of 54", lanes.Count(), lanes.Sum())
	}
	if n := reg.Counter("sweep.store.hits").Value(); n != 10 {
		t.Fatalf("sweep.store.hits=%d, want 10", n)
	}
	serial := executeEach(t, scs)
	for i := range scs {
		if got, want := canonLine(t, recs[i]), canonLine(t, serial[i]); !bytes.Equal(got, want) {
			t.Fatalf("replicate %d differs from Execute:\n got %s\nwant %s", i, got, want)
		}
	}
}

// slowStore delays every lookup's answer, so two workers walking lane
// groups interleave their claims instead of one finishing before the
// other starts, and a flight can land between a worker's store miss and
// its claim.
type slowStore struct{ StoreEngine }

func (s slowStore) Get(hash string) (Record, bool) {
	rec, ok := s.StoreEngine.Get(hash)
	time.Sleep(20 * time.Microsecond)
	return rec, ok
}

// TestServiceOppositeOrderGroups: two jobs submit the same 64-lane group
// in opposite slot orders over a slow store, so their workers meet in
// the middle — each owns some lanes and waits on the rest, the shape
// that deadlocks a worker waiting before it publishes. Repeated to vary
// the interleaving (run under -race): every round completes, executes
// each lane exactly once (the in-flight store re-check catches lanes
// published between a worker's store miss and its claim), and hands
// both jobs the same records.
func TestServiceOppositeOrderGroups(t *testing.T) {
	scs, err := replicateGrid(64).Expand()
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]Scenario, len(scs))
	for i, sc := range scs {
		rev[len(scs)-1-i] = sc
	}
	for round := 0; round < 20; round++ {
		var calls atomic.Int32
		svc := NewService(slowStore{NewMemStore()}, ServiceOptions{
			Jobs: 2,
			ExecuteFunc: func(s Scenario, _ ExecOptions) (Record, error) {
				calls.Add(1)
				return Record{Hash: s.Hash(), Spec: s}, nil
			},
		})
		a, err := svc.Submit(scs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := svc.Submit(rev)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []*Job{a, b} {
			select {
			case <-j.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: job %s never completed", round, j.ID())
			}
		}
		ra, _, errA := a.Wait()
		rb, _, errB := b.Wait()
		if errA != nil || errB != nil {
			t.Fatalf("round %d: %v / %v", round, errA, errB)
		}
		if n := calls.Load(); n != int32(len(scs)) {
			t.Fatalf("round %d: %d executions for %d lanes", round, n, len(scs))
		}
		for i := range scs {
			if ra[i].Hash != rb[len(scs)-1-i].Hash || ra[i].Hash != scs[i].Hash() {
				t.Fatalf("round %d: slot %d records disagree", round, i)
			}
		}
		svc.Close()
	}
}

// TestServiceSubmitGridRefusesOversized: a grid whose Size exceeds
// MaxPending is refused with ErrBackpressure without being expanded (a
// 2⁴⁰-replicate grid would never finish expanding); one that fits is
// expanded and admitted.
func TestServiceSubmitGridRefusesOversized(t *testing.T) {
	reg := obs.NewRegistry()
	svc := NewService(NewMemStore(), ServiceOptions{Jobs: 1, MaxPending: 8, Metrics: reg})
	defer svc.Close()
	g := serviceGrid()
	g.Replicates = 1 << 40
	if _, err := svc.SubmitGrid(g); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("oversized grid: err=%v, want ErrBackpressure", err)
	}
	if n := reg.Counter("sweep.service.rejected").Value(); n != 1 {
		t.Fatalf("rejected=%d, want 1", n)
	}
	job, err := svc.SubmitGrid(serviceGrid())
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := job.Wait(); err != nil || st.Total != 4 {
		t.Fatalf("fitting grid: stats=%+v err=%v", st, err)
	}
}
