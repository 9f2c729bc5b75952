package sweep

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Options configures a batch run.
type Options struct {
	// Jobs, Workers, Shards, and GenWorkers configure the scheduler and
	// each scenario's engine pool exactly as in ServiceOptions (Jobs 0 =
	// one per CPU; Workers 0 = auto). By the determinism contract, no
	// setting changes any record.
	Jobs       int
	Workers    int
	Shards     int
	GenWorkers int
	// Artifacts is the batch's shared artifact cache (graphs + code
	// tables); nil makes Run create a fresh one, so a batch always
	// builds each graph and code table once. Like the parallelism knobs
	// it never changes any record — cached artifacts are pure functions
	// of their keys.
	Artifacts *sim.Cache
	// Progress, when non-nil, receives one Event per scenario as it
	// completes (cache hit or run), serialized — no locking needed.
	Progress func(Event)
	// Metrics, when non-nil, receives the scheduler's observation-only
	// instrumentation (ServiceOptions.Metrics) and is threaded down
	// through ExecOptions into the engines. Like every Options knob it
	// never changes any record.
	Metrics *obs.Registry
	// MaxRoundsFactor forwards the round-budget guard to ExecOptions.
	// Unlike the other knobs it can change records (it bounds the run);
	// hold it constant across every run feeding one store.
	MaxRoundsFactor float64
}

// Event reports one scenario's completion to Options.Progress.
type Event struct {
	// Index is the scenario's position in the input slice; Done and
	// Total count completions so far.
	Index, Done, Total int
	// Cached reports a cache hit (no engine work).
	Cached bool
	// Record is the result (zero on error).
	Record Record
	// Err is the scenario's failure, if any.
	Err error
}

// Stats summarizes a batch.
type Stats struct {
	// Total counts scenarios requested; Unique counts distinct spec
	// hashes among them (duplicates are executed once).
	Total, Unique int
	// Cached counts scenarios served from the store with no engine work;
	// Ran counts engine executions; Failed counts errors.
	Cached, Ran, Failed int
	// Wall is the batch's total wall time.
	Wall time.Duration
}

func (st Stats) String() string {
	return fmt.Sprintf("total=%d cached=%d run=%d failed=%d wall=%s",
		st.Total, st.Cached, st.Ran, st.Failed, st.Wall.Round(time.Millisecond))
}

// Summary renders a batch's Stats together with the artifact cache's
// hit/miss counters — the end-of-run line the CLIs print so a sweep's
// cache effectiveness is visible without enabling full telemetry.
func Summary(st Stats, cs sim.CacheStats) string {
	return fmt.Sprintf("%s artifacts[%s]", st, cs)
}

// Run executes scenarios through the store: cache hits are served
// without engine work, misses are executed and persisted. It is a
// Submit+Wait on a private Service sized to the batch, so it schedules
// exactly like cmd/sweepd — replicate lanes run sliced, duplicates run
// once. Any StoreEngine serves — the in-memory Store or the seek-lookup
// IndexedStore. The returned slice is indexed like the input —
// records[i] is scenarios[i]'s record regardless of completion order,
// so batch output is deterministic even under concurrency. Unlike
// Submit, Run does not reject invalid scenarios up front: on scenario
// failures it keeps going, returns every successful record, and reports
// one error per failed unique scenario, joined (failed slots are zero
// Records).
func Run(scenarios []Scenario, store StoreEngine, opt Options) ([]Record, Stats, error) {
	if len(scenarios) == 0 {
		return []Record{}, Stats{}, nil
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	svc := NewService(store, ServiceOptions{
		Jobs: min(jobs, len(scenarios)), Workers: opt.Workers, Shards: opt.Shards, GenWorkers: opt.GenWorkers,
		MaxRoundsFactor: opt.MaxRoundsFactor, MaxPending: len(scenarios),
		Artifacts: opt.Artifacts, Metrics: opt.Metrics,
	})
	defer svc.Close()
	job, err := svc.submit(scenarios)
	if err != nil {
		return nil, Stats{}, err
	}
	if opt.Progress != nil {
		for ev := range job.Events() {
			opt.Progress(ev)
		}
	}
	return job.Wait()
}
