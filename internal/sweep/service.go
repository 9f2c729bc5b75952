package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Service is the sweep scheduler: a resident worker pool that serves
// many concurrent submissions over one store — the shape cmd/sweepd
// exposes over HTTP, and the one scheduler behind the one-shot Run (a
// Submit+Wait on a private Service). Each Submit gets its own Job with a
// private result slice and a streaming event channel; the scenarios of
// all jobs share the worker pool, the store, the artifact cache, and one
// request-level singleflight group, so identical scenarios submitted
// concurrently by different requests execute exactly once
// (sim.FlightGroup — the artifact cache's per-entry sync.Once
// generalized to the request layer).
//
// Submit enqueues a job as lane groups (sliceGroups), and a worker runs
// the lanes of a group it owns in one sliced engine pass (runGroup).
//
// Records are byte-identical to Execute output by the determinism
// contract: the service changes scheduling only, never results.
type Service struct {
	store StoreEngine
	exec  ExecOptions
	// execute is the ExecuteFunc test seam (nil in production).
	execute func(Scenario, ExecOptions) (Record, error)

	tasks   chan task
	flights sim.FlightGroup[string, flightResult]
	wg      sync.WaitGroup
	m       serviceMetrics

	mu         sync.Mutex
	pending    int // queued + running scenarios, bounded by maxPending
	maxPending int
	nextJob    int
	jobs       map[string]*Job
	closed     bool
}

// ServiceOptions configures a Service.
type ServiceOptions struct {
	// Jobs is the worker count (0 = one per CPU): each worker runs one
	// lane group at a time. Workers, Shards, and GenWorkers configure
	// each run's engine pool and graph generation (ExecOptions); an auto
	// Workers (0) runs serial when Jobs > 1 — the cores belong to the
	// scheduler — and gives the single worker the whole machine when
	// Jobs = 1. By the determinism contract, no setting changes any
	// record.
	Jobs, Workers, Shards, GenWorkers int
	// MaxRoundsFactor forwards the round-budget guard (ExecOptions);
	// like a spec axis, hold it constant over one store's lifetime.
	MaxRoundsFactor float64
	// MaxPending bounds queued-plus-running scenarios across all jobs
	// (0 = DefaultMaxPending): the backpressure valve. A Submit that
	// would exceed it fails fast with ErrBackpressure instead of growing
	// an unbounded queue.
	MaxPending int
	// Artifacts shares graphs and code tables across the service's whole
	// lifetime (nil = a fresh cache); Metrics receives the scheduler's
	// observation-only instrumentation, including the singleflight dedup
	// counter sweep.service.singleflight_hits.
	Artifacts *sim.Cache
	Metrics   *obs.Registry
	// ExecuteFunc replaces the engine run (nil = Execute for a single
	// lane, one sliced pass for a lane group). A test seam: blocking it
	// lets tests pin store-hit, singleflight, and backpressure
	// interleavings deterministically. Under the seam every owned lane
	// runs through it alone, so a substitute only ever sees one
	// scenario. Production callers leave it nil — any substitute must
	// preserve the determinism contract (records a pure function of the
	// spec).
	ExecuteFunc func(Scenario, ExecOptions) (Record, error)
}

// DefaultMaxPending is the default backpressure bound.
const DefaultMaxPending = 4096

// ErrBackpressure is returned by Submit when accepting the request
// would exceed the service's MaxPending bound.
var ErrBackpressure = errors.New("sweep: service queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("sweep: service is closed")

// serviceMetrics is the scheduler's one metric set; the zero value (nil
// registry) disables everything at one pointer check per use.
type serviceMetrics struct {
	submissions *obs.Counter
	scenarios   *obs.Counter
	dups        *obs.Counter
	groups      *obs.Counter
	storeHits   *obs.Counter // first lookup hit
	storeMisses *obs.Counter // first lookup miss
	served      *obs.Counter // served from the store: first lookup or in-flight re-check
	executions  *obs.Counter
	dedup       *obs.Counter
	rejected    *obs.Counter
	queueDepth  *obs.Gauge
}

func newServiceMetrics(reg *obs.Registry, artifacts *sim.Cache) serviceMetrics {
	if reg == nil {
		return serviceMetrics{}
	}
	// Pull-based cache counters: evaluated at snapshot time against the
	// service's artifact cache. Func replaces on re-registration, so each
	// service re-points the metrics at its own cache.
	reg.Func("sim.cache.graph_hits", func() int64 { return artifacts.Stats().GraphHits })
	reg.Func("sim.cache.graph_misses", func() int64 { return artifacts.Stats().GraphMisses })
	reg.Func("sim.cache.code_hits", func() int64 { return artifacts.Stats().CodeHits })
	reg.Func("sim.cache.code_misses", func() int64 { return artifacts.Stats().CodeMisses })
	return serviceMetrics{
		submissions: reg.Counter("sweep.service.submissions"),
		scenarios:   reg.Counter("sweep.service.scenarios"),
		dups:        reg.Counter("sweep.service.dups"),
		groups:      reg.Counter("sweep.service.groups"),
		storeHits:   reg.Counter("sweep.store.hits"),
		storeMisses: reg.Counter("sweep.store.misses"),
		served:      reg.Counter("sweep.service.store_hits"),
		executions:  reg.Counter("sweep.service.executions"),
		dedup:       reg.Counter("sweep.service.singleflight_hits"),
		rejected:    reg.Counter("sweep.service.rejected"),
		queueDepth:  reg.Gauge("sweep.service.queue_depth"),
	}
}

// task is one lane group of a job: the unique slots it resolves, and
// how many submitted slots that covers (in-job duplicates included) for
// the pending count.
type task struct {
	job   *Job
	lanes []int
	slots int
}

// flightResult is what an owned lane publishes to the tasks waiting on
// its hash.
type flightResult struct {
	rec Record
	err error
}

// NewService starts a service over store: opts.Jobs resident workers
// draining one shared lane-group queue. Close releases them.
func NewService(store StoreEngine, opts ServiceOptions) *Service {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	workers := opts.Workers
	if workers == 0 {
		if jobs > 1 {
			workers = 1
		} else {
			workers = engine.AutoWorkers
		}
	}
	maxPending := opts.MaxPending
	if maxPending <= 0 {
		maxPending = DefaultMaxPending
	}
	artifacts := opts.Artifacts
	if artifacts == nil {
		artifacts = sim.NewCache()
	}
	s := &Service{
		store: store,
		exec: ExecOptions{
			Workers: workers, Shards: opts.Shards, GenWorkers: opts.GenWorkers,
			Artifacts: artifacts, Metrics: opts.Metrics, MaxRoundsFactor: opts.MaxRoundsFactor,
		},
		execute:    opts.ExecuteFunc,
		tasks:      make(chan task, maxPending),
		maxPending: maxPending,
		jobs:       make(map[string]*Job),
		m:          newServiceMetrics(opts.Metrics, artifacts),
	}
	for w := 0; w < jobs; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues scenarios as one Job. It returns
// immediately: progress streams on Job.Events, completion blocks on
// Job.Wait. ErrBackpressure reports a full queue (nothing enqueued —
// admission is all-or-nothing, so a rejected request leaves no orphan
// tasks); ErrClosed a closed service; a validation error the first
// invalid scenario.
func (s *Service) Submit(scenarios []Scenario) (*Job, error) {
	if len(scenarios) == 0 {
		return nil, errors.New("sweep: empty submission")
	}
	for i, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: submission scenario %d: %w", i, err)
		}
	}
	return s.submit(scenarios)
}

// SubmitGrid expands g and submits it like Submit. A grid whose Size
// exceeds MaxPending could never be admitted, so it is refused with
// ErrBackpressure before it is expanded: a hostile replicate count costs
// nothing proportional to itself.
func (s *Service) SubmitGrid(g Grid) (*Job, error) {
	if n := g.Size(); n > s.maxPending {
		s.m.rejected.Inc()
		return nil, fmt.Errorf("%w: grid of up to %d scenarios > %d", ErrBackpressure, n, s.maxPending)
	}
	scenarios, err := g.Expand()
	if err != nil {
		return nil, err
	}
	return s.Submit(scenarios)
}

// submit is Submit without validation: an invalid scenario fails its
// own slot at execution, which is Run's keep-going contract.
func (s *Service) submit(scenarios []Scenario) (*Job, error) {
	// Duplicate specs inside one job run once: the first slot with a
	// given hash owns execution, later ones copy its result. Hashes are
	// computed once up front — they're SHA-256 over canonical JSON, too
	// expensive to recompute per store lookup — and outside the lock.
	hashes := make([]string, len(scenarios))
	first := make(map[string]int, len(scenarios))
	dups := make([][]int, len(scenarios))
	var order []int
	for i, sc := range scenarios {
		hashes[i] = sc.Hash()
		if f, ok := first[hashes[i]]; ok {
			dups[f] = append(dups[f], i)
			continue
		}
		first[hashes[i]] = i
		order = append(order, i)
	}
	groups := sliceGroups(scenarios, order)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.pending+len(scenarios) > s.maxPending {
		s.mu.Unlock()
		s.m.rejected.Inc()
		return nil, fmt.Errorf("%w: %d pending + %d submitted > %d", ErrBackpressure, s.pending, len(scenarios), s.maxPending)
	}
	s.pending += len(scenarios)
	s.m.queueDepth.Set(int64(s.pending))
	s.nextJob++
	j := &Job{
		id:        fmt.Sprintf("j%d", s.nextJob),
		scenarios: scenarios,
		hashes:    hashes,
		unique:    order,
		dups:      dups,
		records:   make([]Record, len(scenarios)),
		errs:      make([]error, len(scenarios)),
		events:    make(chan Event, len(scenarios)),
		done:      make(chan struct{}),
		start:     time.Now(),
		stats:     Stats{Total: len(scenarios), Unique: len(order)},
	}
	s.jobs[j.id] = j
	// Enqueue under the lock: pending accounting guarantees channel
	// capacity (a job has no more groups than scenarios), so these
	// sends never block.
	for _, g := range groups {
		slots := len(g)
		for _, i := range g {
			slots += len(dups[i])
		}
		s.tasks <- task{job: j, lanes: g, slots: slots}
	}
	s.mu.Unlock()
	s.m.submissions.Inc()
	s.m.scenarios.Add(int64(len(scenarios)))
	s.m.dups.Add(int64(len(scenarios) - len(order)))
	s.m.groups.Add(int64(len(groups)))
	return j, nil
}

// sliceGroups partitions a job's unique slots (order) into execution
// units. Scenarios whose engine advertises replicate-sliced execution
// and that share a sliceKey (same spec up to replicate seeds) coalesce
// into lane groups of at most 64; everything else — including invalid
// scenarios, whose engine does not resolve — stays a singleton.
// Grouping follows first-seen order, so scheduling remains
// deterministic, and records are unaffected (slicing is pinned
// byte-identical to serial execution).
func sliceGroups(scenarios []Scenario, order []int) [][]int {
	groups := make([][]int, 0, len(order))
	byKey := make(map[Scenario]int)
	for _, i := range order {
		sc := scenarios[i]
		if !slicedCapable(sc) {
			groups = append(groups, []int{i})
			continue
		}
		key := sliceKey(sc)
		if gi, ok := byKey[key]; ok && len(groups[gi]) < 64 {
			groups[gi] = append(groups[gi], i)
			continue
		}
		byKey[key] = len(groups)
		groups = append(groups, []int{i})
	}
	return groups
}

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobIDs returns the IDs of every job the service has accepted, in
// submission order.
func (s *Service) JobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for i := 1; i <= s.nextJob; i++ {
		id := fmt.Sprintf("j%d", i)
		if _, ok := s.jobs[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// Close stops admission, drains the queue (every accepted job still
// completes), and releases the workers.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.tasks)
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		s.runGroup(t)
		s.mu.Lock()
		s.pending -= t.slots
		s.m.queueDepth.Set(int64(s.pending))
		s.mu.Unlock()
	}
}

// runGroup resolves one lane group. Store hits are served lane by lane
// and each miss is claimed in the singleflight group. The owned lanes
// run together and are published before the task waits on any lane
// another task had in flight, so no worker blocks while holding an
// unpublished claim (two jobs claiming overlapping groups in opposite
// orders cannot deadlock). Lanes served by another task's flight count
// as cached: this job did no engine work.
//
// The store is checked twice: once before the claim (the fast path) and
// again inside an owned claim. The re-check closes the exactly-once gap
// where a lane misses the store, the in-flight execution for the same
// hash then lands (Put + key forgotten), and the claim would otherwise
// start a second execution of work the store already holds.
func (s *Service) runGroup(t task) {
	j := t.job
	type waiter struct {
		slot int
		fl   *sim.Flight[string, flightResult]
	}
	var (
		own     []int
		owned   []*sim.Flight[string, flightResult]
		waiting []waiter
	)
	for _, i := range t.lanes {
		hash := j.hashes[i]
		if rec, ok := s.store.Get(hash); ok {
			s.m.storeHits.Inc()
			s.m.served.Inc()
			j.report(i, rec, true, nil)
			continue
		}
		s.m.storeMisses.Inc()
		fl, owner := s.flights.Claim(hash)
		if !owner {
			waiting = append(waiting, waiter{i, fl})
			continue
		}
		if rec, ok := s.store.Get(hash); ok {
			s.m.served.Inc()
			fl.Publish(flightResult{rec: rec})
			j.report(i, rec, true, nil)
			continue
		}
		own = append(own, i)
		owned = append(owned, fl)
	}
	if len(own) > 0 {
		s.m.executions.Add(int64(len(own)))
		for k, res := range s.runLanes(j, own) {
			owned[k].Publish(res)
			j.report(own[k], res.rec, false, res.err)
		}
	}
	for _, w := range waiting {
		res := w.fl.Wait()
		s.m.dedup.Inc()
		j.report(w.slot, res.rec, true, res.err)
	}
}

// runLanes executes a task's owned lanes — one sliced pass for several,
// Execute for one, the ExecuteFunc seam lane by lane — and persists
// each success. The results are positionally parallel to lanes.
func (s *Service) runLanes(j *Job, lanes []int) []flightResult {
	res := make([]flightResult, len(lanes))
	if len(lanes) > 1 && s.execute == nil {
		scs := make([]Scenario, len(lanes))
		hashes := make([]string, len(lanes))
		for k, i := range lanes {
			scs[k], hashes[k] = j.scenarios[i], j.hashes[i]
		}
		recs, err := executeSliced(scs, hashes, s.exec)
		for k := range res {
			if err != nil {
				res[k].err = err
			} else {
				res[k].rec = recs[k]
			}
		}
	} else {
		execute := s.execute
		if execute == nil {
			execute = Execute
		}
		for k, i := range lanes {
			res[k].rec, res[k].err = execute(j.scenarios[i], s.exec)
		}
	}
	for k := range res {
		if res[k].err == nil {
			res[k].err = s.store.Put(res[k].rec)
		}
	}
	return res
}

// Job is one accepted submission: a per-request result slice, progress
// stream, and completion signal over the service's shared workers.
type Job struct {
	id        string
	scenarios []Scenario
	hashes    []string
	// unique lists the first slot of each hash; dups, per first slot,
	// the later slots with its hash, which receive its outcome.
	unique []int
	dups   [][]int

	mu      sync.Mutex
	records []Record
	errs    []error
	stats   Stats
	doneN   int
	start   time.Time

	events chan Event
	done   chan struct{}
}

// ID returns the service-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Events streams one Event per scenario as it completes, then closes:
// the per-request progress feed (cmd/sweepd forwards it as NDJSON). The
// channel is buffered to the job's full size, so a consumer that never
// reads costs nothing and a consumer that arrives late still sees every
// event.
func (j *Job) Events() <-chan Event { return j.events }

// Done is closed when every scenario has completed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes and returns what Run returns: a
// record per input slot (zero on failure), the job's stats, and one
// error per failed unique scenario, joined.
func (j *Job) Wait() ([]Record, Stats, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	var failures []error
	for _, i := range j.unique {
		if j.errs[i] != nil {
			failures = append(failures, j.errs[i])
		}
	}
	return append([]Record(nil), j.records...), j.stats, errors.Join(failures...)
}

// JobStatus is a point-in-time progress snapshot (the cmd/sweepd
// polling shape).
type JobStatus struct {
	ID        string `json:"id"`
	Total     int    `json:"total"`
	Unique    int    `json:"unique"`
	Done      int    `json:"done"`
	Cached    int    `json:"cached"`
	Ran       int    `json:"ran"`
	Failed    int    `json:"failed"`
	Complete  bool   `json:"complete"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// Status returns the job's current progress.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.id,
		Total:     j.stats.Total,
		Unique:    j.stats.Unique,
		Done:      j.doneN,
		Cached:    j.stats.Cached,
		Ran:       j.stats.Ran,
		Failed:    j.stats.Failed,
		Complete:  j.doneN == j.stats.Total,
		ElapsedMS: int64(j.elapsed() / time.Millisecond),
	}
}

// elapsed is the job's wall clock: frozen at completion. Caller holds
// j.mu.
func (j *Job) elapsed() time.Duration {
	if j.doneN == j.stats.Total {
		return j.stats.Wall
	}
	return time.Since(j.start)
}

// Records returns the records completed so far, indexed like the
// submission (zero Records for pending or failed slots).
func (j *Job) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.records...)
}

// report lands one unique slot's outcome, and a copy on each of its
// in-job duplicates: result slice, stats, event stream, and — on the
// last slot — completion. A duplicate of a success counts as cached (no
// engine work for that slot); a duplicate of a failure is a failure.
func (j *Job) report(idx int, rec Record, cached bool, err error) {
	if err != nil {
		rec, cached = Record{}, false
		err = fmt.Errorf("scenario %d (%s): %w", idx, j.hashes[idx], err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.land(idx, rec, cached, err)
	for _, d := range j.dups[idx] {
		j.land(d, rec, err == nil, err)
	}
}

// land records one slot. Caller holds j.mu.
func (j *Job) land(idx int, rec Record, cached bool, err error) {
	j.records[idx], j.errs[idx] = rec, err
	j.doneN++
	switch {
	case err != nil:
		j.stats.Failed++
	case cached:
		j.stats.Cached++
	default:
		j.stats.Ran++
	}
	complete := j.doneN == j.stats.Total
	if complete {
		j.stats.Wall = time.Since(j.start)
	}
	// Send under the lock: the channel is buffered to Total so the send
	// never blocks, and holding the lock keeps the event stream ordered
	// by its Done counter.
	j.events <- Event{Index: idx, Done: j.doneN, Total: j.stats.Total, Cached: cached, Record: rec, Err: err}
	if complete {
		close(j.events)
		close(j.done)
	}
}
