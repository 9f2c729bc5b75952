// Command perfbench is the repository benchmark: it runs one named
// workload against the sweep stack for a fixed time, checks every
// output it gets back, and prints its metrics as one JSON line.
//
//	perfbench --workload grid-cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with layer tracing on and prints the per-layer metrics. The
// metric and workload names are those of BENCHMARK.json at the root of
// the repository; README.md in this directory describes each one.
//
// All load comes from this one process, with at most runtime.NumCPU()
// concurrent callers or connections. The sweepd workloads run
// cmd/sweepd as a child process on loopback (--sweepd names the binary).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is a name and its unit, as BENCHMARK.json lists them.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (README.md says what each means per workload).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"scenarios_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"resubmit_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are the single-layer metrics of the traced run.
var perLayerMetrics = []metric{
	{"graph.build_ms", "ms"}, {"graph.builds", "count"}, {"codes.build_ms", "ms"},
	{"sim.cache.graph_hit_ratio", "ratio"}, {"sim.cache.code_hit_ratio", "ratio"},
	{"core.run_ms", "ms"}, {"core.phase.decode_ms", "ms"}, {"core.phase.radio1_ms", "ms"},
	{"core.phase.radio2_ms", "ms"}, {"core.phase.collect_ms", "ms"}, {"core.decode.members", "count"},
	{"baseline.run_ms", "ms"}, {"tdma.phase.decode_ms", "ms"}, {"tdma.phase.radio_ms", "ms"},
	{"tdma.phase.encode_ms", "ms"}, {"baseline.sliced_lanes_mean", "lanes"},
	{"beep.rounds", "count"}, {"beep.window_ms", "ms"}, {"noise.flips", "count"}, {"engine.pool.wait_ms", "ms"},
	{"sweep.execute_ms", "ms"}, {"sweep.busy_frac", "ratio"}, {"sweep.store.hit_ratio", "ratio"},
	{"sweep.service.executions", "count"}, {"sweep.service.singleflight_hits", "count"},
	{"sweep.service.first_event_ms", "ms"},
	{"store.get_us_p50", "us"}, {"store.get_us_p99", "us"}, {"store.gets", "count"},
	{"store.put_us_p50", "us"}, {"store.put_us_p99", "us"}, {"store.puts", "count"},
	{"store.open_ms", "ms"}, {"store.open_rebuild_ms", "ms"}, {"store.compact_ms", "ms"},
	{"record.encode_us", "us"}, {"record.decode_us", "us"},
	{"http.get_ttfb_ms_p50", "ms"}, {"http.get_ttfb_ms_p99", "ms"}, {"http.submit_ms_p50", "ms"},
	{"http.job_records_ms_p50", "ms"}, {"http.conn_reuse_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"}, {"layers.self_sum_frac", "ratio"},
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sweepd   string // cmd/sweepd binary
	work     string // private working directory, removed at exit
	procs    int    // callers/connections and scheduler jobs: nproc
}

// tally counts operations and failures; every correctness check that
// fails is one failed operation.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	shown             int
}

func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.shown < 10 {
		t.shown++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
	return false
}

// outcome is what a workload hands back: its end-to-end or per-layer
// values, plus sample counts and notes for the human-readable summary.
type outcome struct {
	values map[string]float64
	notes  []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config, *tally) (outcome, error){
	"grid-cold":          gridCold,
	"service-replicates": serviceReplicates,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: grid-cold or service-replicates")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.sweepd, "sweepd", "", "path of the cmd/sweepd binary (sweepd workloads)")
	workRoot := flag.String("workdir", ".bench_build/work", "parent of the run's working directory")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.procs = runtime.NumCPU()

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (grid-cold|service-replicates), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(*workRoot, cfg.workload+"-")
	if err != nil {
		fatal(err)
	}
	cfg.work = work
	var t tally
	out, err := run(cfg, &t)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	if err := printResult(cfg, &t, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printResult writes the human summary to stderr and the result line —
// exactly the metrics of the run's kind, each with its unit — as the
// last line of stdout.
func printResult(cfg config, t *tally, out outcome) error {
	want := endToEnd
	if cfg.trace {
		want = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := out.values[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	names := make([]string, 0, len(want))
	for _, m := range want {
		names = append(names, m.name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setupSamples collects a workload's set-up times (seconds). The
// workloads take them a few at a time between cycles, spread over the
// run, rather than in one burst: on a shared host a minute of contention
// then moves a few samples, not the median. Each set-up starts from a
// collected heap, so none pays for another's garbage.
type setupSamples struct {
	once func() (time.Duration, error)
	Samples
}

func (s *setupSamples) take(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		d, err := s.once()
		if err != nil {
			return err
		}
		s.Add(d.Seconds())
	}
	return nil
}

// subdir makes a fresh directory under the run's working directory.
func subdir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.work, name)
	return dir, os.MkdirAll(dir, 0o755)
}
