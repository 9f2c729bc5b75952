package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolatesWithCounts(t *testing.T) {
	var s Samples
	if s.N() != 0 || s.Quantile(0.99) != 0 || s.Median() != 0 {
		t.Fatalf("empty samples: n=%d p99=%v", s.N(), s.Quantile(0.99))
	}
	for i := 100; i >= 1; i-- { // added out of order on purpose
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Fatalf("N = %d, want 100", s.N())
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.99, 99.01}, {0.25, 25.75},
	} {
		if got := s.Quantile(c.q); !near(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !near(s.Sum(), 5050) {
		t.Errorf("Sum = %v, want 5050", s.Sum())
	}
	// A sample added after a quantile was read is still counted.
	s.Add(1000)
	if got := s.Quantile(1); got != 1000 || s.N() != 101 {
		t.Errorf("after Add: max = %v, N = %d", got, s.N())
	}
}

func TestQuantileSmallSamples(t *testing.T) {
	var one Samples
	one.Add(7)
	if one.Quantile(0.99) != 7 || one.Median() != 7 {
		t.Errorf("single sample: p99=%v p50=%v", one.Quantile(0.99), one.Median())
	}
	// With 12 samples a p99 is interpolated between the two largest: the
	// count is what says how little it rests on.
	var s Samples
	for i := 1; i <= 12; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0.99); !near(got, 11.89) {
		t.Errorf("p99 of 1..12 = %v, want 11.89", got)
	}
	// Ten samples cannot support any percentile with ten beyond it;
	// twelve support only p16, and two hundred p95 (191..200 lie above).
	var ten Samples
	for i := 1; i <= 10; i++ {
		ten.Add(float64(i))
	}
	if q, _ := ten.Tail(10); q != 0 {
		t.Errorf("Tail(10) of 10 samples gave p%v", 100*q)
	}
	if q, _ := s.Tail(10); q != 0.16 {
		t.Errorf("Tail(10) of 12 samples gave p%v, want p16", 100*q)
	}
	var big Samples
	for i := 1; i <= 200; i++ {
		big.Add(float64(i))
	}
	if q, v := big.Tail(10); q != 0.95 || !near(v, 190.05) {
		t.Errorf("Tail(10) of 1..200 = p%v %v, want p95 190.05", 100*q, v)
	}
	var d Samples
	d.AddDuration(1500 * time.Microsecond)
	if d.Median() != 1.5 {
		t.Errorf("AddDuration stores ms: got %v", d.Median())
	}
}

func TestLayerSelfTimes(t *testing.T) {
	ms := time.Millisecond
	layers := []Layer{
		{Name: "execute", Total: 100 * ms, Children: []Layer{
			{Name: "graph", Total: 10 * ms},
			{Name: "run", Total: 80 * ms, Children: []Layer{
				{Name: "decode", Total: 50 * ms},
				{Name: "radio", Total: 20 * ms},
			}},
		}},
		{Name: "store", Total: 5 * ms},
	}
	self := SelfTimes(layers)
	want := map[string]time.Duration{"execute": 10 * ms, "graph": 10 * ms, "run": 10 * ms, "decode": 50 * ms, "radio": 20 * ms, "store": 5 * ms}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	// Self times sum to the top-level totals: 105ms over 100ms × 2.
	if got := SelfSumFrac(layers, 100*ms, 2); !near(got, 0.525) {
		t.Errorf("SelfSumFrac = %v, want 0.525", got)
	}
	// A child timed by another clock may exceed its parent: the parent's
	// self time clamps to 0 instead of going negative.
	over := []Layer{{Name: "run", Total: 10 * ms, Children: []Layer{{Name: "decode", Total: 12 * ms}}}}
	if s := SelfTimes(over); s["run"] != 0 || s["decode"] != 12*ms {
		t.Errorf("clamped self times = %v", s)
	}
	// Counting one layer twice is what pushes the fraction over 1.
	double := []Layer{{Name: "a", Total: 80 * ms}, {Name: "b", Total: 80 * ms}}
	if got := SelfSumFrac(double, 100*ms, 1); got <= 1 {
		t.Errorf("double-counted layers gave %v, want > 1", got)
	}
	if SelfSumFrac(layers, 0, 2) != 0 {
		t.Errorf("zero wall time must give 0")
	}
}

// TestPerLayerCoversEveryMetric checks the traced run can always print
// every per-layer metric, even for a workload that reaches no layer.
func TestPerLayerCoversEveryMetric(t *testing.T) {
	m := perLayer(layerData{parallelism: 1})
	for _, pm := range perLayerMetrics {
		v, ok := m[pm.name]
		if !ok {
			t.Errorf("perLayer does not compute %s", pm.name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on an empty run", pm.name, v)
		}
	}
	if len(m) != len(perLayerMetrics) {
		t.Errorf("perLayer computes %d metrics, the list has %d", len(m), len(perLayerMetrics))
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the harness: every
// workload and metric name uses only [A-Za-z0-9_.-], every workload
// listed is one the harness runs and it runs no other, and the metrics listed are exactly the
// ones it prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var all []entry
	all = append(append(append(all, spec.Workloads...), spec.EndToEnd...), spec.PerLayer...)
	for _, e := range all {
		if !name.MatchString(e.Name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("name %q used twice", e.Name)
		}
		seen[e.Name] = true
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not run by the harness", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, listed []entry, printed []metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", kind, len(listed), len(printed))
			return
		}
		for i, e := range listed {
			if e.Name != printed[i].name || e.Unit != printed[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness prints %s (%s)", kind, i, e.Name, e.Unit, printed[i].name, printed[i].unit)
			}
			if e.Better != "lower" && e.Better != "higher" {
				t.Errorf("%s: better = %q", e.Name, e.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
