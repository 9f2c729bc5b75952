package obs

import (
	"testing"
)

// The telemetry on/off guard pair: BenchmarkObsDisabledCounter measures
// the cost instrumented hot loops pay when telemetry is off (a nil
// check), BenchmarkObsEnabledCounter the atomic-add cost when on.
// CI's bench smoke runs both with -benchmem; the CI telemetry-guard
// step additionally runs TestDisabledPathOverheadBound, which fails the
// build if the disabled path regresses beyond a generous bound.

func BenchmarkObsDisabledCounter(b *testing.B) {
	var r *Registry
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsEnabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != int64(b.N) {
		b.Fatal("counter lost updates")
	}
}

func BenchmarkObsDisabledSpan(b *testing.B) {
	var r *Registry
	t := r.Timer("t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := t.Start()
		sp.Stop()
	}
}

func BenchmarkObsEnabledHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// TestDisabledPathOverheadBound is the ns-level half of the CI guard
// (the alloc half is TestDisabledPathZeroAlloc): a disabled counter add
// plus a disabled span must stay within a generous per-op bound. The
// true cost is ~1–2ns (two predictable nil checks); the bound is 50ns
// so only a real regression — an allocation, a time.Now on the nil
// path, accidental interface dispatch — trips it, not CI jitter.
func TestDisabledPathOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing bound not meaningful under -short")
	}
	var r *Registry
	c := r.Counter("c")
	tm := r.Timer("t")
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
			sp := tm.Start()
			sp.Stop()
		}
	})
	const boundNs = 50
	if perOp := res.NsPerOp(); perOp > boundNs {
		t.Fatalf("disabled telemetry path costs %dns/op, bound %dns — the zero-overhead contract regressed", perOp, boundNs)
	}
	if res.AllocsPerOp() != 0 {
		t.Fatalf("disabled telemetry path allocates %d/op, want 0", res.AllocsPerOp())
	}
}
