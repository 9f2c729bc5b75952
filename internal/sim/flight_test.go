package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupDedupes: N concurrent Do calls on one key run fn once;
// exactly one caller owns the execution, the rest share its value.
func TestFlightGroupDedupes(t *testing.T) {
	var g FlightGroup[string, int]
	var calls atomic.Int32
	release := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	vals := make([]int, waiters)
	owners := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared := g.Do("k", func() int {
				calls.Add(1)
				<-release // hold the flight open until all callers joined
				return 42
			})
			vals[i], owners[i] = v, !shared
		}(i)
	}
	// Wait for the flight to exist, then give the other goroutines time
	// to pile onto it before releasing (the x/sync singleflight test
	// pattern — fn blocks, so the flight cannot land early).
	for g.InFlight() == 0 {
		runtime.Gosched()
	}
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	ownerN := 0
	for i := 0; i < waiters; i++ {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, vals[i])
		}
		if owners[i] {
			ownerN++
		}
	}
	if ownerN != 1 {
		t.Fatalf("%d callers report shared=false, want exactly 1", ownerN)
	}
	if g.InFlight() != 0 {
		t.Fatalf("flight not forgotten after completion: %d in flight", g.InFlight())
	}
}

// TestFlightGroupForgetsAfterCompletion: unlike a cache, the group
// holds nothing once a flight lands — a later Do on the same key runs
// fn again (persistence is the store's job, not the flight group's).
func TestFlightGroupForgetsAfterCompletion(t *testing.T) {
	var g FlightGroup[string, int]
	var calls atomic.Int32
	fn := func() int { calls.Add(1); return int(calls.Load()) }
	if v, shared := g.Do("k", fn); v != 1 || shared {
		t.Fatalf("first Do: v=%d shared=%v", v, shared)
	}
	if v, shared := g.Do("k", fn); v != 2 || shared {
		t.Fatalf("second Do: v=%d shared=%v, want a fresh run", v, shared)
	}
}

// TestFlightGroupIndependentKeys: distinct keys fly independently and
// concurrently.
func TestFlightGroupIndependentKeys(t *testing.T) {
	var g FlightGroup[int, int]
	var wg sync.WaitGroup
	var calls atomic.Int32
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, _ := g.Do(k, func() int { calls.Add(1); return k * k })
			if v != k*k {
				t.Errorf("key %d got %d", k, v)
			}
		}(k)
	}
	wg.Wait()
	if n := calls.Load(); n != 16 {
		t.Fatalf("fn ran %d times, want 16 (one per key)", n)
	}
}

// claimAll is the multi-key claim discipline: claim every key without
// blocking, run and publish the owned ones, and only then wait on the
// keys another caller owns. claimed runs between the claim and run
// phases. It returns each key's value and how many keys this caller
// owned.
func claimAll(g *FlightGroup[int, int], keys []int, claimed func(), run func(k int) int) (map[int]int, int) {
	owned := make(map[int]*Flight[int, int])
	waiting := make(map[int]*Flight[int, int])
	for _, k := range keys {
		if fl, owner := g.Claim(k); owner {
			owned[k] = fl
		} else {
			waiting[k] = fl
		}
	}
	claimed()
	vals := make(map[int]int, len(keys))
	for k, fl := range owned {
		vals[k] = run(k)
		fl.Publish(vals[k])
	}
	for k, fl := range waiting {
		vals[k] = fl.Wait()
	}
	return vals, len(owned)
}

// TestFlightGroupClaimOppositeOrders pins the interleaving that would
// deadlock a caller that waited while holding unpublished claims: A
// claims k1 then k2, B claims k2 then k1, so A owns k1 and waits on k2
// while B owns k2 and waits on k1. Both finish, each key runs once, and
// each side sees the other's value.
func TestFlightGroupClaimOppositeOrders(t *testing.T) {
	var g FlightGroup[int, int]
	var calls [2]atomic.Int32
	const k1, k2 = 1, 2
	run := func(k int) int { calls[k-1].Add(1); return 100 * k }
	// step sequences the four claims: A k1, B k2, A k2, B k1. Both
	// claimants then publish and wait.
	var step [4]chan struct{}
	for i := range step {
		step[i] = make(chan struct{})
	}
	var claimed sync.WaitGroup
	claimed.Add(2)
	claimant := func(first, second, turn1, turn2 int) map[int]int {
		if turn1 > 0 {
			<-step[turn1-1]
		}
		own, owner := g.Claim(first)
		if !owner {
			t.Errorf("claimant of %d first is not its owner", first)
		}
		close(step[turn1])
		<-step[turn2-1]
		other, owner := g.Claim(second)
		if owner {
			t.Errorf("claimant of %d second owns it, want waiter", second)
		}
		close(step[turn2])
		claimed.Done()
		claimed.Wait()
		own.Publish(run(first))
		return map[int]int{first: own.Wait(), second: other.Wait()}
	}
	res := make(chan map[int]int, 2)
	go func() { res <- claimant(k1, k2, 0, 2) }()
	go func() { res <- claimant(k2, k1, 1, 3) }()
	for i := 0; i < 2; i++ {
		select {
		case vals := <-res:
			if vals[k1] != 100 || vals[k2] != 200 {
				t.Fatalf("claimant saw %v, want map[1:100 2:200]", vals)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock: claimants never finished")
		}
	}
	for k := range calls {
		if n := calls[k].Load(); n != 1 {
			t.Fatalf("key %d ran %d times, want 1", k+1, n)
		}
	}
	if g.InFlight() != 0 {
		t.Fatalf("%d flights left after publish", g.InFlight())
	}
}

// TestFlightGroupClaimOverlappingSets: two claimants over overlapping
// key sets, claimed in opposite orders with the claims themselves
// unsequenced, repeated to shake out interleavings under -race. A
// barrier after the claim phase keeps every flight open until both
// claimants have claimed (a flight published earlier is forgotten, and
// a late claimant would rightly run the key again), so every key runs
// exactly once per round and both claimants see the same value for the
// shared keys.
func TestFlightGroupClaimOverlappingSets(t *testing.T) {
	var g FlightGroup[int, int]
	for round := 0; round < 200; round++ {
		var calls [12]atomic.Int32
		run := func(k int) int { calls[k].Add(1); return 1000*round + k }
		a := []int{0, 1, 2, 3, 4, 5, 6, 7}   // ascending
		b := []int{11, 10, 9, 8, 7, 6, 5, 4} // descending, overlap 4..7
		var wg, barrier sync.WaitGroup
		claimed := func() { barrier.Done(); barrier.Wait() }
		var va, vb map[int]int
		var oa, ob int
		wg.Add(2)
		barrier.Add(2)
		go func() { defer wg.Done(); va, oa = claimAll(&g, a, claimed, run) }()
		go func() { defer wg.Done(); vb, ob = claimAll(&g, b, claimed, run) }()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: deadlock", round)
		}
		for k := range calls {
			if n := calls[k].Load(); n != 1 {
				t.Fatalf("round %d: key %d ran %d times, want 1", round, k, n)
			}
		}
		if oa+ob != 12 {
			t.Fatalf("round %d: claimants owned %d+%d keys, want 12 in total", round, oa, ob)
		}
		for k := 4; k <= 7; k++ {
			if va[k] != vb[k] || va[k] != 1000*round+k {
				t.Fatalf("round %d: key %d seen as %d and %d", round, k, va[k], vb[k])
			}
		}
	}
}
