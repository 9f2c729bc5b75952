package sim

import "sync"

// FlightGroup is keyed request-level singleflight: among concurrent
// callers, the work for a key runs at most once — the first caller in
// owns the execution, every other caller with the same key receives the
// owner's value, flagged shared. Once the owner publishes, the key is
// forgotten, so a later caller runs the work again: a FlightGroup
// dedupes only work that is literally in flight. Persistence of
// completed results is the caller's business, and both callers follow
// one idiom — look up, Claim, re-check inside an owned claim, build,
// persist, Publish. Cache persists built artifacts in its bounded maps;
// sweep's Service persists records in its store, so identical scenarios
// submitted by concurrent requests execute exactly once, whichever
// request got there first.
//
// Claim is the non-blocking form for callers holding several keys at
// once: the owner later calls Publish, a waiter calls Wait. Such a
// caller must publish every key it owns before it waits on any other,
// so that two callers claiming overlapping key sets in opposite orders
// cannot deadlock. Do is the blocking one-key form.
//
// The zero value is ready to use. Safe for concurrent use.
type FlightGroup[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*Flight[K, V]
}

// Flight is one key's in-flight execution, as returned by Claim.
type Flight[K comparable, V any] struct {
	g       *FlightGroup[K, V]
	key     K
	done    sync.WaitGroup // released by Publish
	val     V
	waiters int
}

// Claim joins key's flight without blocking. If no execution for key is
// in flight, the caller becomes its owner (owner = true) and must call
// Publish exactly once; otherwise the caller is counted as a waiter and
// receives the owner's value from Wait.
func (g *FlightGroup[K, V]) Claim(key K) (fl *Flight[K, V], owner bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.m[key]; ok {
		fl.waiters++
		return fl, false
	}
	fl = &Flight[K, V]{g: g, key: key}
	fl.done.Add(1)
	if g.m == nil {
		g.m = make(map[K]*Flight[K, V])
	}
	g.m[key] = fl
	return fl, true
}

// Publish lands the owner's value: the key is forgotten (a later Claim
// starts a fresh flight) and every waiter is released with v. Only the
// owner calls it, exactly once.
func (fl *Flight[K, V]) Publish(v V) {
	fl.val = v
	fl.g.mu.Lock()
	delete(fl.g.m, fl.key)
	fl.g.mu.Unlock()
	fl.done.Done()
}

// Wait blocks until the flight's owner publishes and returns the value.
func (fl *Flight[K, V]) Wait() V {
	fl.done.Wait()
	return fl.val
}

// Do returns fn's result for key, executing fn itself only if no
// execution for key is already in flight; otherwise it waits for the
// in-flight one and returns its value with shared = true. fn must not
// call Do on the same group with the same key (it would wait on
// itself).
func (g *FlightGroup[K, V]) Do(key K, fn func() V) (v V, shared bool) {
	fl, owner := g.Claim(key)
	if !owner {
		return fl.Wait(), true
	}
	fl.Publish(fn())
	return fl.val, false
}

// InFlight returns the number of executions currently in flight.
func (g *FlightGroup[K, V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// Waiters returns how many callers have joined key's in-flight
// execution as waiters (0 when key is not in flight). Tests use it to
// pin dedup interleavings deterministically.
func (g *FlightGroup[K, V]) Waiters(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.m[key]; ok {
		return fl.waiters
	}
	return 0
}
