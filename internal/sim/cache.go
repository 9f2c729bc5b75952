package sim

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// Default artifact-cache bounds. A sweep batch touches one graph per
// (family, n, Δ, graph-seed) point and one code table per
// parameterization, so these cover grids far larger than anything the
// experiment suite runs while keeping worst-case memory bounded.
const (
	DefaultMaxGraphs = 128
	DefaultMaxCodes  = 64
)

// Cache shares the expensive pure-function artifacts of scenario
// execution across a batch:
//
//   - graphs, which depend only on (family, n, Δ-parameter, graph seed)
//     — a GraphKey, which is the map key itself;
//   - Algorithm 1 code tables (core.Codes), which depend only on the
//     full core.Params value — the key is the content.
//
// A 64-scenario grid over ε/engine/replicate axes re-uses each graph
// and each code table instead of rebuilding them per scenario, and a
// shared graph additionally memoizes derived structure (the TDMA
// engine's distance-2 coloring) across the scenarios that run on it.
//
// Determinism: both artifact kinds are pure functions of their keys and
// immutable once built, so cache hits are indistinguishable from fresh
// construction — records are byte-identical with the cache on or off
// (TestArtifactCacheRecordsIdentical). Each kind is a memo: a bounded
// map of built results with oldest-first eviction, plus a FlightGroup
// in which concurrent lookups of one key join a single build. An
// in-flight build is never in the map, so eviction can never drop an
// entry a waiter still needs. A nil *Cache is valid and caches nothing.
type Cache struct {
	graphs memo[GraphKey, *graph.Graph]
	codes  memo[core.Params, *core.Codes]
}

// NewCache returns an empty cache with the default bounds.
func NewCache() *Cache {
	return NewCacheBounded(DefaultMaxGraphs, DefaultMaxCodes)
}

// NewCacheBounded returns an empty cache holding at most maxGraphs
// graphs and maxCodes code tables (each at least 1).
func NewCacheBounded(maxGraphs, maxCodes int) *Cache {
	if maxGraphs < 1 || maxCodes < 1 {
		panic(fmt.Sprintf("sim: cache bounds must be positive, got %d graphs / %d codes", maxGraphs, maxCodes))
	}
	return &Cache{
		graphs: memo[GraphKey, *graph.Graph]{max: maxGraphs, built: make(map[GraphKey]result[*graph.Graph])},
		codes:  memo[core.Params, *core.Codes]{max: maxCodes, built: make(map[core.Params]result[*core.Codes])},
	}
}

// GraphKey is the complete identity of a scenario graph: BuildGraph is a
// pure function of these four fields (DESIGN.md §4), so they are the
// cache key.
type GraphKey struct {
	Family string
	N      int
	Param  int
	Seed   uint64
}

// Graph returns the cached graph for key, calling build (which must be a
// pure function of the key) at most once per cached entry. A nil cache
// just calls build.
func (c *Cache) Graph(key GraphKey, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	if c == nil {
		return build()
	}
	return c.graphs.get(key, build)
}

// Codes returns the cached Algorithm 1 decode tables for p, building
// them at most once per cached entry. A nil cache builds fresh tables.
func (c *Cache) Codes(p core.Params) (*core.Codes, error) {
	if c == nil {
		return core.BuildCodes(p)
	}
	return c.codes.get(p, func() (*core.Codes, error) { return core.BuildCodes(p) })
}

// result is one finished build: its value and error are both cached.
type result[V any] struct {
	v   V
	err error
}

// memo is one artifact kind's cache. A lookup that misses the map
// claims the key in flights; the owner re-checks the map (a build of
// the key may have landed between the lookup and the claim), builds,
// inserts, then publishes to any waiters — the same idiom as the sweep
// Service's store re-check. A build counts as a miss; a map hit, a
// flight waiter and an owner whose re-check finds the entry count as
// hits.
type memo[K comparable, V any] struct {
	mu           sync.Mutex
	max          int
	built        map[K]result[V]
	order        []K // insertion order, oldest first
	flights      FlightGroup[K, result[V]]
	hits, misses int64
}

func (m *memo[K, V]) get(key K, build func() (V, error)) (V, error) {
	if r, ok := m.lookup(key); ok {
		return r.v, r.err
	}
	fl, owner := m.flights.Claim(key)
	if !owner {
		r := fl.Wait()
		m.mu.Lock()
		m.hits++
		m.mu.Unlock()
		return r.v, r.err
	}
	r, ok := m.lookup(key)
	if !ok {
		r.v, r.err = build()
		m.insert(key, r)
	}
	fl.Publish(r)
	return r.v, r.err
}

// lookup returns key's built result, counting a hit when present.
func (m *memo[K, V]) lookup(key K) (result[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.built[key]
	if ok {
		m.hits++
	}
	return r, ok
}

// insert caches a fresh build (a miss), evicting the oldest entry when
// the map is full.
func (m *memo[K, V]) insert(key K, r result[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.misses++
	if len(m.built) >= m.max {
		delete(m.built, m.order[0])
		m.order = m.order[1:]
	}
	m.built[key] = r
	m.order = append(m.order, key)
}

func (m *memo[K, V]) stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// CacheStats reports hit/miss counts per artifact kind.
type CacheStats struct {
	GraphHits, GraphMisses int64
	CodeHits, CodeMisses   int64
}

// Stats returns a snapshot of the cache's counters (zero for nil).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	var s CacheStats
	s.GraphHits, s.GraphMisses = c.graphs.stats()
	s.CodeHits, s.CodeMisses = c.codes.stats()
	return s
}

func (s CacheStats) String() string {
	return fmt.Sprintf("graphs %d/%d codes %d/%d (hits/misses)",
		s.GraphHits, s.GraphMisses, s.CodeHits, s.CodeMisses)
}
