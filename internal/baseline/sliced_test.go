package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wire"
)

// sporadic is the conformance workload: nodes sit out a private number
// of initial rounds and finish after a private number of receptions,
// both drawn from the algorithm stream. Replicates with different
// AlgSeeds therefore desynchronize — some lanes hit zero-sender rounds
// (their channel clocks must stand still while other lanes burn beep
// rounds), and lanes retire from the group at different sim rounds —
// exactly the lane-skew the sliced runner must keep bit-identical.
type sporadic struct {
	env    congest.Env
	quiet  int
	rounds int
	got    [][]uint64
	done   bool
}

func (g *sporadic) Init(env congest.Env) {
	g.env = env
	g.quiet = int(env.Rng.Uint64() % 3)
	g.rounds = 2 + int(env.Rng.Uint64()%3)
	g.got = nil
	g.done = false
}

func (g *sporadic) Broadcast(round int) congest.Message {
	if round < g.quiet {
		return nil
	}
	var w wire.Writer
	w.WriteUint(uint64(g.env.ID), wire.BitsFor(g.env.N))
	return w.PaddedBytes(g.env.MsgBits)
}

func (g *sporadic) Receive(round int, msgs []congest.Message) {
	ids := []uint64{}
	for _, m := range msgs {
		id, err := wire.NewReader(m).ReadUint(wire.BitsFor(g.env.N))
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	g.got = append(g.got, ids)
	if len(g.got) >= g.rounds {
		g.done = true
	}
}

func (g *sporadic) Done() bool  { return g.done }
func (g *sporadic) Output() any { return g.got }

// laneSeeds derives distinct per-replicate seeds, the way a sweep grid
// gives every replicate its own ChannelSeed and AlgSeed.
func laneSeeds(lanes int) []LaneConfig {
	out := make([]LaneConfig, lanes)
	for k := range out {
		out[k] = LaneConfig{ChannelSeed: 1000 + 7*uint64(k), AlgSeed: 2000 + 13*uint64(k)}
	}
	return out
}

// TestSlicedMatchesSerial is the sliced-execution conformance suite at
// the runner level: for every noise model × lane count (1, 3, a
// non-power-of-two remainder, a full word) × own-noise convention, each
// lane of one sliced run must be deep-equal — counters, error scores,
// energy, outputs — to a standalone one-lane Runner over that lane's
// seeds, so no lane's result depends on its neighbors in the word. The
// sliced runner is exercised serial and sharded-parallel. (The records
// of the bit-packed runner the one-lane path replaced are pinned by the
// sweep package's golden tests.)
func TestSlicedMatchesSerial(t *testing.T) {
	g := graph.RandomBoundedDegree(18, 4, 0.18, rng.New(600))
	models := []struct {
		label    string
		noise    string
		eps      float64
		noisyOwn bool
	}{
		{label: "noiseless", eps: 0},
		{label: "symmetric", eps: 0.1, noisyOwn: true},
		{label: "symmetric-ownclean", eps: 0.1},
		{label: "asymmetric", noise: "asymmetric:0.03:0.15", noisyOwn: true},
		{label: "erasure", noise: "erasure:0.1:1"},
		{label: "gilbert-elliott", noise: "gilbert-elliott:0.02:0.3:0.1:0.2", noisyOwn: true},
	}
	const budget = 8
	for _, mc := range models {
		for _, lanes := range []int{1, 3, 37, 64} {
			t.Run(fmt.Sprintf("%s/lanes=%d", mc.label, lanes), func(t *testing.T) {
				cfg := Config{
					MsgBits:  8,
					Rho:      5,
					Epsilon:  mc.eps,
					Noise:    mc.noise,
					NoisyOwn: mc.noisyOwn,
				}
				seeds := laneSeeds(lanes)
				// References: one standalone one-lane Runner per lane.
				want := make([]*core.Result, lanes)
				for k := 0; k < lanes; k++ {
					kcfg := cfg
					kcfg.ChannelSeed = seeds[k].ChannelSeed
					kcfg.AlgSeed = seeds[k].AlgSeed
					r, err := NewRunner(g, kcfg)
					if err != nil {
						t.Fatal(err)
					}
					algs := make([]congest.BroadcastAlgorithm, g.N())
					for v := range algs {
						algs[v] = &sporadic{}
					}
					if want[k], err = r.Run(algs, budget); err != nil {
						t.Fatal(err)
					}
				}
				for _, workers := range []int{1, 4} {
					scfg := cfg
					scfg.Workers = workers
					sr, err := NewSlicedRunner(g, scfg, seeds)
					if err != nil {
						t.Fatal(err)
					}
					algs := make([][]congest.BroadcastAlgorithm, lanes)
					for k := range algs {
						algs[k] = make([]congest.BroadcastAlgorithm, g.N())
						for v := range algs[k] {
							algs[k][v] = &sporadic{}
						}
					}
					got, err := sr.Run(algs, budget)
					if err != nil {
						t.Fatal(err)
					}
					for k := range got {
						if !reflect.DeepEqual(got[k], want[k]) {
							t.Fatalf("workers=%d lane %d diverges from serial run:\n got %+v\nwant %+v",
								workers, k, got[k], want[k])
						}
					}
				}
			})
		}
	}
}

// pacer makes lane skew deterministic-by-construction: only node 0
// ever transmits, sitting out a private number of initial rounds, and
// only node 0's finish time varies — so each lane's sim-round count and
// zero-sender schedule hinge on single private draws that differ
// across AlgSeeds.
type pacer struct{ sporadic }

func (p *pacer) Init(env congest.Env) {
	p.sporadic.Init(env)
	if env.ID != 0 {
		p.quiet = 1 << 30 // never broadcasts
		p.rounds = 2
	}
}

// TestSlicedLaneSkew asserts the suite covers genuinely skewed lanes:
// across the 64-lane seed set some lane must retire before another,
// and some lane must consume fewer beep rounds than the busiest one
// (zero-sender rounds happened for it alone, its channel clock frozen).
// Without this the conformance matrix could silently degenerate into
// lockstep lanes. The same workload is then pinned against one-lane runs.
func TestSlicedLaneSkew(t *testing.T) {
	g := graph.RandomBoundedDegree(18, 4, 0.18, rng.New(600))
	seeds := laneSeeds(64)
	cfg := Config{MsgBits: 8, Rho: 5, Epsilon: 0.1, NoisyOwn: true}
	sr, err := NewSlicedRunner(g, cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	algs := make([][]congest.BroadcastAlgorithm, 64)
	for k := range algs {
		algs[k] = make([]congest.BroadcastAlgorithm, g.N())
		for v := range algs[k] {
			algs[k][v] = &pacer{}
		}
	}
	res, err := sr.Run(algs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := range res {
		kcfg := cfg
		kcfg.ChannelSeed = seeds[k].ChannelSeed
		kcfg.AlgSeed = seeds[k].AlgSeed
		r, err := NewRunner(g, kcfg)
		if err != nil {
			t.Fatal(err)
		}
		serial := make([]congest.BroadcastAlgorithm, g.N())
		for v := range serial {
			serial[v] = &pacer{}
		}
		want, err := r.Run(serial, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[k], want) {
			t.Fatalf("lane %d diverges from serial run under skew:\n got %+v\nwant %+v", k, res[k], want)
		}
	}
	minRounds, maxRounds := res[0].SimRounds, res[0].SimRounds
	minBeepRounds, maxBeepRounds := res[0].BeepRounds, res[0].BeepRounds
	for _, r := range res[1:] {
		minRounds, maxRounds = min(minRounds, r.SimRounds), max(maxRounds, r.SimRounds)
		minBeepRounds, maxBeepRounds = min(minBeepRounds, r.BeepRounds), max(maxBeepRounds, r.BeepRounds)
	}
	if minRounds == maxRounds {
		t.Errorf("all 64 lanes ran %d sim rounds; want retirement skew", minRounds)
	}
	if minBeepRounds == maxBeepRounds {
		t.Errorf("all 64 lanes consumed %d beep rounds; want zero-sender skew", minBeepRounds)
	}
}

func TestSlicedRunnerValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewSlicedRunner(g, Config{MsgBits: 8}, nil); err == nil {
		t.Error("0 lanes accepted")
	}
	if _, err := NewSlicedRunner(g, Config{MsgBits: 8}, laneSeeds(65)); err == nil {
		t.Error("65 lanes accepted")
	}
	sr, err := NewSlicedRunner(g, Config{MsgBits: 8}, laneSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Run(make([][]congest.BroadcastAlgorithm, 1), 4); err == nil {
		t.Error("lane/algorithm set mismatch accepted")
	}
}

// finisher finishes inside its first Broadcast.
type finisher struct{ sporadic }

func (f *finisher) Broadcast(round int) congest.Message {
	f.done = true
	return f.sporadic.Broadcast(round)
}

// TestSlicedDoneAtBroadcastHearsNothing: as in the native engine, a node
// whose Broadcast finishes it is done at delivery time and hears
// nothing that round, on noisy and quiet channels alike.
func TestSlicedDoneAtBroadcastHearsNothing(t *testing.T) {
	g := graph.Path(4)
	for _, eps := range []float64{0, 0.1} {
		sr, err := NewSlicedRunner(g, Config{MsgBits: 8, Rho: 3, Epsilon: eps}, laneSeeds(3))
		if err != nil {
			t.Fatal(err)
		}
		algs := make([][]congest.BroadcastAlgorithm, 3)
		for k := range algs {
			algs[k] = make([]congest.BroadcastAlgorithm, g.N())
			for v := range algs[k] {
				algs[k][v] = &finisher{}
			}
		}
		res, err := sr.Run(algs, 4)
		if err != nil {
			t.Fatal(err)
		}
		for k, la := range algs {
			if res[k].SimRounds != 1 || !res[k].AllDone {
				t.Errorf("ε=%v lane %d: sim rounds %d, all done %v; want 1, true", eps, k, res[k].SimRounds, res[k].AllDone)
			}
			for v, a := range la {
				if got := a.(*finisher).got; len(got) != 0 {
					t.Errorf("ε=%v lane %d node %d received %v after finishing in Broadcast", eps, k, v, got)
				}
			}
		}
	}
}
