package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// pinnedDecode is one fixed run's decode-stage telemetry and result. The
// values were recorded from the per-member solo-mask decoder that the
// transcript-space collision map replaced; any decoder change that moves
// one of them changes records.
type pinnedDecode struct {
	members, soloFiltered, fallbackBits int64
	simRounds, beepRounds               int
	allDone                             bool
	beeps                               int64
	messageErrors, membershipErrors     int
	outputs                             uint64 // FNV-1a of fmt.Sprint(Outputs)
}

// TestDecodeCountersPinned runs four fixed scenarios and checks the
// decode counters and the Result against their pinned values: ByID at
// ε=0, a random codebook, the solo filter off, and a dense C=2 channel
// at ε=0.2 whose R=5 forces best-effort fallback bits.
func TestDecodeCountersPinned(t *testing.T) {
	small := graph.RandomBoundedDegree(24, 4, 0.15, rng.New(100))
	dense, err := graph.RandomRegular(32, 8, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		p    func() Params
		want pinnedDecode
	}{
		{
			name: "byid",
			g:    small,
			p:    func() Params { return runnerParams(small, 0) },
			want: pinnedDecode{members: 198, soloFiltered: 195, fallbackBits: 0, simRounds: 3, beepRounds: 7200, allDone: true, beeps: 5100, messageErrors: 0, membershipErrors: 0, outputs: 0xe655a6997784a0fb},
		},
		{
			name: "random-codebook",
			g:    small,
			p: func() Params {
				p := runnerParams(small, 0.05)
				p.Assignment, p.M = AssignRandom, 64
				return p
			},
			want: pinnedDecode{members: 188, soloFiltered: 188, fallbackBits: 0, simRounds: 3, beepRounds: 30240, allDone: true, beeps: 21420, messageErrors: 10, membershipErrors: 10, outputs: 0x5ce7429c50baab7d},
		},
		{
			name: "no-solo-filter",
			g:    small,
			p: func() Params {
				p := runnerParams(small, 0.1)
				p.DisableSoloFilter = true
				return p
			},
			want: pinnedDecode{members: 198, soloFiltered: 0, fallbackBits: 0, simRounds: 3, beepRounds: 44640, allDone: true, beeps: 31620, messageErrors: 0, membershipErrors: 0, outputs: 0xe655a6997784a0fb},
		},
		{
			name: "dense-fallback",
			g:    dense,
			p: func() Params {
				p := DefaultParams(dense.N(), dense.MaxDegree(), 12, 0.2)
				p.C, p.R = 2, 5
				return p
			},
			want: pinnedDecode{members: 772, soloFiltered: 772, fallbackBits: 71, simRounds: 3, beepRounds: 6480, allDone: true, beeps: 6960, messageErrors: 96, membershipErrors: 5, outputs: 0xd2da2d5c39664f36},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			runner, err := NewBroadcastRunner(tc.g, RunnerConfig{
				Params: tc.p(), ChannelSeed: 2, AlgSeed: 9, NoisyOwn: true, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			algs := make([]congest.BroadcastAlgorithm, tc.g.N())
			for v := range algs {
				algs[v] = &gossip{rounds: 3}
			}
			res, err := runner.Run(algs, 10)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			fmt.Fprint(h, res.Outputs)
			got := pinnedDecode{
				members:          reg.Counter("core.decode.members").Value(),
				soloFiltered:     reg.Counter("core.decode.solo_filtered").Value(),
				fallbackBits:     reg.Counter("core.decode.fallback_bits").Value(),
				simRounds:        res.SimRounds,
				beepRounds:       res.BeepRounds,
				allDone:          res.AllDone,
				beeps:            res.Beeps,
				messageErrors:    res.MessageErrors,
				membershipErrors: res.MembershipErrors,
				outputs:          h.Sum64(),
			}
			if got != tc.want {
				t.Errorf("decode drifted from its pinned values:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
