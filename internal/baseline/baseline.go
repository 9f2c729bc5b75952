// Package baseline implements the prior-work simulation of message
// passing with beeps that the paper improves on (§1.2, §1.4): the
// TDMA-style schedule of Beauquier et al. [7] and Ashkenazi–Gelles–Leshem
// [4], which colors G² and lets each color class transmit alone.
//
// Because any two neighbors of a listener are within distance 2 of each
// other, a proper distance-2 coloring guarantees at most one transmitter
// per listener neighborhood per slot, so messages arrive collision-free;
// noise is defeated by per-bit repetition with majority decoding. The cost
// is the Θ(min{n, Δ²}) color classes — exactly the overhead factor the
// paper's superimposed-code approach removes.
//
// The distance-2 coloring itself is computed centrally here, standing in
// for the baselines' expensive distributed setup phase (Δ⁶ rounds in [7],
// O(Δ⁴ log n) in [4]); EstimatedSetupRounds reports that cost for the
// comparison tables. This substitution favors the baseline, making the
// paper's measured advantage conservative.
package baseline

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config parameterizes the TDMA baseline.
type Config struct {
	// MsgBits is the simulated Broadcast CONGEST bandwidth.
	MsgBits int
	// Rho is the per-bit repetition count (odd); 0 selects a default
	// calibrated to Epsilon.
	Rho int
	// Epsilon is the channel noise rate of the default symmetric
	// channel; leave it 0 when Noise is set.
	Epsilon float64
	// Noise is the canonical channel-model spec (internal/noise.Parse);
	// empty selects the symmetric{Epsilon} channel. A non-empty spec
	// owns the channel, and the default ρ calibrates against the
	// model's worst marginal flip rate.
	Noise string
	// ChannelSeed and AlgSeed mirror core.RunnerConfig.
	ChannelSeed uint64
	AlgSeed     uint64
	// NoisyOwn forwards the own-reception noise convention.
	NoisyOwn bool
	// Workers and Shards mirror core.RunnerConfig: the per-node encode,
	// radio, and decode phases run on a deterministic sharded pool, so
	// results are bit-identical for every setting (0 or 1 = serial,
	// engine.AutoWorkers = GOMAXPROCS).
	Workers int
	Shards  int
	// Metrics, when non-nil, receives baseline telemetry — encode, radio
	// and decode phase timers, round counters, lane occupancy and
	// retirement, and per-model noise-flip accounting. Observation-only
	// per the determinism contract.
	Metrics *obs.Registry
}

// DefaultRho returns a repetition count calibrated to eps, mirroring the
// core package's repetition table so comparisons are apples-to-apples.
func DefaultRho(eps float64) int {
	switch {
	case eps == 0:
		return 1
	case eps < 0.07:
		return 15
	case eps < 0.12:
		return 21
	case eps < 0.2:
		return 31
	case eps < 0.26:
		return 61
	default:
		return 101
	}
}

// schedule is the TDMA schedule a runner executes: the validated
// configuration (ρ defaulted), the distance-2 coloring that gives each
// color class its own slot, the slot arithmetic, the node environment,
// ground-truth scoring, and the TDMA telemetry handles.
type schedule struct {
	g         *graph.Graph
	cfg       Config
	colors    []int
	numColors int
	m         tdmaMetrics
}

// tdmaMetrics are the resolved TDMA telemetry handles; the zero value
// is the disabled state.
type tdmaMetrics struct {
	simRounds   *obs.Counter // simulated Broadcast CONGEST rounds, per lane
	emptyRounds *obs.Counter // per-lane zero-sender rounds (radio window skipped)
	encodeT     *obs.Timer   // phase: slot-pattern encoding
	radioT      *obs.Timer   // phase: the TDMA window, summed over shards
	decodeT     *obs.Timer   // phase: majority decode + deliver + score, summed over shards
}

// newSchedule validates cfg and colors G². It returns the channel model
// the runner transmits over: the parsed cfg.Noise, or the symmetric{ε}
// channel when cfg.Noise is empty.
func newSchedule(g *graph.Graph, cfg Config) (schedule, noise.Model, error) {
	if cfg.MsgBits <= 0 {
		return schedule{}, nil, fmt.Errorf("baseline: MsgBits = %d", cfg.MsgBits)
	}
	var model noise.Model = noise.Symmetric{Eps: cfg.Epsilon}
	calibEps := cfg.Epsilon
	if cfg.Noise != "" {
		if cfg.Epsilon != 0 {
			return schedule{}, nil, fmt.Errorf("baseline: both ε = %v and channel %s given; the model owns the channel, leave ε 0", cfg.Epsilon, cfg.Noise)
		}
		var err error
		if model, err = noise.Parse(cfg.Noise); err != nil {
			return schedule{}, nil, fmt.Errorf("baseline: %w", err)
		}
		// Hostile models calibrate against their worst-case per-window
		// rate; stochastic ones against the worst marginal flip rate.
		calibEps = noise.CalibrationRate(model)
		if calibEps >= 0.5 {
			return schedule{}, nil, fmt.Errorf("baseline: channel %s: calibration rate %v outside [0, 0.5)", cfg.Noise, calibEps)
		}
	} else if cfg.Epsilon < 0 || cfg.Epsilon >= 0.5 {
		return schedule{}, nil, fmt.Errorf("baseline: ε = %v outside [0, 0.5)", cfg.Epsilon)
	}
	if cfg.Rho == 0 {
		cfg.Rho = DefaultRho(calibEps)
	}
	if cfg.Rho < 1 || cfg.Rho%2 == 0 {
		return schedule{}, nil, fmt.Errorf("baseline: repetition ρ = %d must be odd and positive", cfg.Rho)
	}
	colors, err := g.DistanceTwoColoring()
	if err != nil {
		return schedule{}, nil, fmt.Errorf("baseline: distance-2 coloring: %w", err)
	}
	s := schedule{g: g, cfg: cfg, colors: colors, numColors: graph.NumColors(colors)}
	if reg := cfg.Metrics; reg != nil {
		s.m = tdmaMetrics{
			simRounds:   reg.Counter("tdma.rounds.sim"),
			emptyRounds: reg.Counter("tdma.rounds.empty"),
			encodeT:     reg.Timer("tdma.phase.encode_nanos"),
			radioT:      reg.Timer("tdma.phase.radio_nanos"),
			decodeT:     reg.Timer("tdma.phase.decode_nanos"),
		}
	}
	return s, model, nil
}

// NumColors returns the schedule length (color classes of G²).
func (s *schedule) NumColors() int { return s.numColors }

// Rho returns the effective per-bit repetition count (after defaulting),
// so result records can report the baseline's full parameterization.
func (s *schedule) Rho() int { return s.cfg.Rho }

// RoundsPerSimRound returns the beep rounds per simulated round:
// one slot of (1+MsgBits)·ρ rounds per color class (the leading bit is the
// presence beacon distinguishing transmission from silence).
func (s *schedule) RoundsPerSimRound() int { return s.numColors * s.slotLen() }

// slotLen returns the beep rounds per color slot.
func (s *schedule) slotLen() int { return (1 + s.cfg.MsgBits) * s.cfg.Rho }

// env mirrors the native engine's environment, without the node's
// algorithm stream (Run derives each lane's from the lane's AlgSeed).
func (s *schedule) env(v int) congest.Env {
	return congest.Env{
		ID:        v,
		N:         s.g.N(),
		Degree:    s.g.Degree(v),
		MaxDegree: s.g.MaxDegree(),
		MsgBits:   s.cfg.MsgBits,
	}
}

// scoreScratch is one shard's reusable ground-truth buffer for score.
type scoreScratch struct {
	truth     []congest.Message
	truthPool congest.MessagePool
}

// score compares v's decoded inbox against what a native engine would
// deliver from the round's collected broadcasts msgs, counting one
// membership error when the sender count differs and one message error
// when the sorted message multisets differ.
func (s *schedule) score(sc *scoreScratch, d *core.ScoreDelta, v int, msgs []congest.Message, inbox []congest.Message) {
	truth := sc.truth[:0]
	msgBytes := (s.cfg.MsgBits + 7) / 8
	presence := 0
	for _, u := range s.g.Row(v) {
		if msgs[u] != nil {
			presence++
			truth = append(truth, sc.truthPool.PadInto(len(truth), msgBytes, msgs[u]))
		}
	}
	if presence != len(inbox) {
		d.Membership++
	}
	congest.SortMessages(truth)
	equal := len(truth) == len(inbox)
	if equal {
		for i := range truth {
			if !wire.Equal(truth[i], inbox[i], s.cfg.MsgBits) {
				equal = false
				break
			}
		}
	}
	if !equal {
		d.Message++
	}
	sc.truth = truth
}

// Runner is the single-replicate form of SlicedRunner: one lane over
// cfg's ChannelSeed and AlgSeed.
type Runner struct{ *SlicedRunner }

// NewRunner builds a baseline runner over g.
func NewRunner(g *graph.Graph, cfg Config) (*Runner, error) {
	r, err := NewSlicedRunner(g, cfg, []LaneConfig{{ChannelSeed: cfg.ChannelSeed, AlgSeed: cfg.AlgSeed}})
	if err != nil {
		return nil, err
	}
	return &Runner{r}, nil
}

// Run simulates the algorithms for at most maxSimRounds Broadcast CONGEST
// rounds (SlicedRunner.Run over one lane). The result type is shared
// with core for comparability.
func (r *Runner) Run(algs []congest.BroadcastAlgorithm, maxSimRounds int) (*core.Result, error) {
	res, err := r.SlicedRunner.Run([][]congest.BroadcastAlgorithm{algs}, maxSimRounds)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// EstimatedSetupRounds reports the setup cost of the [4] baseline,
// O(Δ⁴ log n) beep rounds (we charge constant 1), which our centralized
// coloring stands in for.
func EstimatedSetupRounds(n, maxDeg int) int {
	logn := wire.BitsFor(n)
	return maxDeg * maxDeg * maxDeg * maxDeg * logn
}
