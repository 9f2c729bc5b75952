package baseline

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/beep"
	"repro/internal/bitstring"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/wire"
)

// LaneConfig is one replicate's private randomness in a sliced run: the
// two seeds that distinguish replicates of the same scenario.
type LaneConfig struct {
	ChannelSeed uint64
	AlgSeed     uint64
}

// SlicedRunner simulates Broadcast CONGEST rounds with the
// color-scheduled baseline for up to 64 replicates at once: lane k of
// every word belongs to replicate k. All replicates share the graph, the
// coloring, and every Config field except the seeds; each lane runs its
// own algorithm instances against its own channel and algorithm streams.
// A single replicate is a one-lane run (Runner).
//
// The data layout is lane-transposed. A node's slot pattern is
// []uint64 of slotLen() words — word j holds all lanes' beep decisions
// for slot j of the node's own color slot (patterns are zero outside
// it, so the OR over the inclusive neighborhood touches (deg+1)·slotLen
// words). A node's reception window is RoundsPerSimRound() words, built,
// noised and decoded in one per-shard buffer, so no window outlives its
// node's decode; TDMA majorities become vertical counters over ρ words
// (bitstring.LaneCountAtLeast), resolving all lanes of one beacon or
// payload bit together.
//
// Every observable of a lane is a function of the lane's seeds alone (the
// conformance suite pins this per noise model × lane count). The
// ingredients: per-(lane, node) noise samplers over the lane's own
// absolute round counter (beep.SlicedChannel), advanced only on the
// lane's sending rounds; per-lane sender counts, so a lane whose round
// has no senders skips the radio entirely — no noise consumed, no beep
// rounds; and per-lane done/retire tracking replicating engine.Pool.Loop
// round accounting.
type SlicedRunner struct {
	schedule
	lanes   []LaneConfig
	pool    *engine.Pool
	channel *beep.SlicedChannel
	// quiet records that the channel model can never flip a bit
	// (noise.Model.Noiseless). On a quiet channel decode is exact —
	// every majority resolves to the transmitted pattern — so both
	// score counters are provably zero and the scoring pass is skipped.
	quiet bool

	patterns [][]uint64          // [v][slotLen()], own-color-slot transposed beeps
	sendMask []uint64            // [v] lanes in which v transmits this round
	doneMask []uint64            // [v] lanes whose node v was done after its Broadcast
	msgs     [][]congest.Message // [lane][v]
	scratch  []*slicedScratch
	sm       slicedMetrics
}

// slicedMetrics are the sliced runner's telemetry beyond the shared TDMA
// set; zero value = disabled. Occupancy and retirement are the sliced
// path's distinctive signals: how full the 64-lane words actually run,
// and how unevenly replicates finish.
type slicedMetrics struct {
	lanes     *obs.Counter   // lanes started (one per replicate per Run)
	retired   *obs.Counter   // lanes retired before the round budget
	windows   *obs.Counter   // transposed radio windows executed
	occupancy *obs.Histogram // active lanes per executed round
}

// slicedScratch is one pool shard's reusable per-round state.
type slicedScratch struct {
	scoreScratch
	inbox   [][]congest.Message   // per lane
	msgPool []congest.MessagePool // per lane
	win     []uint64              // [RoundsPerSimRound()] the current node's transposed receptions
	protect []uint64              // zero except while one node's noise is applied (own receptions noise-free only)
	bm      []uint64              // [MsgBits] per-bit lane masks (encodePhase scatter)
	scores  []core.ScoreDelta     // per lane, current round
	sends   []int64               // per lane, current round
	ones    []int64               // per lane, payload bits set this round
	radio   time.Duration         // listenPhase time spent building windows (traced runs)
	decode  time.Duration         // listenPhase time spent decoding and delivering (traced runs)
	err     error
	errNode int
}

// NewSlicedRunner builds a sliced baseline runner over g with one lane
// per entry of lanes (at most 64). cfg's ChannelSeed and AlgSeed are
// ignored — seeds are per-lane.
func NewSlicedRunner(g *graph.Graph, cfg Config, lanes []LaneConfig) (*SlicedRunner, error) {
	if len(lanes) == 0 || len(lanes) > 64 {
		return nil, fmt.Errorf("baseline: %d lanes outside [1, 64]", len(lanes))
	}
	sched, model, err := newSchedule(g, cfg)
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, len(lanes))
	for k, lc := range lanes {
		seeds[k] = lc.ChannelSeed
	}
	// Topology-aware models bind here exactly as beep.NewNetwork binds for
	// the other beep engines.
	if tb, ok := model.(noise.TopologyBinder); ok {
		deg := make([]int, g.N())
		for v := range deg {
			deg[v] = g.Degree(v)
		}
		model = tb.BindTopology(deg, g.MaxDegree())
	}
	channel, err := beep.NewSlicedChannel(model, seeds, g.N())
	if err != nil {
		return nil, err
	}
	r := &SlicedRunner{
		schedule: sched,
		lanes:    append([]LaneConfig(nil), lanes...),
		pool:     engine.NewPool(cfg.Workers, cfg.Shards),
		channel:  channel,
		quiet:    model.Noiseless(),
	}
	n := g.N()
	total := r.RoundsPerSimRound()
	r.patterns = make([][]uint64, n)
	r.sendMask = make([]uint64, n)
	r.doneMask = make([]uint64, n)
	slot := r.slotLen()
	slab := make([]uint64, n*slot)
	for v := range r.patterns {
		r.patterns[v] = slab[v*slot : (v+1)*slot : (v+1)*slot]
	}
	r.msgs = make([][]congest.Message, len(lanes))
	for k := range r.msgs {
		r.msgs[k] = make([]congest.Message, n)
	}
	r.scratch = make([]*slicedScratch, r.pool.NumShards(n))
	for i := range r.scratch {
		inbox := make([][]congest.Message, len(lanes))
		for k := range inbox {
			// A node hears at most one sender per non-own color; sizing
			// the inbox (and, via Buf's reuse, the message pool) up
			// front keeps the decode loop free of growth reallocations.
			inbox[k] = make([]congest.Message, 0, r.numColors)
		}
		r.scratch[i] = &slicedScratch{
			inbox:   inbox,
			msgPool: make([]congest.MessagePool, len(lanes)),
			win:     make([]uint64, total),
			bm:      make([]uint64, cfg.MsgBits),
			scores:  make([]core.ScoreDelta, len(lanes)),
			sends:   make([]int64, len(lanes)),
			ones:    make([]int64, len(lanes)),
		}
		if !cfg.NoisyOwn {
			r.scratch[i].protect = make([]uint64, total)
		}
	}
	if reg := cfg.Metrics; reg != nil {
		r.sm = slicedMetrics{
			lanes:     reg.Counter("tdma.sliced.lanes"),
			retired:   reg.Counter("tdma.sliced.retired_early"),
			windows:   reg.Counter("tdma.sliced.windows"),
			occupancy: reg.Histogram("tdma.sliced.occupancy"),
		}
		r.pool.Instrument(&engine.PoolMetrics{
			Do:    reg.Counter("pool.do"),
			Spans: reg.Counter("pool.spans"),
			Wait:  reg.Timer("pool.do_wait_nanos"),
		})
		// The accounting hook: wrap every lane's samplers so applied
		// flips land in the per-model counter, byte-identically (see
		// beep.SlicedChannel.CountFlips).
		channel.CountFlips(reg.Counter("noise.flips." + model.Name()))
		if model.Name() == noise.NameAdversary {
			// Budget accounting: a second wrap counts the same flips into
			// the spent counter (each adversarial flip costs one budget
			// unit, per lane).
			channel.CountFlips(reg.Counter("noise.adversary.spent"))
		}
	}
	return r, nil
}

// Run simulates every lane for at most maxSimRounds Broadcast CONGEST
// rounds: algs[k] is lane k's per-node algorithm set. It returns one
// result per lane, each bit-identical to a one-lane run over the lane's
// seeds; MembershipErrors counts presence-detection mistakes (phantom or
// missed transmissions). Lanes retire independently — a lane whose
// algorithms all finish stops participating while the others continue.
// Per-node phases run on a deterministic sharded pool
// (Config.Workers/Shards); results are bit-identical for every setting.
func (r *SlicedRunner) Run(algs [][]congest.BroadcastAlgorithm, maxSimRounds int) ([]*core.Result, error) {
	n := r.g.N()
	if len(algs) != len(r.lanes) {
		return nil, fmt.Errorf("baseline: %d algorithm sets for %d lanes", len(algs), len(r.lanes))
	}
	for k, la := range algs {
		if len(la) != n {
			return nil, fmt.Errorf("baseline: lane %d: %d algorithms for %d nodes", k, len(la), n)
		}
		streams := congest.NodeStreams(r.lanes[k].AlgSeed, n)
		for v, a := range la {
			env := r.env(v)
			env.Rng = &streams[v]
			a.Init(env)
		}
	}
	results := make([]*core.Result, len(r.lanes))
	for k := range results {
		results[k] = &core.Result{}
	}

	active := laneMask(len(r.lanes)) // lanes still inside their round loop
	r.sm.lanes.Add(int64(len(r.lanes)))
	senders := make([]int64, len(r.lanes))
	var (
		curRound   int
		curActive  uint64 // lanes collecting this round
		curSenders uint64 // lanes with ≥1 sender this round
	)
	collectPhase := func(s engine.Span) {
		sc := r.scratch[s.Index]
		for k := range r.lanes {
			sc.sends[k], sc.ones[k] = 0, 0
		}
		sc.err = nil
		for v := s.Lo; v < s.Hi; v++ {
			// The round's done mask is taken after Broadcast, which may
			// finish the node: like the native engine, a node done at
			// delivery time hears nothing. listenPhase reads the mask
			// instead of re-querying every lane (no state changes in
			// between — Receive for v happens after its decode).
			var dm uint64
			for m := curActive; m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				a := algs[k][v]
				r.msgs[k][v] = nil
				if a.Done() {
					dm |= 1 << uint(k)
					continue
				}
				msg := a.Broadcast(curRound)
				if a.Done() {
					dm |= 1 << uint(k)
				}
				if msg == nil {
					continue
				}
				if err := congest.CheckWidth(msg, r.cfg.MsgBits); err != nil {
					sc.err = fmt.Errorf("baseline: node %d round %d: %w", v, curRound, err)
					sc.errNode = v
					return // abandon the span: the error aborts the run
				}
				r.msgs[k][v] = msg
				sc.sends[k]++
				for _, b := range msg {
					sc.ones[k] += int64(bits.OnesCount8(b))
				}
			}
			r.doneMask[v] = dm
		}
	}
	encodePhase := func(s engine.Span) {
		sc := r.scratch[s.Index]
		rho, msgBits := r.cfg.Rho, r.cfg.MsgBits
		for v := s.Lo; v < s.Hi; v++ {
			var send uint64
			for m := curSenders; m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				if r.msgs[k][v] != nil {
					send |= 1 << uint(k)
				}
			}
			r.sendMask[v] = send
			if send == 0 {
				continue
			}
			pat := r.patterns[v]
			for j := 0; j < rho; j++ {
				pat[j] = send // presence beacon
			}
			if msgBits <= 64 {
				// Scatter each sender's payload into per-bit lane masks:
				// one pass over the set bits of each message instead of
				// one wire.Bit extraction per (bit, lane) pair. Short
				// messages read as zero-padded, matching wire.Bit.
				bm := sc.bm
				clear(bm)
				for m := send; m != 0; m &= m - 1 {
					k := bits.TrailingZeros64(m)
					msg := r.msgs[k][v]
					var x uint64
					for i := len(msg) - 1; i >= 0; i-- {
						x = x<<8 | uint64(msg[i])
					}
					lane := uint64(1) << uint(k)
					for ; x != 0; x &= x - 1 {
						bm[bits.TrailingZeros64(x)] |= lane
					}
				}
				for bit := 0; bit < msgBits; bit++ {
					off := (1 + bit) * rho
					bv := bm[bit]
					for j := 0; j < rho; j++ {
						pat[off+j] = bv
					}
				}
				continue
			}
			for bit := 0; bit < msgBits; bit++ {
				var bm uint64
				for m := send; m != 0; m &= m - 1 {
					k := bits.TrailingZeros64(m)
					if wire.Bit(r.msgs[k][v], bit) {
						bm |= 1 << uint(k)
					}
				}
				off := (1 + bit) * rho
				for j := 0; j < rho; j++ {
					pat[off+j] = bm
				}
			}
		}
	}
	total := r.RoundsPerSimRound()
	timed := r.m.decodeT != nil
	// listenPhase is the radio and the decode fused per node: v's window
	// is built, noised, decoded, scored and delivered in the shard's one
	// buffer. A traced run splits the pass's time into its radio and
	// decode shares with one clock read at each switch; the radio share
	// also covers the channel's Advance.
	listenPhase := func(s engine.Span) {
		sc := r.scratch[s.Index]
		clear(sc.scores)
		sc.radio, sc.decode = 0, 0
		var t time.Time
		if timed {
			t = time.Now()
		}
		msgBytes := (r.cfg.MsgBits + 7) / 8
		for v := s.Lo; v < s.Hi; v++ {
			if !r.quiet {
				r.listen(sc, v, curSenders)
				if timed {
					t = lap(t, &sc.radio)
				}
			}
			need := curSenders &^ r.doneMask[v]
			if need == 0 {
				continue
			}
			if r.quiet {
				r.deliverQuiet(sc, v, need, msgBytes)
			} else {
				r.decodeNode(sc, v, need)
			}
			for m := need; m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				inbox := sc.inbox[k]
				congest.SortMessages(inbox)
				if !r.quiet {
					r.score(&sc.scoreScratch, &sc.scores[k], v, r.msgs[k], inbox)
				}
				algs[k][v].Receive(curRound, inbox)
				sc.inbox[k] = inbox[:0]
			}
			if timed {
				t = lap(t, &sc.decode)
			}
		}
	}
	// Each lane's retirement test, built once: steady-state rounds
	// create no closures.
	doneAt := make([]func(int) bool, len(r.lanes))
	for k := range doneAt {
		la := algs[k]
		doneAt[k] = func(v int) bool { return la[v].Done() }
	}

	for round := 0; round < maxSimRounds && active != 0; round++ {
		// Retire lanes whose algorithms all finished — the per-lane image
		// of engine.Pool.Loop's pre-round AllDone check.
		for m := active; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			if r.pool.AllDone(n, doneAt[k]) {
				results[k].SimRounds = round
				results[k].AllDone = true
				active &^= 1 << uint(k)
				r.sm.retired.Inc()
			}
		}
		if active == 0 {
			break
		}
		curRound, curActive = round, active
		occ := int64(bits.OnesCount64(active))
		r.m.simRounds.Add(occ)
		r.sm.occupancy.Observe(occ)
		r.pool.Do(n, collectPhase)
		var firstErr error
		errNode := n
		for k := range senders {
			senders[k] = 0
		}
		for _, sc := range r.scratch {
			if sc.err != nil && sc.errNode < errNode {
				firstErr, errNode = sc.err, sc.errNode
			}
			for k := range senders {
				senders[k] += sc.sends[k]
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
		curSenders = 0
		for k := range senders {
			if senders[k] > 0 {
				curSenders |= 1 << uint(k)
			}
		}
		r.m.emptyRounds.Add(int64(bits.OnesCount64(active &^ curSenders)))
		// Zero-sender lanes short-circuit the radio: every live algorithm
		// hears silence and the lane's channel clock stands still.
		for m := active &^ curSenders; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			for _, a := range algs[k] {
				if !a.Done() {
					a.Receive(round, nil)
				}
			}
		}
		if curSenders == 0 {
			continue
		}
		sp := r.m.encodeT.Start()
		r.pool.Do(n, encodePhase)
		sp.Stop()
		for m := curSenders; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			var ones int64
			for _, sc := range r.scratch {
				ones += sc.ones[k]
			}
			results[k].Beeps += int64(r.cfg.Rho) * (senders[k] + ones)
			results[k].BeepRounds += total
		}
		r.pool.Do(n, listenPhase)
		var radio, decode time.Duration
		var t time.Time
		if timed {
			t = time.Now()
		}
		r.channel.Advance(curSenders, total)
		if timed {
			lap(t, &radio)
		}
		r.sm.windows.Inc()
		for _, sc := range r.scratch {
			radio += sc.radio
			decode += sc.decode
			for k := range sc.scores {
				results[k].MembershipErrors += sc.scores[k].Membership
				results[k].MessageErrors += sc.scores[k].Message
			}
		}
		r.m.radioT.Observe(radio)
		r.m.decodeT.Observe(decode)
	}
	budgetRounds := maxSimRounds
	if budgetRounds < 0 {
		budgetRounds = 0 // Pool.Loop never counts negative budgets
	}
	for m := active; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		results[k].SimRounds = budgetRounds
		results[k].AllDone = r.pool.AllDone(n, doneAt[k])
	}
	for k := range results {
		results[k].Outputs = make([]any, n)
		for v, a := range algs[k] {
			results[k].Outputs[v] = a.Output()
		}
	}
	return results, nil
}

// listen builds node v's reception window in sc.win for the lanes in
// senders: the OR of its inclusive neighborhood's slot patterns, then
// each sending lane's channel noise.
func (r *SlicedRunner) listen(sc *slicedScratch, v int, senders uint64) {
	slot := r.slotLen()
	win := sc.win
	clear(win)
	if r.sendMask[v] != 0 {
		copy(win[r.colors[v]*slot:], r.patterns[v])
	}
	for _, u := range r.g.Row(v) {
		// The distance-2 coloring gives every node of v's inclusive
		// neighborhood its own color, so the neighborhood OR is one copy
		// per sender into its own slot.
		if r.sendMask[u] != 0 {
			copy(win[r.colors[u]*slot:], r.patterns[u])
		}
	}
	var protect []uint64
	if !r.cfg.NoisyOwn && r.sendMask[v] != 0 {
		base := r.colors[v] * slot
		copy(sc.protect[base:], r.patterns[v])
		protect = sc.protect
	}
	r.channel.ApplyLaneNoise(v, win, len(win), senders, protect)
	if protect != nil {
		base := r.colors[v] * slot
		clear(sc.protect[base : base+slot])
	}
}

// lap adds the time since t to *acc and returns the current time.
func lap(t time.Time, acc *time.Duration) time.Time {
	now := time.Now()
	*acc += now.Sub(t)
	return now
}

// deliverQuiet fills sc.inbox for a noiseless channel. With no bit
// flips every majority column resolves to the transmitted word, so each
// heard message is provably the sender's collected broadcast,
// zero-padded to the bandwidth — the beep windows need not be built.
// The golden TDMA records, stored by a runner that always decoded the
// windows, pin the equivalence rather than assume it.
func (r *SlicedRunner) deliverQuiet(sc *slicedScratch, v int, need uint64, msgBytes int) {
	for _, u := range r.g.Row(v) {
		hear := r.sendMask[u] & need
		for m := hear; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			sc.inbox[k] = append(sc.inbox[k],
				sc.msgPool[k].PadInto(len(sc.inbox[k]), msgBytes, r.msgs[k][u]))
		}
	}
}

// decodeNode fills sc.inbox[k] for every lane in need with node v's
// messages decoded from sc.win, in ascending color order.
func (r *SlicedRunner) decodeNode(sc *slicedScratch, v int, need uint64) {
	rho, slot := r.cfg.Rho, r.slotLen()
	thr := rho/2 + 1 // 2·ones > ρ for odd ρ
	msgBytes := (r.cfg.MsgBits + 7) / 8
	win := sc.win
	if r.cfg.MsgBits <= 64 && (rho == 1 || need&(need-1) == 0) {
		// One lane, or ρ = 1 (the noiseless repetition count): gather
		// each heard lane's payload column into one accumulator and
		// write whole bytes — no per-bit lane masks, no SetBit calls.
		// Identical output to the general path below.
		msgBits := r.cfg.MsgBits
		for c := 0; c < r.numColors; c++ {
			if c == r.colors[v] {
				continue
			}
			base := c * slot
			heardMask := majorityMask(win[base:base+rho], thr, need)
			for m := heardMask; m != 0; m &= m - 1 {
				k := uint(bits.TrailingZeros64(m))
				var acc uint64
				for bit := 0; bit < msgBits; bit++ {
					off := base + (1+bit)*rho
					if laneCount(win[off:off+rho], k) >= thr {
						acc |= 1 << uint(bit)
					}
				}
				msg := sc.msgPool[k].Buf(len(sc.inbox[k]), msgBytes)
				for i := range msg {
					msg[i] = byte(acc >> uint(8*i))
				}
				sc.inbox[k] = append(sc.inbox[k], msg)
			}
		}
		return
	}
	for c := 0; c < r.numColors; c++ {
		if c == r.colors[v] {
			continue // our own slot (we cannot listen while beeping)
		}
		base := c * slot
		heardMask := majorityMask(win[base:base+rho], thr, need)
		if heardMask == 0 {
			continue
		}
		for m := heardMask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			msg := sc.msgPool[k].Buf(len(sc.inbox[k]), msgBytes)
			for i := range msg {
				msg[i] = 0
			}
			sc.inbox[k] = append(sc.inbox[k], msg)
		}
		for bit := 0; bit < r.cfg.MsgBits; bit++ {
			off := base + (1+bit)*rho
			bm := majorityMask(win[off:off+rho], thr, heardMask)
			for m := bm; m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				inbox := sc.inbox[k]
				wire.SetBit(inbox[len(inbox)-1], bit, true)
			}
		}
	}
}

// majorityMask returns the lanes of need whose vertical count over win
// reaches thr. With several lanes and ρ < 128 it resolves all 64 lanes
// at once through the vertical-counter compare; one lane, or larger
// repetition, counts per-lane columns instead.
func majorityMask(win []uint64, thr int, need uint64) uint64 {
	if thr <= 0 {
		return need // LaneCountAtLeast saturates: every lane qualifies
	}
	if thr == 1 {
		// Any one suffices: the vertical OR column. ρ = 1 (the noiseless
		// repetition count) always lands here with a single-word window.
		var or uint64
		for _, w := range win {
			or |= w
		}
		return or & need
	}
	if thr == len(win) {
		and := ^uint64(0)
		for _, w := range win {
			and &= w
		}
		return and & need
	}
	if len(win) < 128 && need&(need-1) != 0 {
		return bitstring.LaneCountAtLeast(win, thr) & need
	}
	var out uint64
	for m := need; m != 0; m &= m - 1 {
		k := uint(bits.TrailingZeros64(m))
		if laneCount(win, k) >= thr {
			out |= 1 << k
		}
	}
	return out
}

// laneCount returns lane k's count of ones over win.
func laneCount(win []uint64, k uint) int {
	cnt := 0
	for _, w := range win {
		cnt += int(w >> k & 1)
	}
	return cnt
}

// laneMask returns the mask of the low n lanes.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
