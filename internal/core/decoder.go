package core

import (
	"fmt"
	"math"

	"repro/internal/bitstring"
	"repro/internal/codes"
	"repro/internal/rng"
	"repro/internal/wire"
)

// decoder implements the node-local decoding of §4. Everything it uses is
// information an honest node possesses: the public codes, the parameters,
// and the bits the node itself heard.
//
// The hot path is table-driven and word-parallel: the beep code's PRG
// hashing is paid once at construction (cached position table, bit-major
// position table and codeword masks), the Lemma 9 membership test is a
// popcount sweep (mask ∧ ¬x̃), and the solo positions of a whole decoded
// member set come from one transcript-space collision map. None of this
// changes any decoded bit — TestPropertyOptimizedMatchesNaive pins the
// output to a retained naive reference implementation.
type decoder struct {
	p    Params
	code *codes.BlockedBeepCode
	dist *codes.RepetitionCode

	// Stage-A filter: probe a prefix of blocks and discard codewords that
	// already look absent, leaving the exact §4 threshold test to the few
	// survivors. Purely an optimization — a codeword is accepted iff it
	// passes the full MembershipThreshold test.
	stageAProbes int
	stageAThresh int
	// The stage-A probes are the codeword's 1s in the first stageAProbes
	// blocks, i.e. its mask bits within the first stageABits positions —
	// so when that prefix is word-dense enough, the probe count runs as a
	// word-parallel prefix sweep instead of stageAProbes scalar probes.
	// Both compute the identical count; stageAWordSweep picks the cheaper.
	stageABits      int
	stageAWordSweep bool

	theta    int // MembershipThreshold, cached
	msgBytes int // ⌈MsgBits/8⌉

	// bitMajor is flat M×W: codeword t's transcript positions in
	// message-bit order (RepetitionCode.BitMajorInto), so the phase-2
	// gather and encode read each bit's R repetitions sequentially.
	bitMajor []int32
}

func newDecoder(p Params) (*decoder, error) {
	if p.W() < 4 {
		return nil, fmt.Errorf("core: W = R·MsgBits = %d too small (need ≥ 4)", p.W())
	}
	code, err := codes.SharedBlockedBeepCode(p.W(), p.BlockSize(), p.M, rng.Mix(p.Seed, 0xc0de))
	if err != nil {
		return nil, err
	}
	dist, err := codes.NewRepetitionCode(p.MsgBits, p.R, rng.Mix(p.Seed, 0xd157))
	if err != nil {
		return nil, err
	}
	probes := p.W()
	if probes > 32 {
		probes = 32
	}
	// Reject in stage A only at a miss fraction well above the final
	// threshold, so members essentially never die in the filter.
	frac := float64(p.MembershipThreshold())/float64(p.W()) + 0.30
	if frac > 0.95 {
		frac = 0.95
	}
	stageABits := probes * p.BlockSize()
	w := p.W()
	bitMajor := make([]int32, p.M*w)
	for cw := 0; cw < p.M; cw++ {
		dist.BitMajorInto(code.PositionRow(cw), bitMajor[cw*w:(cw+1)*w])
	}
	return &decoder{
		p:            p,
		code:         code,
		dist:         dist,
		stageAProbes: probes,
		stageAThresh: int(math.Ceil(frac * float64(probes))),
		stageABits:   stageABits,
		// The prefix sweep touches stageABits/64 words; the scalar path
		// touches stageAProbes random positions. Prefer the sweep until
		// blocks get so wide that the prefix outweighs the probes.
		stageAWordSweep: stageABits/64 <= 4*probes,
		theta:           p.MembershipThreshold(),
		msgBytes:        (p.MsgBits + 7) / 8,
		bitMajor:        bitMajor,
	}, nil
}

// Codes bundles the prebuilt, read-only decode tables of a
// parameterization — the beep-code position and mask tables, the
// distance-code permutation and the bit-major position table built from
// both, i.e. everything newDecoder hashes out of the PRG. A Codes value
// is a pure function of its Params (public shared knowledge in the
// paper's model), safe to share across any number of concurrent
// runners, and is the unit the sweep layer's artifact cache stores so a
// batch builds each parameterization's tables once.
type Codes struct {
	p   Params
	dec *decoder
}

// BuildCodes constructs the decode tables for p (validated only for
// internal consistency; NewBroadcastRunner still validates p against
// the graph).
func BuildCodes(p Params) (*Codes, error) {
	dec, err := newDecoder(p)
	if err != nil {
		return nil, err
	}
	return &Codes{p: p, dec: dec}, nil
}

// Params returns the parameterization the tables were built for.
func (c *Codes) Params() Params { return c.p }

// decodeScratch holds a decoder's per-worker mutable state, so that
// steady-state decoding allocates nothing. Each concurrent decode needs
// its own scratch (the runner keeps one per execution-pool shard); the
// decoder itself stays read-only and shareable.
type decodeScratch struct {
	members []int
	// seen and dup are transcript-space maps over the decoded members'
	// codewords: seen is their superimposition, dup the positions two or
	// more of them occupy (collisions).
	seen, dup *bitstring.BitString
}

func (d *decoder) newScratch() *decodeScratch {
	b := d.p.PhaseLength()
	return &decodeScratch{seen: bitstring.New(b), dup: bitstring.New(b)}
}

// members returns R̃: every codeword cw whose positions are consistent
// with presence in the heard superimposition x — fewer than θ of its W
// positions read 0 (the Lemma 9 test with θ = (2ε+1)/4·W). The result is
// appended to out[:0] (callers pass a reused slice; nil allocates).
func (d *decoder) members(x *bitstring.BitString, out []int) []int {
	out = out[:0]
	for cw := 0; cw < d.p.M; cw++ {
		mask := d.code.Mask(cw)
		if d.stageAWordSweep {
			if mask.AndNotCountPrefixLimit(x, d.stageABits, d.stageAThresh) >= d.stageAThresh {
				continue
			}
		} else {
			probes := d.code.PositionRow(cw)[:d.stageAProbes]
			if x.CountZerosAtLimit(probes, d.stageAThresh) >= d.stageAThresh {
				continue
			}
		}
		if mask.AndNotCountLimit(x, d.theta) < d.theta {
			out = append(out, cw)
		}
	}
	return out
}

// collisions fills sc.dup with the transcript positions that two or
// more decoded members' codewords occupy (the listener's own included).
// Position j of member t is solo — the §4 analysis guarantees the
// listener hears only t's transmission there plus channel noise —
// exactly when dup bit PositionRow(t)[j] is clear. One word-parallel
// pass over the members' cached masks builds the map for the whole set;
// it is valid until the next collisions call on the same scratch.
func (d *decoder) collisions(members []int, sc *decodeScratch) {
	seen, dup := sc.seen.Words(), sc.dup.Words()
	clear(seen)
	clear(dup)
	for _, cw := range members {
		m := d.code.Mask(cw).Words()[:len(seen)]
		for k, w := range m {
			dup[k] |= seen[k] & w
			seen[k] |= w
		}
	}
}

// bitMajorRow returns codeword t's transcript positions in message-bit
// order: bit b's repetitions are row[b*R : (b+1)*R].
func (d *decoder) bitMajorRow(t int) []int32 {
	w := d.p.W()
	return d.bitMajor[t*w : (t+1)*w : (t+1)*w]
}

// decodeMessage recovers the message carried by codeword t from the
// phase-2 observation y: it reads the paper's ỹ_{v,w} (the bits of y at
// t's positions) and takes per-bit majorities over the solo ones — those
// clear in the collision map dup — writing into out (which must hold
// ⌈MsgBits/8⌉ bytes). The gather, the solo test and the majorities are
// fused (DecodeBitMajorInto), so no intermediate observation string or
// solo mask is materialized.
func (d *decoder) decodeMessage(t int, y, dup *bitstring.BitString, out []byte) []byte {
	return d.dist.DecodeBitMajorInto(y, dup, d.bitMajorRow(t), out)
}

// encodePhase1 returns C(cw) as a beep pattern — the cached codeword
// mask, shared and read-only.
func (d *decoder) encodePhase1(cw int) *bitstring.BitString {
	return d.code.Mask(cw)
}

// encodePhase2Into writes CD(cw, msg) (Notation 7) into out: D(msg)
// scattered into C(cw)'s one-positions, read through the bit-major table
// so no intermediate codeword is materialized. out must have the code's
// full length.
func (d *decoder) encodePhase2Into(cw int, msg []byte, out *bitstring.BitString) {
	out.Reset()
	row, reps := d.bitMajorRow(cw), d.p.R
	for bit := 0; bit < d.p.MsgBits; bit++ {
		if wire.Bit(msg, bit) {
			for _, pos := range row[bit*reps : (bit+1)*reps] {
				out.Set(int(pos))
			}
		}
	}
}

// encodePhase2 is encodePhase2Into with a freshly allocated pattern.
func (d *decoder) encodePhase2(cw int, msg []byte) *bitstring.BitString {
	out := bitstring.New(d.code.Length())
	d.encodePhase2Into(cw, msg, out)
	return out
}
