package codes

import (
	"fmt"

	"repro/internal/bitstring"
	"repro/internal/rng"
	"repro/internal/wire"
)

// DistanceCode encodes fixed-width messages into codewords far apart in
// Hamming distance (Definition 5), decoded from partially-trusted
// observations.
//
// Decode receives the observed bits obs (one per codeword position) and a
// reliability mask solo: position j is "solo" when the §4 analysis
// guarantees it carries only the sender's bit plus channel noise (no other
// neighbor of the listener beeps there). Decoders weight solo positions and
// fall back to the unreliable ones only when necessary.
type DistanceCode interface {
	// MessageBits returns the message width a in bits.
	MessageBits() int
	// Length returns the codeword length in bits.
	Length() int
	// Encode maps a message (little-endian bit packing, at least
	// MessageBits bits significant) to its codeword.
	Encode(msg []byte) *bitstring.BitString
	// Decode estimates the transmitted message from observation obs with
	// reliability mask solo. Both must have Length() bits.
	Decode(obs, solo *bitstring.BitString) []byte
}

// RepetitionCode is the pipeline's practical distance code (substitution
// #4 in DESIGN.md): each message bit is carried by Reps positions assigned
// via a fixed pseudorandom permutation, and decoded by per-bit majority
// over solo positions. Distinct messages differ in at least Reps positions.
type RepetitionCode struct {
	msgBits int
	reps    int
	bitFor  []int32 // position -> message bit index
	// byBit is flat msgBits×reps: bit b's codeword positions, ascending,
	// are byBit[b*reps : (b+1)*reps].
	byBit []int32
	// fallbackNum/fallbackDen: when a bit has no solo positions, declare 1
	// only if ones > (num/den)·count over all its positions. The threshold
	// is above 1/2 because non-solo interference is one-sided (a colliding
	// beep can only turn a 0 into a 1, never the reverse).
	fallbackNum, fallbackDen int
}

// NewRepetitionCode builds a repetition distance code with msgBits message
// bits and reps positions per bit, using seed for the position permutation.
func NewRepetitionCode(msgBits, reps int, seed uint64) (*RepetitionCode, error) {
	if msgBits <= 0 || reps <= 0 {
		return nil, fmt.Errorf("codes: invalid repetition code (msgBits=%d reps=%d)", msgBits, reps)
	}
	length := msgBits * reps
	perm := rng.New(seed).Perm(length)
	c := &RepetitionCode{
		msgBits:     msgBits,
		reps:        reps,
		bitFor:      make([]int32, length),
		byBit:       make([]int32, length),
		fallbackNum: 7,
		fallbackDen: 10,
	}
	// Each bit index p % msgBits of the permutation occurs exactly reps
	// times, so every bit's row fills to exactly reps positions.
	fill := make([]int32, msgBits)
	for pos, p := range perm {
		bit := int32(p % msgBits)
		c.bitFor[pos] = bit
		c.byBit[int(bit)*reps+int(fill[bit])] = int32(pos)
		fill[bit]++
	}
	return c, nil
}

// row returns the codeword positions carrying message bit bit.
func (c *RepetitionCode) row(bit int) []int32 {
	return c.byBit[bit*c.reps : (bit+1)*c.reps]
}

// MessageBits returns the message width.
func (c *RepetitionCode) MessageBits() int { return c.msgBits }

// Length returns msgBits·reps.
func (c *RepetitionCode) Length() int { return c.msgBits * c.reps }

// Reps returns the number of positions per message bit.
func (c *RepetitionCode) Reps() int { return c.reps }

// BitFor returns the message bit index carried by codeword position pos —
// the permutation table callers use to scatter an encoding without
// materializing the intermediate codeword.
func (c *RepetitionCode) BitFor(pos int) int { return int(c.bitFor[pos]) }

// Encode maps msg to its codeword.
func (c *RepetitionCode) Encode(msg []byte) *bitstring.BitString {
	out := bitstring.New(c.Length())
	for pos := range c.bitFor {
		if wire.Bit(msg, int(c.bitFor[pos])) {
			out.Set(pos)
		}
	}
	return out
}

// Decode recovers the message bit-by-bit: majority over solo positions,
// falling back to a one-sided-biased threshold over all positions for bits
// with no solo coverage.
func (c *RepetitionCode) Decode(obs, solo *bitstring.BitString) []byte {
	return c.DecodeInto(obs, solo, make([]byte, (c.msgBits+7)/8))
}

// DecodeInto is Decode writing into a caller-provided buffer, which must
// hold ⌈MessageBits/8⌉ bytes; it is fully overwritten and returned.
func (c *RepetitionCode) DecodeInto(obs, solo *bitstring.BitString, out []byte) []byte {
	out = out[:(c.msgBits+7)/8]
	for i := range out {
		out[i] = 0
	}
	for bit := 0; bit < c.msgBits; bit++ {
		ones, zeros := 0, 0
		for _, pos := range c.row(bit) {
			if !solo.Get(int(pos)) {
				continue
			}
			if obs.Get(int(pos)) {
				ones++
			} else {
				zeros++
			}
		}
		var value bool
		if ones+zeros > 0 {
			value = ones > zeros
		} else {
			// No solo position for this bit: use every position with a
			// threshold biased against collision-induced false 1s.
			total := 0
			for _, pos := range c.row(bit) {
				total++
				if obs.Get(int(pos)) {
					ones++
				}
			}
			value = ones*c.fallbackDen > c.fallbackNum*total
		}
		if value {
			wire.SetBit(out, bit, true)
		}
	}
	return out
}

// BitMajorInto lays a codeword's transcript positions out in message-bit
// order: positions[j] is the transcript index of codeword position j,
// and out[bit*Reps()+r] receives positions[j] for the r-th position j
// carrying bit. The bit-major row lets DecodeBitMajorInto read each
// bit's repetitions sequentially. positions and out must hold Length()
// entries.
func (c *RepetitionCode) BitMajorInto(positions, out []int32) {
	for i, j := range c.byBit {
		out[i] = positions[j]
	}
}

// DecodeBitMajorInto is DecodeInto fused with the ỹ gather and the solo
// test, all in transcript space: bm is a codeword's bit-major transcript
// positions (BitMajorInto), y the transcript, and dup a collision map
// over the transcript — position p is solo iff dup bit p is clear. It is
// byte-identical to gathering obs[j] = y[positions[j]] and running
// DecodeInto with solo[j] = ¬dup[positions[j]]. y and dup must cover
// every index in bm; out must hold ⌈MessageBits/8⌉ bytes.
func (c *RepetitionCode) DecodeBitMajorInto(y, dup *bitstring.BitString, bm []int32, out []byte) []byte {
	out = out[:(c.msgBits+7)/8]
	for i := range out {
		out[i] = 0
	}
	yw, dw := y.Words(), dup.Words()
	yw = yw[:len(dw)]
	for bit := 0; bit < c.msgBits; bit++ {
		row := bm[bit*c.reps : (bit+1)*c.reps]
		// Branch-free tally: y's bits are noise-driven coin flips, so
		// branching on them mispredicts about half the time.
		ones, solo := 0, 0
		for _, p := range row {
			w, sh := p>>6, uint(p)&63
			trusted := ^dw[w] >> sh & 1
			ones += int(yw[w] >> sh & trusted)
			solo += int(trusted)
		}
		var value bool
		if solo > 0 {
			value = 2*ones > solo
		} else {
			// No solo position for this bit: use every position with the
			// one-sided fallback threshold (see DecodeInto).
			for _, p := range row {
				if yw[p>>6]&(1<<(uint(p)&63)) != 0 {
					ones++
				}
			}
			value = ones*c.fallbackDen > c.fallbackNum*len(row)
		}
		if value {
			wire.SetBit(out, bit, true)
		}
	}
	return out
}

// FallbackBits counts the message bits DecodeBitMajorInto resolves via
// the best-effort fallback threshold for bit-major row bm and collision
// map dup — bits whose every position is set in dup. It is a pure
// function of (bm, dup), so telemetry can account fallbacks without
// touching the decode hot path.
func (c *RepetitionCode) FallbackBits(bm []int32, dup *bitstring.BitString) int {
	dw := dup.Words()
	fallbacks := 0
	for bit := 0; bit < c.msgBits; bit++ {
		covered := false
		for _, p := range bm[bit*c.reps : (bit+1)*c.reps] {
			if dw[p>>6]&(1<<(uint(p)&63)) == 0 {
				covered = true
				break
			}
		}
		if !covered {
			fallbacks++
		}
	}
	return fallbacks
}

var _ DistanceCode = (*RepetitionCode)(nil)

// maxRandomCodeBits caps the message space of RandomDistanceCode; its
// decoder and storage are exponential in the message width by design
// (matching the paper's brute-force decoding).
const maxRandomCodeBits = 20

// RandomDistanceCode is Lemma 6's construction: 2^a codewords of length b
// with i.i.d. uniform bits, decoded by minimum Hamming distance restricted
// to solo positions. Message spaces are capped at 2^20.
type RandomDistanceCode struct {
	msgBits   int
	length    int
	codewords []*bitstring.BitString
}

// NewRandomDistanceCode draws a random (msgBits, ·)-distance code of the
// given length from stream r.
func NewRandomDistanceCode(msgBits, length int, r *rng.Stream) (*RandomDistanceCode, error) {
	if msgBits <= 0 || msgBits > maxRandomCodeBits {
		return nil, fmt.Errorf("codes: random distance code msgBits=%d outside (0,%d]", msgBits, maxRandomCodeBits)
	}
	if length <= 0 {
		return nil, fmt.Errorf("codes: random distance code length=%d", length)
	}
	m := 1 << uint(msgBits)
	c := &RandomDistanceCode{msgBits: msgBits, length: length, codewords: make([]*bitstring.BitString, m)}
	for i := range c.codewords {
		s := bitstring.New(length)
		for j := 0; j < length; j++ {
			if r.Bool(0.5) {
				s.Set(j)
			}
		}
		c.codewords[i] = s
	}
	return c, nil
}

// MessageBits returns a.
func (c *RandomDistanceCode) MessageBits() int { return c.msgBits }

// Length returns b.
func (c *RandomDistanceCode) Length() int { return c.length }

// Encode maps msg to its codeword.
func (c *RandomDistanceCode) Encode(msg []byte) *bitstring.BitString {
	return c.codewords[c.index(msg)].Clone()
}

// Decode returns the message whose codeword minimizes Hamming distance to
// obs over solo positions (ties broken toward the smaller message). If no
// position is solo, the distance is taken over all positions.
func (c *RandomDistanceCode) Decode(obs, solo *bitstring.BitString) []byte {
	mask := solo
	if solo.Ones() == 0 {
		mask = solo.Not() // all positions
	}
	best, bestDist := 0, c.length+1
	for i, cw := range c.codewords {
		d := cw.Xor(obs).AndCount(mask)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	out := make([]byte, (c.msgBits+7)/8)
	for bit := 0; bit < c.msgBits; bit++ {
		if best&(1<<uint(bit)) != 0 {
			wire.SetBit(out, bit, true)
		}
	}
	return out
}

// MinDistance computes the exact minimum pairwise Hamming distance of the
// code, the quantity Lemma 6 lower-bounds by δb. It is quadratic in the
// codebook size.
func (c *RandomDistanceCode) MinDistance() int {
	min := c.length + 1
	for i := 0; i < len(c.codewords); i++ {
		for j := i + 1; j < len(c.codewords); j++ {
			if d := c.codewords[i].HammingDistance(c.codewords[j]); d < min {
				min = d
			}
		}
	}
	return min
}

func (c *RandomDistanceCode) index(msg []byte) int {
	idx := 0
	for bit := 0; bit < c.msgBits; bit++ {
		if wire.Bit(msg, bit) {
			idx |= 1 << uint(bit)
		}
	}
	return idx
}

var _ DistanceCode = (*RandomDistanceCode)(nil)
