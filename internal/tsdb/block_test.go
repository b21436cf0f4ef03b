package tsdb

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// decodeBlock replays every sample of a block through fn.
func decodeBlock(data []byte, count, cols int, fn func(t uint64, vals *[maxCols]float64)) {
	d := newBlockDec(data, count, cols)
	for d.next() {
		fn(d.t, &d.vals)
	}
}

// roundTrip encodes samples into one block and decodes them back,
// failing on any bit-level mismatch or byte-loop reference difference.
func roundTrip(t *testing.T, ts []uint64, cols int, vals [][maxCols]float64) {
	t.Helper()
	gen := func(i int) (uint64, [maxCols]float64, bool) { return ts[i], vals[i], true }
	if fillBlock(t, 1<<16, cols, len(ts), gen) {
		t.Fatalf("a %d-byte block rejected one of %d samples", 1<<16, len(ts))
	}
}

func TestBlockRoundTripSteady(t *testing.T) {
	// The common case: once-per-epoch cadence, slowly-varying floats.
	n := 500
	ts := make([]uint64, n)
	vals := make([][maxCols]float64, n)
	v := 1.0
	for i := range ts {
		ts[i] = uint64(100 + i)
		v += 0.001 * float64(i%7)
		vals[i][0] = v
	}
	roundTrip(t, ts, 1, vals)
}

func TestBlockRoundTripSentinels(t *testing.T) {
	// NaN/Inf sentinels and bit-pattern extremes must survive exactly.
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8000000000001), // quiet NaN payload
	}
	ts := make([]uint64, len(specials))
	vals := make([][maxCols]float64, len(specials))
	for i, v := range specials {
		ts[i] = uint64(i)
		vals[i][0] = v
	}
	roundTrip(t, ts, 1, vals)
}

func TestBlockRoundTripMultiColumn(t *testing.T) {
	n := 200
	ts := make([]uint64, n)
	vals := make([][maxCols]float64, n)
	for i := range ts {
		ts[i] = uint64(i * 16)
		vals[i] = [maxCols]float64{float64(i), float64(i) * 2, float64(i) * 3.5, 16}
	}
	roundTrip(t, ts, 4, vals)
}

func TestBlockRoundTripDeltaBuckets(t *testing.T) {
	// Exercise every delta-of-delta bucket including the 64-bit escape
	// and negative deltas-of-deltas at the bucket edges.
	deltas := []int64{1, 1, 1, 2, 65, -62, 257, -254, 2049, -2046, 100000, 1}
	ts := make([]uint64, len(deltas)+1)
	ts[0] = 1 << 40
	cur := ts[0]
	for i, d := range deltas {
		cur += uint64(d + 1000) // keep epochs increasing
		_ = i
		ts[i+1] = cur
	}
	vals := make([][maxCols]float64, len(ts))
	for i := range vals {
		vals[i][0] = float64(i)
	}
	roundTrip(t, ts, 1, vals)
}

func TestBlockSealsWhenFull(t *testing.T) {
	var enc blockEnc
	buf := make([]byte, int(2*worstSampleBits(1)/8)+1)
	enc.reset(buf, 1)
	var vals [maxCols]float64
	n := 0
	for i := 0; ; i++ {
		// Adversarial values: every sample flips all mantissa bits, so
		// XOR compression gets no traction.
		vals[0] = math.Float64frombits(0x5555555555555555 ^ uint64(i)<<1)
		if !enc.appendSample(uint64(i), &vals) {
			break
		}
		n++
		if i > 1000 {
			t.Fatal("block never filled")
		}
	}
	if n < 2 {
		t.Fatalf("block held %d samples, want >= 2", n)
	}
	// The rejected sample must not have corrupted the block.
	i := 0
	decodeBlock(enc.bs.data, enc.count, 1, func(gotT uint64, _ *[maxCols]float64) {
		if gotT != uint64(i) {
			t.Fatalf("post-seal decode: epoch %d, want %d", gotT, i)
		}
		i++
	})
	if i != n {
		t.Fatalf("decoded %d, want %d", i, n)
	}
}

// refEnc is a byte-at-a-time Gorilla encoder, a second statement of
// the stream format: every field goes down one bit-run per byte, with
// no word-wide stores. blockEnc must lay down exactly its bytes.
type refEnc struct {
	data      []byte
	pos       uint64
	n         int
	lastT     uint64
	lastDelta int64
	col       [maxCols]colEnc
}

func (r *refEnc) bits(v uint64, n uint) {
	for ; n > 0; n-- {
		if v>>(n-1)&1 != 0 {
			r.data[r.pos>>3] |= 1 << (7 - r.pos&7)
		}
		r.pos++
	}
}

func (r *refEnc) append(t uint64, vals *[maxCols]float64, cols int) {
	if r.n == 0 {
		r.bits(t, 64)
		for c := 0; c < cols; c++ {
			r.col[c] = colEnc{lastBits: math.Float64bits(vals[c]), leading: 0xff, trailing: 0xff}
			r.bits(r.col[c].lastBits, 64)
		}
		r.lastT, r.n = t, 1
		return
	}
	delta := int64(t - r.lastT)
	switch dod := delta - r.lastDelta; {
	case dod == 0:
		r.bits(0, 1)
	case dod >= -63 && dod <= 64:
		r.bits(0b10, 2)
		r.bits(uint64(dod+63), 7)
	case dod >= -255 && dod <= 256:
		r.bits(0b110, 3)
		r.bits(uint64(dod+255), 9)
	case dod >= -2047 && dod <= 2048:
		r.bits(0b1110, 4)
		r.bits(uint64(dod+2047), 12)
	default:
		r.bits(0b1111, 4)
		r.bits(uint64(dod), 64)
	}
	r.lastT, r.lastDelta = t, delta
	for c := 0; c < cols; c++ {
		col := &r.col[c]
		v := math.Float64bits(vals[c])
		xor := v ^ col.lastBits
		col.lastBits = v
		if xor == 0 {
			r.bits(0, 1)
			continue
		}
		lead, trail := uint8(min(bits.LeadingZeros64(xor), 31)), uint8(bits.TrailingZeros64(xor))
		if col.leading != 0xff && lead >= col.leading && trail >= col.trailing {
			r.bits(0b10, 2)
			r.bits(xor>>col.trailing, uint(64-col.leading-col.trailing))
			continue
		}
		col.leading, col.trailing = lead, trail
		r.bits(0b11, 2)
		r.bits(uint64(lead), 5)
		r.bits(uint64(64-lead-trail-1), 6)
		r.bits(xor>>trail, uint(64-lead-trail))
	}
	r.n++
}

// sampleGen yields sample i of a stream; ok=false ends the stream.
type sampleGen func(i int) (t uint64, vals [maxCols]float64, ok bool)

// fillBlock appends gen's samples to a size-byte block at cols columns
// until the block refuses one, gen stops, or limit samples are in, and
// reports whether the block filled. It fails unless the block's bytes
// equal the byte-loop reference encoder's and decode back bit-exactly.
func fillBlock(t *testing.T, size, cols, limit int, gen sampleGen) (full bool) {
	t.Helper()
	var ts []uint64
	var vals [][maxCols]float64
	var enc blockEnc
	enc.reset(make([]byte, size), cols)
	ref := refEnc{data: make([]byte, size)}
	for i := 0; i < limit; i++ {
		at, v, ok := gen(i)
		if !ok {
			break
		}
		if !enc.appendSample(at, &v) {
			full = true
			break
		}
		ref.append(at, &v, cols)
		ts, vals = append(ts, at), append(vals, v)
	}
	if !bytes.Equal(enc.bs.data, ref.data) || enc.bs.pos != ref.pos {
		t.Fatalf("%d B block at %d cols: bytes differ from the byte-loop reference", size, cols)
	}
	i := 0
	decodeBlock(enc.bs.data, enc.count, cols, func(gotT uint64, gotV *[maxCols]float64) {
		if gotT != ts[i] {
			t.Fatalf("%d B/%d cols sample %d: epoch %d, want %d", size, cols, i, gotT, ts[i])
		}
		for c := 0; c < cols; c++ {
			if math.Float64bits(gotV[c]) != math.Float64bits(vals[i][c]) {
				t.Fatalf("%d B/%d cols sample %d col %d: bits %#x, want %#x",
					size, cols, i, c, math.Float64bits(gotV[c]), math.Float64bits(vals[i][c]))
			}
		}
		i++
	})
	if i != len(ts) {
		t.Fatalf("%d B/%d cols: decoded %d samples, want %d", size, cols, i, len(ts))
	}
	return full
}

// tailCases are the small blocks filled to the brim at both widths.
var tailCases = []struct{ size, cols int }{{256, 1}, {256, 4}, {1024, 1}, {1024, 4}}

// TestBlockTailMatchesByteLoop fills small blocks with streams that mix
// steady and incompressible samples until each refuses one, holding
// the bytes to the reference encoder. Wide samples landing in a block's
// last 8 bytes take the byte-wise tails of readBits and writeBits.
func TestBlockTailMatchesByteLoop(t *testing.T) {
	for _, c := range tailCases {
		for seed := int64(0); seed < 64; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cur := uint64(rng.Int63())
			var last [maxCols]float64
			full := fillBlock(t, c.size, c.cols, 1<<14, func(int) (uint64, [maxCols]float64, bool) {
				switch rng.Intn(3) {
				case 0:
					cur++
				case 1:
					cur += uint64(rng.Intn(3000))
				default:
					cur += uint64(rng.Int63n(1 << 40))
				}
				for k := 0; k < c.cols; k++ {
					switch rng.Intn(3) {
					case 0: // repeat
					case 1:
						last[k] += 0.001
					default:
						last[k] = math.Float64frombits(rng.Uint64())
					}
				}
				return cur, last, true
			})
			if !full {
				t.Fatalf("%d B block at %d cols (seed %d) never filled", c.size, c.cols, seed)
			}
		}
	}
}

// FuzzBlockRoundTrip asserts the codec round-trips arbitrary epoch
// gaps and arbitrary value bit patterns Float64bits-identically —
// including NaN payloads and infinities, which the codec must treat as
// opaque bits — and lays down the byte-loop reference's exact bytes.
// Besides a roomy 64 KiB single-column block it fills 256 B and 1 KiB
// blocks at 1 and 4 columns until they refuse a sample.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(0x3ff0000000000000), uint64(0x3ff0000000000001), uint64(0x7ff8000000000000))
	f.Add(uint64(1<<40), uint64(1<<20), uint64(0x7ff0000000000000), uint64(0xfff0000000000000), uint64(0))
	f.Add(uint64(5), uint64(0), uint64(0xffffffffffffffff), uint64(1), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, t0, gapSeed, b0, b1, b2 uint64) {
		stream := func(cols int) sampleGen {
			cur := t0
			seeds := [3]uint64{b0, b1, b2}
			return func(i int) (uint64, [maxCols]float64, bool) {
				at := cur
				// Derive a deterministic, arbitrary-looking gap in
				// [1, 2^20]; stop before the epoch would wrap uint64, so
				// the time chain stays strictly increasing.
				gap := (gapSeed>>(uint(i)%48))%(1<<20) + 1
				if cur+gap < cur {
					return 0, [maxCols]float64{}, false
				}
				cur += gap
				var v [maxCols]float64
				for c := 0; c < cols; c++ {
					k := (i + c) % 3
					s := seeds[k]
					seeds[k] = s*6364136223846793005 + 1442695040888963407
					v[c] = math.Float64frombits(s)
				}
				return at, v, true
			}
		}
		fillBlock(t, 1<<16, 1, 64, stream(1))
		for _, c := range tailCases {
			fillBlock(t, c.size, c.cols, 1<<14, stream(c.cols))
		}
	})
}
