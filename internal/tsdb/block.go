package tsdb

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The block codec is the Gorilla design (Pelkonen et al., VLDB 2015)
// over epoch counters instead of wall timestamps: epochs compress with
// delta-of-delta bucketing (a steady once-per-epoch series costs one
// bit per sample) and values with XOR float compression operating on
// Float64bits — NaN and Inf telemetry sentinels round-trip bit-exactly
// because the codec never interprets the payload (FuzzBlockRoundTrip
// holds this under arbitrary inputs).
//
// One block carries one timestamp stream plus `cols` interleaved value
// columns per sample: raw series use one column (the value), rollup
// levels use four (min, max, sum, count) so a single decode pass yields
// the full aggregate. Every stream writes into a caller-owned
// fixed-capacity byte buffer; appendSample reports false when the
// buffer cannot be guaranteed to hold one worst-case sample, which is
// the series' signal to seal the block and start the next one — the
// encoder itself never allocates.

// maxCols is the widest sample the codec carries (rollup aggregates).
const maxCols = 4

// worstSampleBits bounds one encoded sample: a full 4+64-bit
// delta-of-delta escape plus, per column, the 2-bit control prefix, the
// 5-bit leading-zero count, the 6-bit width field, and 64 meaningful
// bits.
func worstSampleBits(cols int) uint64 { return 68 + uint64(cols)*77 }

// bstream is a bit-granular cursor over a fixed-capacity byte slice.
// The writer ORs bits in, so buffers must arrive zeroed (reset clears
// recycled ones).
type bstream struct {
	data []byte
	pos  uint64 // bits written (writer) or read (reader)
}

func (b *bstream) writeBit(bit uint64) {
	if bit != 0 {
		b.data[b.pos>>3] |= 1 << (7 - b.pos&7)
	}
	b.pos++
}

// wordBits is the widest field the word-at-a-time paths move in one
// 64-bit load: a field starting at any bit offset within its first byte
// (at most 7) still ends inside the word.
const wordBits = 56

// writeBits writes the low n bits of v, most significant first. With 8
// bytes of buffer left it ORs the field into one big-endian word; the
// block's tail and fields wider than wordBits take writeBitsSlow. Both
// paths lay down the same bits.
func (b *bstream) writeBits(v uint64, n uint) {
	if i := b.pos >> 3; n <= wordBits && i+8 <= uint64(len(b.data)) {
		w := binary.BigEndian.Uint64(b.data[i:])
		w |= (v & (1<<n - 1)) << (64 - n - uint(b.pos&7))
		binary.BigEndian.PutUint64(b.data[i:], w)
		b.pos += uint64(n)
		return
	}
	b.writeBitsSlow(v, n)
}

// writeBitsSlow splits wide fields and fills byte by byte at the tail.
func (b *bstream) writeBitsSlow(v uint64, n uint) {
	if n > wordBits {
		b.writeBits(v>>32, n-32)
		b.writeBits(v&(1<<32-1), 32)
		return
	}
	for n > 0 {
		free := 8 - uint(b.pos&7)
		take := n
		if take > free {
			take = free
		}
		chunk := byte(v>>(n-take)) & byte(1<<take-1)
		b.data[b.pos>>3] |= chunk << (free - take)
		b.pos += uint64(take)
		n -= take
	}
}

func (b *bstream) readBit() uint64 {
	bit := uint64(b.data[b.pos>>3]>>(7-b.pos&7)) & 1
	b.pos++
	return bit
}

// readBits reads n bits, most significant first: one big-endian word
// load with 8 bytes of buffer left, readBitsSlow otherwise.
func (b *bstream) readBits(n uint) uint64 {
	if i := b.pos >> 3; n <= wordBits && i+8 <= uint64(len(b.data)) {
		v := binary.BigEndian.Uint64(b.data[i:]) << (b.pos & 7) >> (64 - n)
		b.pos += uint64(n)
		return v
	}
	return b.readBitsSlow(n)
}

// readBitsSlow splits wide fields and drains byte by byte at the tail.
func (b *bstream) readBitsSlow(n uint) uint64 {
	if n > wordBits {
		hi := b.readBits(n - 32)
		return hi<<32 | b.readBits(32)
	}
	v := uint64(0)
	for n > 0 {
		avail := 8 - uint(b.pos&7)
		take := n
		if take > avail {
			take = avail
		}
		chunk := uint64(b.data[b.pos>>3]>>(avail-take)) & (uint64(1)<<take - 1)
		v = v<<take | chunk
		b.pos += uint64(take)
		n -= take
	}
	return v
}

// colEnc is one value column's XOR chain state.
type colEnc struct {
	lastBits          uint64
	leading, trailing uint8
}

// blockEnc encodes samples into a fixed-capacity buffer.
type blockEnc struct {
	bs    bstream
	cols  int
	count int

	firstT, lastT uint64
	lastDelta     int64

	col [maxCols]colEnc
}

// reset re-arms the encoder over buf (zeroing it — the writer ORs bits
// in) for a new block.
func (e *blockEnc) reset(buf []byte, cols int) {
	for i := range buf {
		buf[i] = 0
	}
	e.bs = bstream{data: buf}
	e.cols = cols
	e.count = 0
	e.firstT, e.lastT, e.lastDelta = 0, 0, 0
	for i := range e.col {
		e.col[i] = colEnc{}
	}
}

// room reports whether one worst-case sample is guaranteed to fit.
func (e *blockEnc) room() bool {
	return e.bs.pos+worstSampleBits(e.cols) <= uint64(len(e.bs.data))*8
}

// appendSample encodes one sample; vals[:e.cols] are the value columns.
// It reports false — leaving the block untouched — when the block is
// full.
func (e *blockEnc) appendSample(t uint64, vals *[maxCols]float64) bool {
	if !e.room() {
		return false
	}
	if e.count == 0 {
		e.firstT = t
		e.bs.writeBits(t, 64)
		for c := 0; c < e.cols; c++ {
			bits := math.Float64bits(vals[c])
			e.bs.writeBits(bits, 64)
			e.col[c].lastBits = bits
			// Sentinel widths force the first XOR to re-emit a window.
			e.col[c].leading, e.col[c].trailing = 0xff, 0xff
		}
		e.lastT = t
		e.count = 1
		return true
	}
	delta := int64(t - e.lastT)
	dod := delta - e.lastDelta
	switch {
	case dod == 0:
		e.bs.writeBit(0)
	case dod >= -63 && dod <= 64:
		e.bs.writeBits(0b10, 2)
		e.bs.writeBits(uint64(dod+63), 7)
	case dod >= -255 && dod <= 256:
		e.bs.writeBits(0b110, 3)
		e.bs.writeBits(uint64(dod+255), 9)
	case dod >= -2047 && dod <= 2048:
		e.bs.writeBits(0b1110, 4)
		e.bs.writeBits(uint64(dod+2047), 12)
	default:
		e.bs.writeBits(0b1111, 4)
		e.bs.writeBits(uint64(dod), 64)
	}
	e.lastT, e.lastDelta = t, delta
	for c := 0; c < e.cols; c++ {
		e.appendXOR(&e.col[c], math.Float64bits(vals[c]))
	}
	e.count++
	return true
}

// appendXOR writes one value into a column's XOR chain.
func (e *blockEnc) appendXOR(col *colEnc, vbits uint64) {
	xor := vbits ^ col.lastBits
	col.lastBits = vbits
	if xor == 0 {
		e.bs.writeBit(0)
		return
	}
	e.bs.writeBit(1)
	leading := uint8(bits.LeadingZeros64(xor))
	trailing := uint8(bits.TrailingZeros64(xor))
	// The leading-zero field is 5 bits, so clamp to 31.
	if leading > 31 {
		leading = 31
	}
	if col.leading != 0xff && leading >= col.leading && trailing >= col.trailing {
		// Fits the previous meaningful window: reuse it.
		e.bs.writeBit(0)
		e.bs.writeBits(xor>>col.trailing, uint(64-col.leading-col.trailing))
		return
	}
	col.leading, col.trailing = leading, trailing
	mbits := 64 - leading - trailing
	e.bs.writeBit(1)
	e.bs.writeBits(uint64(leading), 5)
	// mbits is in [1, 64]; store mbits-1 so 64 fits the 6-bit field.
	e.bs.writeBits(uint64(mbits-1), 6)
	e.bs.writeBits(xor>>trailing, uint(mbits))
}

// blockDec replays a block one sample at a time. The caller guarantees
// (data, count, cols) came from a matching blockEnc; decode state is
// local, so concurrent decodes of the same sealed block are safe.
type blockDec struct {
	bs         bstream
	cols, left int
	started    bool
	delta      int64
	col        [maxCols]colEnc

	t    uint64           // epoch of the current sample
	vals [maxCols]float64 // value columns of the current sample
}

func newBlockDec(data []byte, count, cols int) blockDec {
	return blockDec{bs: bstream{data: data}, cols: cols, left: count}
}

// next decodes the next sample into d.t and d.vals, reporting false
// once the block is exhausted.
func (d *blockDec) next() bool {
	if d.left == 0 {
		return false
	}
	d.left--
	bs := &d.bs
	if !d.started {
		d.started = true
		d.t = bs.readBits(64)
		for c := 0; c < d.cols; c++ {
			d.col[c].lastBits = bs.readBits(64)
			d.col[c].leading, d.col[c].trailing = 0xff, 0xff
			d.vals[c] = math.Float64frombits(d.col[c].lastBits)
		}
		return true
	}
	var dod int64
	switch {
	case bs.readBit() == 0:
		dod = 0
	case bs.readBit() == 0:
		dod = int64(bs.readBits(7)) - 63
	case bs.readBit() == 0:
		dod = int64(bs.readBits(9)) - 255
	case bs.readBit() == 0:
		dod = int64(bs.readBits(12)) - 2047
	default:
		dod = int64(bs.readBits(64))
	}
	d.delta += dod
	d.t += uint64(d.delta)
	for c := 0; c < d.cols; c++ {
		d.vals[c] = math.Float64frombits(readXOR(bs, &d.col[c]))
	}
	return true
}

// readXOR reads one value of a column's XOR chain.
func readXOR(bs *bstream, col *colEnc) uint64 {
	if bs.readBit() == 0 {
		return col.lastBits
	}
	if bs.readBit() == 1 {
		// 5-bit leading-zero count, then 6-bit width minus one.
		hdr := bs.readBits(11)
		col.leading = uint8(hdr >> 6)
		col.trailing = 64 - col.leading - uint8(hdr&63) - 1
	}
	mbits := uint(64 - col.leading - col.trailing)
	xor := bs.readBits(mbits) << col.trailing
	col.lastBits ^= xor
	return col.lastBits
}
