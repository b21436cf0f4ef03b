// Package tsdb is an embedded, zero-dependency time-series store for
// fleet telemetry history.
//
// Every other observability surface in this repository is
// instantaneous: /metrics and /slo report now, /events streams live,
// and the flight recorder keeps a short exhaustive ring for one loop.
// The behavior the paper's controller is judged on — guardband
// consumption, drift onset, fallback storms, SLO burn — unfolds over
// thousands of epochs, so tuning gains and auditing cap apportionment
// needs retrospective, queryable per-loop history. This package stores
// it in constant memory:
//
//   - Per-(loop, signal) series hold Gorilla-compressed blocks:
//     delta-of-delta epoch encoding plus XOR float compression
//     (block.go). A steady series costs a couple of bits per sample.
//
//   - Each series keeps three resolutions — raw, 16x, and 256x — as
//     fixed-size rings of sealed blocks. Rollup samples carry
//     min/max/sum/count, so a million-epoch run stays queryable at
//     coarse resolution long after the raw ring has wrapped.
//
//   - All block buffers are preallocated when a series is created and
//     recycled on eviction, so the steady-state append path performs
//     zero heap allocations (TestIngestAllocFree) — ingestion runs on
//     the obs.Bus pump goroutine, never on the control hot path.
//
//   - The DB indexes series twice: by (loop, signal) key for per-loop
//     reads, and per signal as a loop-sorted list for fleet reads.
//     Registration appends to the signal's list; the first fleet query
//     after it re-sorts the list once, so QueryFleet walks one signal's
//     loops in order without listing, sorting or looking up keys.
//
// Queries (Query, QueryFleet) snapshot under the per-series mutex and
// decode outside the ingest path. A fleet query decodes each loop's
// blocks a 64-bit word at a time, chains the per-loop means into epoch
// buckets in one pooled slab, found through a cursor over the bucket
// epochs, and radix-sorts each bucket — bit-identical to a map of
// slices sorted with sort.Float64s (TestQueryFleetMatchesReference).
// The /history HTTP surface lives in http.go and the baseline-drift
// detector in baseline.go.
package tsdb

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Resolution selects a rollup level for queries.
type Resolution int

const (
	// ResAuto picks the finest level whose retained history still covers
	// the queried `from` epoch; a fleet query takes the coarsest of its
	// loops' picks.
	ResAuto Resolution = iota - 1
	// ResRaw is the raw per-epoch level.
	ResRaw
	// ResMid aggregates 16 epochs per sample.
	ResMid
	// ResCoarse aggregates 256 epochs per sample.
	ResCoarse
)

// levelFactors maps levels to their epoch-per-sample factor.
var levelFactors = [3]uint64{1, 16, 256}

// Factor returns the epochs covered by one sample at this resolution
// (0 for ResAuto).
func (r Resolution) Factor() uint64 {
	if r < ResRaw || r > ResCoarse {
		return 0
	}
	return levelFactors[r]
}

// String names the resolution as the /history API spells it.
func (r Resolution) String() string {
	switch r {
	case ResRaw:
		return "raw"
	case ResMid:
		return "16x"
	case ResCoarse:
		return "256x"
	}
	return "auto"
}

// ParseResolution inverts String; ok is false for unknown spellings.
func ParseResolution(s string) (Resolution, bool) {
	switch s {
	case "", "auto":
		return ResAuto, true
	case "raw", "1x":
		return ResRaw, true
	case "16x", "mid":
		return ResMid, true
	case "256x", "coarse":
		return ResCoarse, true
	}
	return ResAuto, false
}

// Options sizes the store. The zero value selects the defaults.
type Options struct {
	// BlockBytes is the capacity of one block buffer (default 1024).
	// Blocks seal when the next worst-case sample might not fit, so the
	// sample count per block varies with compressibility.
	BlockBytes int
	// RawBlocks, MidBlocks, CoarseBlocks are the sealed-ring sizes per
	// level (defaults 8, 8, 8). Retention per level is whatever the ring
	// holds: with the defaults and a well-behaved signal the raw level
	// keeps tens of thousands of epochs and the 256x level over a
	// million.
	RawBlocks, MidBlocks, CoarseBlocks int
}

func (o Options) withDefaults() Options {
	if o.BlockBytes <= 0 {
		o.BlockBytes = 1024
	}
	// A block must hold at least its first (uncompressed) sample plus
	// one worst-case follow-up.
	if min := int(2 * worstSampleBits(maxCols) / 8); o.BlockBytes < min {
		o.BlockBytes = min
	}
	if o.RawBlocks <= 0 {
		o.RawBlocks = 8
	}
	if o.MidBlocks <= 0 {
		o.MidBlocks = 8
	}
	if o.CoarseBlocks <= 0 {
		o.CoarseBlocks = 8
	}
	return o
}

// Key identifies one series.
type Key struct{ Loop, Signal string }

// DB is the store: a registry of per-(loop, signal) series.
type DB struct {
	opts Options

	mu       sync.RWMutex
	series   map[Key]*Series
	keys     []Key // registration order: nearly sorted, so Keys sorts fast
	bySignal map[string]*signalIndex
}

// signalIndex lists every series of one signal in loop order — the
// order a fleet query walks. Registration appends and marks it dirty;
// the next fleet query re-sorts it once, so registering n loops costs
// O(n log n) rather than n sorted inserts.
type signalIndex struct {
	entries []indexEntry
	dirty   bool
}

type indexEntry struct {
	loop string
	s    *Series
}

// New builds an empty store.
func New(opts Options) *DB {
	return &DB{opts: opts.withDefaults(), series: make(map[Key]*Series),
		bySignal: make(map[string]*signalIndex)}
}

// Series returns the series for (loop, signal), creating it — and
// preallocating its block rings — on first use.
func (db *DB) Series(loop, signal string) *Series {
	k := Key{Loop: loop, Signal: signal}
	db.mu.RLock()
	s := db.series[k]
	db.mu.RUnlock()
	if s != nil {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if s = db.series[k]; s != nil {
		return s
	}
	s = newSeries(db.opts)
	db.series[k] = s
	db.keys = append(db.keys, k)
	idx := db.bySignal[signal]
	if idx == nil {
		idx = &signalIndex{}
		db.bySignal[signal] = idx
	}
	idx.entries = append(idx.entries, indexEntry{loop: loop, s: s})
	idx.dirty = true
	return s
}

// signalSeries returns the loop-sorted index of signal (nil when no
// loop carries it). The slice is shared and read-only: registration
// only appends past its length, and a re-sort builds a fresh slice.
func (db *DB) signalSeries(signal string) []indexEntry {
	db.mu.RLock()
	idx := db.bySignal[signal]
	if idx == nil || !idx.dirty {
		var ents []indexEntry
		if idx != nil {
			ents = idx.entries
		}
		db.mu.RUnlock()
		return ents
	}
	db.mu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if idx.dirty {
		ents := slices.Clone(idx.entries)
		slices.SortFunc(ents, func(a, b indexEntry) int { return strings.Compare(a.loop, b.loop) })
		idx.entries, idx.dirty = ents, false
	}
	return idx.entries
}

// Lookup returns the series for (loop, signal), nil when absent.
func (db *DB) Lookup(loop, signal string) *Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.series[Key{Loop: loop, Signal: signal}]
}

// Keys returns every registered series key, sorted by loop then signal.
func (db *DB) Keys() []Key {
	db.mu.RLock()
	out := append([]Key(nil), db.keys...)
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Loop != out[j].Loop {
			return out[i].Loop < out[j].Loop
		}
		return out[i].Signal < out[j].Signal
	})
	return out
}

// EpochRange reports the epoch span the store still retains at raw
// resolution across every series: the oldest retained raw epoch and
// the newest appended one. ok is false for an empty store.
func (db *DB) EpochRange() (from, to uint64, ok bool) {
	from = math.MaxUint64
	for _, k := range db.Keys() {
		s := db.Lookup(k.Loop, k.Signal)
		if s == nil {
			continue
		}
		if o, okO := s.OldestEpoch(ResRaw); okO && o < from {
			from = o
		}
		if l, okL := s.LastEpoch(); okL && l >= to {
			to = l
			ok = true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return from, to, true
}

// Point is one decoded sample. Raw points carry Min=Max=Mean and
// Count=1; rollup points aggregate Count raw samples from the window
// starting at Epoch (non-finite raw samples are excluded from the
// aggregate — a window holding only those yields Count=0 and NaN
// stats).
type Point struct {
	Epoch          uint64
	Min, Max, Mean float64
	Count          uint64
}

// Query decodes the [from, to] epoch range (inclusive) of (loop,
// signal) at the given resolution, appending to dst and returning the
// extended slice together with the level actually used (meaningful for
// ResAuto). A missing series yields dst unchanged.
func (db *DB) Query(dst []Point, loop, signal string, from, to uint64, res Resolution) ([]Point, Resolution) {
	s := db.Lookup(loop, signal)
	if s == nil {
		return dst, resolveRes(res, 0, true)
	}
	return s.Query(dst, from, to, res)
}

// ---- series ----

// aggState accumulates one open rollup window.
type aggState struct {
	start         uint64
	open          bool
	min, max, sum float64
	count         uint64
}

func (a *aggState) add(v float64) {
	if !isFinite(v) {
		return
	}
	if a.count == 0 {
		a.min, a.max, a.sum = v, v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
		a.sum += v
	}
	a.count++
}

// merge folds a flushed finer-level aggregate in.
func (a *aggState) merge(min, max, sum float64, count uint64) {
	if count == 0 {
		return
	}
	if a.count == 0 {
		a.min, a.max, a.sum = min, max, sum
	} else {
		if min < a.min {
			a.min = min
		}
		if max > a.max {
			a.max = max
		}
		a.sum += sum
	}
	a.count += count
}

func (a *aggState) reset(start uint64) {
	*a = aggState{start: start, open: true, min: math.NaN(), max: math.NaN(), sum: math.NaN()}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sealedBlock is one immutable encoded block.
type sealedBlock struct {
	data       []byte // full-capacity buffer, bits of it used
	count      int
	minT, maxT uint64
}

// level is one resolution tier: an active encoder, a ring of sealed
// blocks, and a free list the ring recycles through.
type level struct {
	cols   int
	factor uint64

	enc      blockEnc
	encMinT  uint64
	sealed   []sealedBlock // ring storage, len == ring capacity
	start, n int           // ring window [start, start+n)
	free     [][]byte
}

func newLevel(cols int, factor uint64, ringCap, blockBytes int) level {
	l := level{cols: cols, factor: factor, sealed: make([]sealedBlock, ringCap)}
	// Preallocate every buffer the level will ever use: 1 active +
	// ringCap sealed slots; recycling keeps the free list non-empty from
	// then on, so steady-state appends never allocate.
	l.free = make([][]byte, 0, ringCap+1)
	for i := 0; i < ringCap; i++ {
		l.free = append(l.free, make([]byte, blockBytes))
	}
	l.enc.reset(make([]byte, blockBytes), cols)
	return l
}

// appendSample encodes one sample, sealing and starting a new block
// when the active one fills.
func (l *level) appendSample(t uint64, vals *[maxCols]float64) {
	if l.enc.count == 0 {
		l.encMinT = t
	}
	if l.enc.appendSample(t, vals) {
		return
	}
	l.seal()
	l.encMinT = t
	if !l.enc.appendSample(t, vals) {
		// Cannot happen: a fresh block always holds one sample.
		panic("tsdb: fresh block rejected a sample")
	}
}

// seal moves the active block into the ring (evicting and recycling
// the oldest when full) and re-arms the encoder from the free list.
func (l *level) seal() {
	if l.enc.count == 0 {
		return
	}
	if l.n == len(l.sealed) {
		// Evict the oldest sealed block, recycling its buffer.
		l.free = append(l.free, l.sealed[l.start].data)
		l.sealed[l.start] = sealedBlock{}
		l.start = (l.start + 1) % len(l.sealed)
		l.n--
	}
	slot := (l.start + l.n) % len(l.sealed)
	l.sealed[slot] = sealedBlock{
		data:  l.enc.bs.data,
		count: l.enc.count,
		minT:  l.encMinT,
		maxT:  l.enc.lastT,
	}
	l.n++
	buf := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	l.enc.reset(buf, l.cols)
}

// oldest returns the earliest retained epoch (ok=false when empty).
func (l *level) oldest() (uint64, bool) {
	if l.n > 0 {
		return l.sealed[l.start].minT, true
	}
	if l.enc.count > 0 {
		return l.encMinT, true
	}
	return 0, false
}

// Series is the history of one (loop, signal) pair.
type Series struct {
	mu     sync.Mutex
	levels [3]level
	agg    [2]aggState // open windows feeding levels 1 and 2
	lastT  uint64
	hasAny bool
}

func newSeries(opts Options) *Series {
	s := &Series{}
	s.levels[0] = newLevel(1, 1, opts.RawBlocks, opts.BlockBytes)
	s.levels[1] = newLevel(4, 16, opts.MidBlocks, opts.BlockBytes)
	s.levels[2] = newLevel(4, 256, opts.CoarseBlocks, opts.BlockBytes)
	return s
}

// Append records one raw sample and folds it into the open rollup
// windows. Epochs must be non-decreasing per series (the obs event
// stream guarantees it); violations are recorded as given but may
// decode slowly. Allocation-free.
func (s *Series) Append(epoch uint64, v float64) {
	s.mu.Lock()
	var vals [maxCols]float64
	vals[0] = v
	s.levels[0].appendSample(epoch, &vals)

	// Fold into the 16x window, cascading into 256x on flush.
	w := epoch &^ (levelFactors[1] - 1)
	if !s.agg[0].open {
		s.agg[0].reset(w)
	} else if s.agg[0].start != w {
		s.flushAgg(0)
		s.agg[0].reset(w)
	}
	s.agg[0].add(v)
	s.lastT = epoch
	s.hasAny = true
	s.mu.Unlock()
}

// flushAgg writes the open window of agg[i] into level i+1 and, for
// the mid level, merges it into the open coarse window.
func (s *Series) flushAgg(i int) {
	a := &s.agg[i]
	if !a.open {
		return
	}
	var vals [maxCols]float64
	vals[0], vals[1], vals[2], vals[3] = a.min, a.max, a.sum, float64(a.count)
	s.levels[i+1].appendSample(a.start, &vals)
	if i == 0 {
		w := a.start &^ (levelFactors[2] - 1)
		if !s.agg[1].open {
			s.agg[1].reset(w)
		} else if s.agg[1].start != w {
			s.flushAgg(1)
			s.agg[1].reset(w)
		}
		s.agg[1].merge(a.min, a.max, a.sum, a.count)
	}
	a.open = false
}

// Sync flushes the open rollup windows into their levels so queries at
// mid/coarse resolution see history up to the last appended epoch.
// Windows normally flush when the next one opens; Sync is for
// end-of-run snapshots (baseline capture, goldens).
func (s *Series) Sync() {
	s.mu.Lock()
	s.flushAgg(0)
	s.flushAgg(1)
	s.mu.Unlock()
}

// OldestEpoch returns the earliest epoch retained at res (ok=false for
// an empty level).
func (s *Series) OldestEpoch(res Resolution) (uint64, bool) {
	if res < ResRaw || res > ResCoarse {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.levels[res].oldest()
}

// LastEpoch returns the most recent appended epoch (ok=false when the
// series is empty).
func (s *Series) LastEpoch() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastT, s.hasAny
}

// autoLevel is ResAuto's pick for one series: the finest level whose
// retention covers from, else the coarsest. ok is false when no level
// retains anything. The caller holds s.mu.
func (s *Series) autoLevel(from uint64) (lv Resolution, ok bool) {
	for cand := ResRaw; cand <= ResCoarse; cand++ {
		oldest, has := s.levels[cand].oldest()
		if has && oldest <= from {
			return cand, true
		}
		ok = ok || has
	}
	return ResCoarse, ok
}

// resolveRes maps ResAuto to a concrete level given the oldest-covered
// check result; concrete resolutions pass through.
func resolveRes(res Resolution, picked Resolution, empty bool) Resolution {
	if res >= ResRaw && res <= ResCoarse {
		return res
	}
	if empty {
		return ResRaw
	}
	return picked
}

// Query appends the [from, to] range (inclusive) at res to dst. With
// ResAuto it picks the finest level whose retention still covers from
// (falling back to the coarsest non-empty level). The returned
// resolution is the level used.
func (s *Series) Query(dst []Point, from, to uint64, res Resolution) ([]Point, Resolution) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lv := res
	if lv < ResRaw || lv > ResCoarse {
		lv, _ = s.autoLevel(from)
	}
	l := &s.levels[lv]
	for i := 0; i < l.n; i++ {
		b := &l.sealed[(l.start+i)%len(l.sealed)]
		if b.maxT < from || b.minT > to {
			continue
		}
		dst = appendPoints(dst, b.data, b.count, l.cols, from, to)
	}
	if l.enc.count > 0 && l.enc.lastT >= from && l.encMinT <= to {
		dst = appendPoints(dst, l.enc.bs.data, l.enc.count, l.cols, from, to)
	}
	return dst, lv
}

// appendPoints decodes one block and appends its samples in [from, to]
// to dst: single-column blocks are raw samples, four-column blocks
// rollup aggregates (min, max, sum, count).
func appendPoints(dst []Point, data []byte, count, cols int, from, to uint64) []Point {
	d := newBlockDec(data, count, cols)
	for d.next() {
		if d.t < from || d.t > to {
			continue
		}
		if cols == 1 {
			v := d.vals[0]
			dst = append(dst, Point{Epoch: d.t, Min: v, Max: v, Mean: v, Count: 1})
			continue
		}
		count := uint64(d.vals[3])
		mean := math.NaN()
		if count > 0 {
			mean = d.vals[2] / float64(count)
		}
		dst = append(dst, Point{Epoch: d.t, Min: d.vals[0], Max: d.vals[1], Mean: mean, Count: count})
	}
	return dst
}

// FleetPoint is one epoch bucket of a cross-loop aggregation: the
// distribution of per-loop means at that bucket.
type FleetPoint struct {
	Epoch     uint64
	Loops     int
	Min, Max  float64
	Mean      float64
	Quantiles []float64 // aligned with the qs passed to QueryFleet
}

// QueryFleet aggregates one signal across every loop carrying it:
// per-loop points in [from, to] at res are bucketed by epoch, and each
// bucket reports the min/max/mean and the requested quantiles of the
// per-loop mean values. Loops are visited in sorted order and buckets
// return sorted, so output is deterministic.
//
// ResAuto resolves once for the whole fleet, to the coarsest of the
// per-loop picks (Series.Query's rule) among loops that retain samples,
// so every loop is read at the one reported level. When none does, it
// reports what Series.Query picks for an empty series, the coarsest
// level, or raw when no loop carries the signal.
func (db *DB) QueryFleet(signal string, from, to uint64, res Resolution, qs []float64) ([]FleetPoint, Resolution) {
	ents := db.signalSeries(signal)
	lv := res
	if lv < ResRaw || lv > ResCoarse {
		lv = ResAuto
		for _, e := range ents {
			e.s.mu.Lock()
			pick, ok := e.s.autoLevel(from)
			e.s.mu.Unlock()
			if ok {
				lv = max(lv, pick)
			}
		}
		if lv == ResAuto { // no loop retains a sample
			lv = ResCoarse
			if len(ents) == 0 {
				lv = ResRaw
			}
		}
	}

	ws := fleetPool.Get().(*fleetWorkspace)
	defer fleetPool.Put(ws)
	ws.bucket(ents, from, to, lv)

	nq := len(qs)
	out := make([]FleetPoint, len(ws.order))
	quants := make([]float64, len(ws.order)*nq)
	for i, id := range ws.order {
		vals := ws.gather(id)
		ws.sortFinite(vals)
		fp := FleetPoint{Epoch: ws.epochs[id], Loops: len(vals), Min: vals[0], Max: vals[len(vals)-1]}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		fp.Mean = sum / float64(len(vals))
		fp.Quantiles = quants[i*nq : (i+1)*nq : (i+1)*nq]
		for j, q := range qs {
			fp.Quantiles[j] = quantileSorted(vals, q)
		}
		out[i] = fp
	}
	return out, lv
}

// fleetPool recycles QueryFleet workspaces, so a query allocates only
// its result however many loops it reads.
var fleetPool = sync.Pool{New: func() any {
	return &fleetWorkspace{at: make(map[uint64]int32)}
}}

// fleetWorkspace is one fleet query's working set. Kept per-loop means
// sit in visit order (loop-major, then epoch) in vals, each bucket's
// chained through next from head to tail: 12 bytes per point, and a
// bucket gathers its values in loop order — the input order on which
// sort.Float64s's placement of tied -0 and +0 depends.
type fleetWorkspace struct {
	pts []Point // one loop's decoded points

	vals []float64
	next []int32 // index in vals of the bucket's next value, -1 at its tail

	epochs     []uint64         // bucket id → epoch, in discovery order
	at         map[uint64]int32 // epoch → bucket id, for cursor misses
	head, tail []int32          // bucket id → first and last index in vals
	order      []int32          // bucket ids in epoch order

	buf       []float64 // one gathered bucket
	keys, tmp []uint64  // radix sort buffers
}

// bucket reads every loop of ents at lv and chains the finite per-loop
// means into epoch buckets. Each loop's points ascend in epoch, and
// loops mostly share one epoch grid, so a cursor over the bucket epochs
// matches nearly every point; the epoch map is consulted only when the
// cursor misses.
func (ws *fleetWorkspace) bucket(ents []indexEntry, from, to uint64, lv Resolution) {
	ws.vals, ws.next, ws.epochs = ws.vals[:0], ws.next[:0], ws.epochs[:0]
	ws.head, ws.tail = ws.head[:0], ws.tail[:0]
	clear(ws.at)
	for _, e := range ents {
		ws.pts, _ = e.s.Query(ws.pts[:0], from, to, lv)
		cur := 0
		for _, p := range ws.pts {
			if p.Count == 0 || !isFinite(p.Mean) {
				continue
			}
			id := int32(cur)
			if cur >= len(ws.epochs) || ws.epochs[cur] != p.Epoch {
				var ok bool
				if id, ok = ws.at[p.Epoch]; !ok {
					id = int32(len(ws.epochs))
					ws.epochs = append(ws.epochs, p.Epoch)
					ws.at[p.Epoch] = id
					ws.head = append(ws.head, -1)
					ws.tail = append(ws.tail, -1)
				}
			}
			cur = int(id) + 1
			i := int32(len(ws.vals))
			ws.vals = append(ws.vals, p.Mean)
			ws.next = append(ws.next, -1)
			if ws.head[id] < 0 {
				ws.head[id] = i
			} else {
				ws.next[ws.tail[id]] = i
			}
			ws.tail[id] = i
		}
	}
	ws.order = ws.order[:0]
	for id := range ws.epochs {
		ws.order = append(ws.order, int32(id))
	}
	slices.SortFunc(ws.order, func(a, b int32) int { return cmp.Compare(ws.epochs[a], ws.epochs[b]) })
}

// gather copies bucket id's values, in visit order, into ws.buf.
func (ws *fleetWorkspace) gather(id int32) []float64 {
	ws.buf = ws.buf[:0]
	for i := ws.head[id]; i >= 0; i = ws.next[i] {
		ws.buf = append(ws.buf, ws.vals[i])
	}
	return ws.buf
}

// radixMin is the bucket size from which sortFinite radix-sorts;
// below it sort.Float64s is as fast or faster (crossover measured on a
// 2-CPU Xeon at about 256 values of a noisy signal).
const radixMin = 256

// negZero is the bit pattern of -0.
const negZero = 1 << 63

// sortFinite sorts finite values ascending into exactly the bits
// sort.Float64s would produce. It LSD-radix-sorts the order-preserving
// uint64 image of each value a byte at a time, skipping every byte
// position on which all values agree. Finite floats that compare equal
// have equal bits except -0 and +0, whose relative order
// sort.Float64s leaves to its input; a bucket holding -0 therefore
// keeps sort.Float64s.
func (ws *fleetWorkspace) sortFinite(vals []float64) {
	n := len(vals)
	if n < radixMin {
		sort.Float64s(vals)
		return
	}
	ws.keys = slices.Grow(ws.keys[:0], n)[:n]
	ws.tmp = slices.Grow(ws.tmp[:0], n)[:n]
	keys, tmp := ws.keys, ws.tmp
	var hist [8][256]uint32
	for i, v := range vals {
		b := math.Float64bits(v)
		if b == negZero {
			sort.Float64s(vals)
			return
		}
		// Negative values flip every bit, positive ones the sign bit, so
		// unsigned order matches float order.
		k := b ^ (uint64(int64(b)>>63) | 1<<63)
		keys[i] = k
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	for d := range hist {
		h := &hist[d]
		shift := uint(8 * d)
		if h[byte(keys[0]>>shift)] == uint32(n) {
			continue
		}
		pos := uint32(0)
		for i, c := range h {
			h[i] = pos
			pos += c
		}
		for _, k := range keys {
			dg := byte(k >> shift)
			tmp[h[dg]] = k
			h[dg]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		vals[i] = math.Float64frombits(k ^ (^uint64(int64(k)>>63) | 1<<63))
	}
}

// quantileSorted interpolates the q-quantile of a sorted sample set.
func quantileSorted(vals []float64, q float64) float64 {
	if len(vals) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo] + (vals[lo+1]-vals[lo])*frac
}
