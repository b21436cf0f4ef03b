package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSeriesRawRoundTrip(t *testing.T) {
	db := New(Options{})
	s := db.Series("loop-a", "ips")
	for e := uint64(0); e < 100; e++ {
		s.Append(e, float64(e)*1.5)
	}
	pts, res := s.Query(nil, 0, 99, ResRaw)
	if res != ResRaw {
		t.Fatalf("res = %v, want raw", res)
	}
	if len(pts) != 100 {
		t.Fatalf("got %d points, want 100", len(pts))
	}
	for i, p := range pts {
		if p.Epoch != uint64(i) || p.Mean != float64(i)*1.5 || p.Count != 1 {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

func TestRollupAggregates(t *testing.T) {
	db := New(Options{})
	s := db.Series("loop-a", "ips")
	// Three full 16-epoch windows of v = epoch.
	for e := uint64(0); e < 48; e++ {
		s.Append(e, float64(e))
	}
	s.Sync()
	pts, res := s.Query(nil, 0, 47, ResMid)
	if res != ResMid {
		t.Fatalf("res = %v, want 16x", res)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d mid points, want 3: %+v", len(pts), pts)
	}
	for i, p := range pts {
		base := float64(i * 16)
		if p.Epoch != uint64(i*16) || p.Count != 16 {
			t.Fatalf("window %d: %+v", i, p)
		}
		if p.Min != base || p.Max != base+15 || p.Mean != base+7.5 {
			t.Fatalf("window %d stats: %+v", i, p)
		}
	}
}

func TestRollupCascadeToCoarse(t *testing.T) {
	db := New(Options{})
	s := db.Series("loop-a", "ips")
	for e := uint64(0); e < 512; e++ {
		s.Append(e, 1.0)
	}
	s.Sync()
	pts, res := s.Query(nil, 0, 511, ResCoarse)
	if res != ResCoarse {
		t.Fatalf("res = %v, want 256x", res)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d coarse points, want 2: %+v", len(pts), pts)
	}
	for i, p := range pts {
		if p.Epoch != uint64(i*256) || p.Count != 256 || p.Mean != 1.0 || p.Min != 1.0 || p.Max != 1.0 {
			t.Fatalf("coarse window %d: %+v", i, p)
		}
	}
}

func TestRollupExcludesNonFinite(t *testing.T) {
	db := New(Options{})
	s := db.Series("loop-a", "ips")
	// Window 0: finite values with a NaN and an Inf mixed in.
	s.Append(0, 2)
	s.Append(1, math.NaN())
	s.Append(2, 4)
	s.Append(3, math.Inf(1))
	// Window 1: only non-finite samples.
	s.Append(16, math.NaN())
	s.Append(17, math.Inf(-1))
	// Open window 2 to force both earlier windows to flush.
	s.Append(32, 1)
	s.Sync()

	pts, _ := s.Query(nil, 0, 31, ResMid)
	if len(pts) != 2 {
		t.Fatalf("got %d mid points, want 2: %+v", len(pts), pts)
	}
	if pts[0].Count != 2 || pts[0].Min != 2 || pts[0].Max != 4 || pts[0].Mean != 3 {
		t.Fatalf("window 0: %+v", pts[0])
	}
	if pts[1].Count != 0 || !math.IsNaN(pts[1].Mean) {
		t.Fatalf("all-non-finite window: %+v", pts[1])
	}

	// Raw resolution still shows the sentinels bit-exactly.
	raw, _ := s.Query(nil, 1, 1, ResRaw)
	if len(raw) != 1 || !math.IsNaN(raw[0].Mean) {
		t.Fatalf("raw NaN sample: %+v", raw)
	}
}

func TestRingEvictionKeepsRecent(t *testing.T) {
	// Tiny blocks: force lots of seals and evictions at the raw level.
	db := New(Options{BlockBytes: 64, RawBlocks: 2, MidBlocks: 2, CoarseBlocks: 2})
	s := db.Series("loop-a", "ips")
	const n = 100000
	for e := uint64(0); e < n; e++ {
		// Incompressible-ish values to fill blocks fast.
		s.Append(e, math.Float64frombits(0x3ff0000000000000|e*0x9e3779b97f4a7c15))
	}
	oldest, ok := s.OldestEpoch(ResRaw)
	if !ok {
		t.Fatal("raw level empty after 100k appends")
	}
	if oldest == 0 {
		t.Fatal("raw ring never evicted")
	}
	// Whatever remains must be a contiguous, correctly-valued suffix.
	pts, _ := s.Query(nil, oldest, n-1, ResRaw)
	if len(pts) == 0 {
		t.Fatal("no raw points in retained range")
	}
	want := oldest
	for _, p := range pts {
		if p.Epoch != want {
			t.Fatalf("gap: epoch %d, want %d", p.Epoch, want)
		}
		wantV := math.Float64frombits(0x3ff0000000000000 | p.Epoch*0x9e3779b97f4a7c15)
		if math.Float64bits(p.Mean) != math.Float64bits(wantV) {
			t.Fatalf("epoch %d: %v, want %v", p.Epoch, p.Mean, wantV)
		}
		want++
	}
	if want != n {
		t.Fatalf("retained range ends at %d, want %d", want-1, n-1)
	}
	// Coarse retention must reach further back than raw.
	coarseOldest, ok := s.OldestEpoch(ResCoarse)
	if !ok || coarseOldest >= oldest {
		t.Fatalf("coarse retention (%d, %v) does not exceed raw (%d)", coarseOldest, ok, oldest)
	}
}

func TestResAutoFallsBack(t *testing.T) {
	db := New(Options{BlockBytes: 64, RawBlocks: 2, MidBlocks: 4, CoarseBlocks: 4})
	s := db.Series("loop-a", "ips")
	const n = 50000
	for e := uint64(0); e < n; e++ {
		s.Append(e, math.Float64frombits(e*0x9e3779b97f4a7c15))
	}
	s.Sync()
	rawOldest, _ := s.OldestEpoch(ResRaw)
	if rawOldest == 0 {
		t.Skip("raw ring did not wrap; widen n")
	}
	// A query from before raw retention must pick a coarser level.
	_, res := s.Query(nil, 0, n-1, ResAuto)
	if res == ResRaw {
		t.Fatalf("auto picked raw for from=0 with raw retention starting at %d", rawOldest)
	}
	// A recent query gets raw.
	_, res = s.Query(nil, n-10, n-1, ResAuto)
	if res != ResRaw {
		t.Fatalf("auto picked %v for a recent window, want raw", res)
	}
}

func TestQueryFleet(t *testing.T) {
	db := New(Options{})
	for i, loop := range []string{"a", "b", "c", "d"} {
		s := db.Series(loop, "ips")
		for e := uint64(0); e < 32; e++ {
			s.Append(e, float64(i+1)) // loop a=1, b=2, c=3, d=4
		}
		s.Sync()
	}
	pts, res := db.QueryFleet("ips", 0, 31, ResRaw, []float64{0.5})
	if res != ResRaw {
		t.Fatalf("res = %v", res)
	}
	if len(pts) != 32 {
		t.Fatalf("got %d fleet points, want 32", len(pts))
	}
	for _, p := range pts {
		if p.Loops != 4 || p.Min != 1 || p.Max != 4 || p.Mean != 2.5 {
			t.Fatalf("fleet point %+v", p)
		}
		if len(p.Quantiles) != 1 || p.Quantiles[0] != 2.5 {
			t.Fatalf("median %v, want 2.5", p.Quantiles)
		}
	}
	// Unknown signal: empty but typed result.
	none, _ := db.QueryFleet("nope", 0, 31, ResAuto, nil)
	if len(none) != 0 {
		t.Fatalf("unknown signal returned %d points", len(none))
	}
}

func TestQuantileSorted(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.95, 3.85},
	}
	for _, c := range cases {
		if got := quantileSorted(vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
	if got := quantileSorted([]float64{7}, 0.99); got != 7 {
		t.Fatalf("single-sample quantile = %v", got)
	}
}

// TestIngestAllocFree is the zero-alloc gate for the steady-state
// ingest path: after warmup (series created, rings preallocated),
// appends — including ones that seal blocks and evict ring slots —
// must not allocate.
func TestIngestAllocFree(t *testing.T) {
	db := New(Options{BlockBytes: 256, RawBlocks: 4, MidBlocks: 4, CoarseBlocks: 4})
	s := db.Series("loop-a", "ips")
	// Warmup: wrap every ring at least once so eviction recycling is in
	// steady state.
	e := uint64(0)
	for ; e < 200000; e++ {
		s.Append(e, math.Float64frombits(e*0x9e3779b97f4a7c15))
	}
	const n = 50000
	start := e
	avg := testing.AllocsPerRun(1, func() {
		for i := uint64(0); i < n; i++ {
			s.Append(start+i, math.Float64frombits((start+i)*0x9e3779b97f4a7c15))
		}
		start += n
	})
	if avg != 0 {
		t.Fatalf("steady-state ingest allocated (%.1f allocs per %d appends)", avg, n)
	}
}

// queryFleetRef is the map-of-slices fleet query QueryFleet replaced,
// kept verbatim as the differential reference: Keys() walk, per-loop
// ResAuto, epoch→slice map buckets, sort.Float64s per bucket.
func (db *DB) queryFleetRef(signal string, from, to uint64, res Resolution, qs []float64) ([]FleetPoint, Resolution) {
	keys := db.Keys()
	used := resolveRes(res, ResRaw, true)
	buckets := make(map[uint64][]float64)
	var epochs []uint64
	var scratch []Point
	first := true
	for _, k := range keys {
		if k.Signal != signal {
			continue
		}
		s := db.Lookup(k.Loop, k.Signal)
		if s == nil {
			continue
		}
		scratch = scratch[:0]
		var lv Resolution
		scratch, lv = s.Query(scratch, from, to, res)
		if first {
			used, first = lv, false
		}
		for _, p := range scratch {
			if p.Count == 0 || !isFinite(p.Mean) {
				continue
			}
			if _, ok := buckets[p.Epoch]; !ok {
				epochs = append(epochs, p.Epoch)
			}
			buckets[p.Epoch] = append(buckets[p.Epoch], p.Mean)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	out := make([]FleetPoint, 0, len(epochs))
	for _, e := range epochs {
		vals := buckets[e]
		sort.Float64s(vals)
		fp := FleetPoint{Epoch: e, Loops: len(vals), Min: vals[0], Max: vals[len(vals)-1]}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		fp.Mean = sum / float64(len(vals))
		fp.Quantiles = make([]float64, len(qs))
		for i, q := range qs {
			fp.Quantiles[i] = quantileSorted(vals, q)
		}
		out = append(out, fp)
	}
	return out, used
}

// sameFleet reports the first difference between two fleet query
// results, comparing every float by its bits ("" when identical).
func sameFleet(got, want []FleetPoint) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d points, want %d", len(got), len(want))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range got {
		g, w := got[i], want[i]
		if g.Epoch != w.Epoch || g.Loops != w.Loops || !same(g.Min, w.Min) || !same(g.Max, w.Max) ||
			!same(g.Mean, w.Mean) || len(g.Quantiles) != len(w.Quantiles) {
			return fmt.Sprintf("point %d = %+v, want %+v", i, g, w)
		}
		for j := range g.Quantiles {
			if !same(g.Quantiles[j], w.Quantiles[j]) {
				return fmt.Sprintf("point %d quantile %d = %v, want %v", i, j, g.Quantiles[j], w.Quantiles[j])
			}
		}
	}
	return ""
}

// randomFleetDB builds a store whose "sig" series stress the fleet
// query: loops registered in shuffled order, regular, sparse and
// irregular epoch grids, ±0, NaN and ±Inf samples, all-NaN stretches
// that roll up into Count=0 windows, synced and unsynced rollups, and
// small blocks so rings wrap at different epochs per loop. An "other"
// signal shares the loops. It returns the last epoch written.
func randomFleetDB(rng *rand.Rand, maxLoops, maxEpochs int) (*DB, uint64) {
	db := New(Options{
		BlockBytes:   128 << rng.Intn(3),
		RawBlocks:    2 + rng.Intn(3),
		MidBlocks:    2 + rng.Intn(3),
		CoarseBlocks: 2 + rng.Intn(3),
	})
	nLoops := 1 + rng.Intn(maxLoops)
	zeros := rng.Intn(3) == 0 // most stores keep -0 out, so the radix path runs
	// Half the stores keep every loop near one positive level, as real
	// telemetry does, so bucket values share their leading bytes.
	spread := 1.0
	if rng.Intn(2) == 0 {
		spread = 0.01
	}
	last := uint64(0)
	for _, li := range rng.Perm(nLoops) {
		loop := fmt.Sprintf("loop-%03d", li)
		s := db.Series(loop, "sig")
		other := db.Series(loop, "other")
		level, noise := 3+spread*rng.NormFloat64(), spread*math.Abs(rng.NormFloat64())*0.1
		if rng.Intn(8) == 0 {
			noise = 0 // a constant loop compresses to a bit per sample
		}
		grid := rng.Intn(3) // 0 regular, 1 sparse, 2 irregular
		e := uint64(rng.Intn(64))
		n := rng.Intn(maxEpochs + 1)
		if zeros {
			// Aligned regular loops fill raw buckets past radixMin, so
			// signed zeros reach the radix path's -0 fallback.
			grid, e, n = 0, 0, maxEpochs
		}
		for i := 0; i < n; i++ {
			v := level + noise*rng.NormFloat64()
			switch r := rng.Intn(64); {
			case r == 0:
				v = math.NaN()
			case r == 1:
				v = math.Inf(1 - 2*rng.Intn(2))
			case r == 2 && zeros:
				v = math.Copysign(0, float64(1-2*rng.Intn(2)))
			case r < 6 && i%512 < 40:
				v = math.NaN() // sometimes a whole 16x window
			}
			s.Append(e, v)
			other.Append(e, -v)
			if e > last {
				last = e
			}
			switch grid {
			case 0:
				e++
			case 1:
				e += 1 + uint64(rng.Intn(40))
			default:
				if rng.Intn(4) == 0 {
					e += uint64(rng.Intn(300))
				} else {
					e++
				}
			}
		}
		if rng.Intn(2) == 0 {
			s.Sync()
		}
	}
	return db, last
}

// autoAgrees reports whether every "sig" loop's own ResAuto pick for
// from is the same level, the case where the per-loop reference and
// the fleet-wide resolution must coincide.
func autoAgrees(db *DB, from uint64) bool {
	var pick Resolution = -2
	for _, e := range db.signalSeries("sig") {
		_, lv := e.s.Query(nil, from, from, ResAuto)
		if pick != -2 && lv != pick {
			return false
		}
		pick = lv
	}
	return true
}

// checkFleetMatchesReference runs QueryFleet and the reference over
// every resolution, a full and a random sub-range, and an unknown
// signal, failing on the first bit that differs.
func checkFleetMatchesReference(t *testing.T, rng *rand.Rand, db *DB, last uint64) {
	t.Helper()
	ranges := [][2]uint64{{0, math.MaxUint64}}
	if last > 0 {
		a, b := uint64(rng.Int63n(int64(last)+1)), uint64(rng.Int63n(int64(last)+1))
		ranges = append(ranges, [2]uint64{min(a, b), max(a, b)})
	}
	qsets := [][]float64{nil, {0.5, 0.9, 0.99}, {0, 0.25, 1, rng.Float64()}}
	for _, r := range ranges {
		for _, res := range []Resolution{ResRaw, ResMid, ResCoarse, ResAuto} {
			qs := qsets[rng.Intn(len(qsets))]
			for _, sig := range []string{"sig", "nope"} {
				got, gotRes := db.QueryFleet(sig, r[0], r[1], res, qs)
				if res == ResAuto && sig == "sig" && !autoAgrees(db, r[0]) {
					// Per-loop picks differ; the fleet reads every loop at
					// its one reported level instead.
					want, _ := db.queryFleetRef(sig, r[0], r[1], gotRes, qs)
					if d := sameFleet(got, want); d != "" {
						t.Fatalf("%s [%d,%d] auto→%v: %s", sig, r[0], r[1], gotRes, d)
					}
					continue
				}
				want, wantRes := db.queryFleetRef(sig, r[0], r[1], res, qs)
				if gotRes != wantRes {
					t.Fatalf("%s [%d,%d] %v: level %v, want %v", sig, r[0], r[1], res, gotRes, wantRes)
				}
				if d := sameFleet(got, want); d != "" {
					t.Fatalf("%s [%d,%d] %v: %s", sig, r[0], r[1], res, d)
				}
			}
		}
	}
}

// TestQueryFleetMatchesReference holds the indexed, cursor-bucketed,
// radix-sorted fleet query bit-identical to the reference on
// randomized stores.
func TestQueryFleetMatchesReference(t *testing.T) {
	seeds := int64(32)
	if raceEnabled {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		loops, epochs := 150, 2000
		if seed%3 == 0 {
			// Wide, short stores: buckets past radixMin.
			loops, epochs = 4*radixMin, 300
		}
		db, last := randomFleetDB(rng, loops, epochs)
		checkFleetMatchesReference(t, rng, db, last)
	}
}

// FuzzQueryFleetMatchesReference widens the differential test to
// arbitrary store shapes.
func FuzzQueryFleetMatchesReference(f *testing.F) {
	f.Add(int64(2016), uint8(100), uint16(2000))
	f.Add(int64(7), uint8(3), uint16(40))
	f.Add(int64(-1), uint8(70), uint16(600))
	f.Add(int64(3), uint8(105), uint16(0)) // loops registered, none written
	f.Fuzz(func(t *testing.T, seed int64, loops uint8, epochs uint16) {
		rng := rand.New(rand.NewSource(seed))
		db, last := randomFleetDB(rng, int(loops)+1, int(epochs%4096))
		checkFleetMatchesReference(t, rng, db, last)
	})
}

// TestQueryFleetAutoOneLevel pins res=auto resolving once per fleet:
// with loops whose 16x rings wrap at different epochs, a from that one
// loop still covers at 16x and another only at 256x must read every
// loop at 256x — never a mix of levels — and report that level.
func TestQueryFleetAutoOneLevel(t *testing.T) {
	db := New(Options{BlockBytes: 64, RawBlocks: 2, MidBlocks: 2, CoarseBlocks: 8})
	// The steady loop's raw samples cycle through 16 values, wrapping its
	// raw ring fast, while every 16x window is identical and compresses
	// to a few bits; the noisy loop's 16x ring wraps within epochs.
	steady := db.Series("a-steady", "sig")
	noisy := db.Series("b-noisy", "sig")
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	for e := uint64(0); e < n; e++ {
		steady.Append(e, float64(e%16))
		noisy.Append(e, 1+rng.Float64())
	}
	steady.Sync()
	noisy.Sync()
	rawOldest, _ := steady.OldestEpoch(ResRaw)
	midOldest, _ := noisy.OldestEpoch(ResMid)
	from := min(rawOldest, midOldest) - 1
	if _, lv := steady.Query(nil, from, from, ResAuto); lv != ResMid {
		t.Fatalf("setup: steady loop picks %v at from=%d, want 16x", lv, from)
	}
	if _, lv := noisy.Query(nil, from, from, ResAuto); lv != ResCoarse {
		t.Fatalf("setup: noisy loop picks %v at from=%d, want 256x", lv, from)
	}

	got, res := db.QueryFleet("sig", from, n-1, ResAuto, []float64{0.5})
	if res != ResCoarse {
		t.Fatalf("auto resolved to %v, want the coarsest per-loop pick 256x", res)
	}
	want, _ := db.QueryFleet("sig", from, n-1, ResCoarse, []float64{0.5})
	if d := sameFleet(got, want); d != "" {
		t.Fatalf("auto differs from an explicit 256x query: %s", d)
	}
	for _, p := range got {
		if p.Epoch%256 != 0 || p.Loops != 2 {
			t.Fatalf("mixed-level bucket %+v", p)
		}
	}
}

// TestSortFiniteMatchesFloat64s holds the bucket sort to sort.Float64s
// bit for bit across sizes on both sides of radixMin, with repeated
// values, subnormals, extremes and signed zeros.
func TestSortFiniteMatchesFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := &fleetWorkspace{}
	pool := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(3*radixMin)
		vals := make([]float64, n)
		for i := range vals {
			if trial%2 == 0 {
				// Values sharing sign and exponent: leading bytes agree.
				vals[i] = 2 + rng.Float64()
				continue
			}
			switch rng.Intn(4) {
			case 0:
				vals[i] = pool[rng.Intn(len(pool))]
			case 1:
				vals[i] = math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal or zero
			default:
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
		}
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		ws.sortFinite(vals)
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d n=%d: [%d] = %v, want %v", trial, n, i, vals[i], want[i])
			}
		}
	}
}

// TestQueryFleetAllocsFlat pins the pooled workspace: once warm, a
// fleet query allocates only its result, however many loops it reads.
func TestQueryFleetAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	allocs := func(loops int) float64 {
		db := New(Options{})
		for i := 0; i < loops; i++ {
			s := db.Series(fmt.Sprintf("loop-%04d", i), "sig")
			for e := uint64(0); e < 512; e++ {
				s.Append(e, float64(i)+float64(e%7)*0.01)
			}
			s.Sync()
		}
		qs := []float64{0.5, 0.9, 0.99}
		return testing.AllocsPerRun(20, func() {
			db.QueryFleet("sig", 0, math.MaxUint64, ResAuto, qs)
		})
	}
	small, large := allocs(8), allocs(512)
	if large > small || large > 2 {
		t.Fatalf("fleet query allocs grow with loops: %.1f at 8 loops, %.1f at 512", small, large)
	}
}
