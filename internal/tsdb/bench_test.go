package tsdb

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mimoctl/internal/obs"
)

// BenchmarkTSDBIngest measures the recorder's batch ingest path — the
// work the obs.Bus pump goroutine pays per drained batch — across an
// 8-loop fleet with realistically wobbly signals. Its 0 allocs/op is
// gated by TestRecorderWriteEventsAllocFree and TestIngestAllocFree.
func BenchmarkTSDBIngest(b *testing.B) {
	db := New(Options{})
	rec := NewRecorder(db, nil)
	const (
		nLoops    = 8
		batchSize = 64
	)
	batch := make([]obs.Event, batchSize)
	epoch := uint64(0)
	fill := func() {
		for j := range batch {
			id := uint32(j % nLoops)
			if id == 0 {
				epoch++
			}
			wob := math.Sin(float64(epoch) / 37)
			batch[j] = obs.Event{
				LoopID: id, Epoch: epoch,
				IPS: 2.3 + 0.05*wob, IPSTarget: 2.5,
				PowerW: 1.9 + 0.02*wob, PowerTarget: 2.0,
				InnovNorm: 0.1 + 0.01*wob, Guardband: 0.3,
				ReqFreq: 3, ReqCache: 4, ReqROB: 5,
			}
		}
	}
	// Warm past ring preallocation and the first seal/recycle cycle.
	for i := 0; i < 64; i++ {
		fill()
		if err := rec.WriteEvents(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		if err := rec.WriteEvents(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/event")
}

// fleetStore lazily builds the fleet-query benchmark store: 1024 loops
// × 2048 epochs of every recorded signal with per-loop levels and
// sensor noise, long enough that the noisy raw rings have wrapped and a
// full-range res=auto query reads the 16x level.
var fleetStore = sync.OnceValue(func() *DB {
	const nLoops, nEpochs = 1024, 2048
	rec := NewRecorder(New(Options{}), nil)
	rng := rand.New(rand.NewSource(2016))
	level := make([]float64, nLoops)
	for i := range level {
		level[i] = 2.5 * (0.55 + 0.45*rng.Float64())
	}
	batch := make([]obs.Event, nLoops)
	for e := uint64(1); e <= nEpochs; e++ {
		for i := range batch {
			batch[i] = obs.Event{
				LoopID: uint32(i), Epoch: e,
				IPS: level[i] * (1 + 0.01*rng.NormFloat64()), IPSTarget: 2.5,
				PowerW: 2 * (1 + 0.025*rng.NormFloat64()), PowerTarget: 2.0,
				InnovNorm: math.Abs(0.05 * rng.NormFloat64()), Guardband: 0.1,
				ReqFreq: int16(i % 16), ReqCache: 2, ReqROB: 3,
			}
		}
		if err := rec.WriteEvents(batch); err != nil {
			panic(err)
		}
	}
	return rec.DB()
})

// BenchmarkQueryFleet measures the fleet /history query core — index
// walk, block decode, bucketing and per-bucket sort — as a mimostat
// refresh asks it: track_err over the full range at res=auto with three
// quantiles.
func BenchmarkQueryFleet(b *testing.B) {
	db := fleetStore()
	qs := []float64{0.5, 0.9, 0.99}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, _ := db.QueryFleet("track_err", 0, math.MaxUint64, ResAuto, qs)
		if len(pts) == 0 {
			b.Fatal("empty fleet query")
		}
	}
}
