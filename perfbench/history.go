package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mimoctl/internal/obs"
	"mimoctl/internal/tsdb"
	"mimoctl/internal/workloads"
)

const (
	// prefillEpochs is the history a run starts with: long enough that
	// the raw rings of the noisy signals have wrapped.
	prefillEpochs = 2048
	// pumpBatch is the largest batch the bus pump hands its sinks.
	pumpBatch = 256
	// adminEvery makes every n-th refresh also export raw CSV and list
	// the keys, as an operator occasionally does.
	adminEvery = 10
	// readSegments is how many freshly prefilled stores an untraced run
	// measures in turn; see runHistoryRead.
	readSegments = 5
)

// fleetQuantiles are the percentiles a refresh asks of the fleet query.
const fleetQuantiles = "0.5,0.9,0.99"

// drillSignals are the per-loop charts of a refresh, in request order.
var drillSignals = []string{"ips", "power_w", "track_err", "guardband"}

// genLoop is one synthetic loop of the history generator. Its values
// follow the fleet's: outputs settle at the default targets with sensor
// noise, except that a non-responsive profile settles below its IPS
// target; innovations are small and noisy; the guardband drifts slowly;
// the knobs move a level at a time; a few loops are in fallback.
type genLoop struct {
	ipsLevel, powLevel float64
	guard              float64
	fallback           bool
	freq, cache, rob   int16
}

// eventGen produces fleet epochs of obs.Event deterministically per seed.
type eventGen struct {
	rng   *rand.Rand
	loops []genLoop
	epoch uint64
}

func newEventGen(seed int64, n int) *eventGen {
	g := &eventGen{rng: rand.New(rand.NewSource(seed)), loops: make([]genLoop, n)}
	all := workloads.All()
	for i := range g.loops {
		l := &g.loops[i]
		l.ipsLevel, l.powLevel = 2.5, 2.0
		if workloads.NonResponsive(all[g.rng.Intn(len(all))].Name()) {
			l.ipsLevel = 2.5 * (0.55 + 0.4*g.rng.Float64())
			l.powLevel = 2.0 * (0.8 + 0.2*g.rng.Float64())
		}
		l.guard = 0.2 * g.rng.Float64()
		l.fallback = g.rng.Intn(64) == 0
		l.freq, l.cache, l.rob = int16(g.rng.Intn(16)), int16(g.rng.Intn(4)), int16(g.rng.Intn(4))
	}
	return g
}

// next fills dst with the next fleet epoch, one event per loop.
func (g *eventGen) next(dst []obs.Event) []obs.Event {
	g.epoch++
	dst = dst[:0]
	for i := range g.loops {
		l := &g.loops[i]
		l.guard = math.Min(1, math.Max(0, l.guard+0.01*g.rng.NormFloat64()))
		if g.rng.Intn(8) == 0 {
			l.freq = clamp16(l.freq+int16(g.rng.Intn(3)-1), 0, 15)
		}
		ev := obs.Event{
			LoopID: uint32(i), Epoch: g.epoch,
			IPSTarget: 2.5, PowerTarget: 2.0,
			IPS:       l.ipsLevel * (1 + 0.01*g.rng.NormFloat64()),
			PowerW:    l.powLevel * (1 + 0.025*g.rng.NormFloat64()),
			InnovNorm: math.Abs(0.05 * g.rng.NormFloat64()),
			Guardband: l.guard,
			ReqFreq:   l.freq, ReqCache: l.cache, ReqROB: l.rob,
		}
		if l.fallback {
			ev.Mode, ev.Flags = 1, obs.FlagFallback
		}
		dst = append(dst, ev)
	}
	return dst
}

func clamp16(v, lo, hi int16) int16 { return min(max(v, lo), hi) }

// historyLoopName names loop i in the store, as the fleet registers it.
func historyLoopName(id uint32) string { return fmt.Sprintf("fleet/loop-%04d", id) }

// prefill builds a store holding prefillEpochs epochs of a 1024-loop
// fleet, written in pump-sized batches, and returns its recorder and the
// generator positioned after the last epoch.
func prefill(seed int64) (*tsdb.Recorder, *eventGen, error) {
	rec := tsdb.NewRecorder(tsdb.New(tsdb.Options{}), historyLoopName)
	gen := newEventGen(seed, fleetLoops)
	evs := make([]obs.Event, 0, fleetLoops)
	for e := 0; e < prefillEpochs; e++ {
		evs = gen.next(evs)
		for lo := 0; lo < len(evs); lo += pumpBatch {
			if err := rec.WriteEvents(evs[lo:min(lo+pumpBatch, len(evs))]); err != nil {
				return nil, nil, err
			}
		}
	}
	return rec, gen, nil
}

// request kinds of a refresh.
const (
	kindFleet = "fleet"
	kindLoop  = "loop"
	kindCSV   = "csv"
	kindKeys  = "keys"
)

// readAcc accumulates one run's history-read measurements across its
// segments.
type readAcc struct {
	rng                                        *rand.Rand
	refreshes                                  int
	opMS, tracedMS, reqMS, coreMS, fleetPoints []float64
	writeLat, writeLate                        []time.Duration
	writeDur                                   []float64
	byKind                                     map[string][]float64
	requests, writes, bytes, failed            int64
	wall                                       time.Duration
	cpu, alloc, gcs, pause                     float64
}

// runHistoryRead measures /history reads while a writer keeps appending.
// An untraced run splits its measured time into readSegments segments,
// each on a freshly prefilled store, and its set-up time is the median of
// those prefills: the cost of a fleet query depends on how the store
// happens to sit in memory, which differs from store to store by about a
// tenth, and several stores average that out.
func runHistoryRead(seed int64, share time.Duration, tr *tracer) (*outcome, error) {
	segs := readSegments
	if tr != nil {
		segs = 1
	}
	acc := &readAcc{rng: rand.New(rand.NewSource(seed ^ 0x4ead)), byKind: map[string][]float64{}}
	var setupTimes []float64
	for i := 0; i < segs; i++ {
		start := time.Now()
		if i == 0 && tr == nil {
			start = processStart
		}
		rec, gen, err := prefill(seed)
		if err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if err := acc.segment(rec, gen, share/time.Duration(segs), tr); err != nil {
			return nil, err
		}
		rec, gen = nil, nil // let the collection below free the store
		releaseMemory()
	}

	out := &outcome{report: metrics{}, layers: metrics{}, opMS: acc.opMS}
	out.attempted = acc.requests + acc.writes
	out.failed = acc.failed
	out.setupS = median(setupTimes)
	out.cpuMSPerOp = acc.cpu * 1e3 / float64(acc.refreshes)

	qP99, qLevel := tail(acc.reqMS)
	wUS, late := microseconds(acc.writeLat), microseconds(acc.writeLate)
	wP99, wLevel := tail(wUS)
	lateP99, _ := tail(late)
	r := out.report
	r.set("refresh_p50_ms", median(acc.opMS), "ms")
	r.set("query_p50_ms", median(acc.reqMS), "ms")
	r.set("query_p99_ms", qP99, "ms")
	r.set("query_tail_level", qLevel, "percentile")
	r.set("queries_per_s", float64(acc.requests)/acc.wall.Seconds(), "1/s")
	r.set("write_p99_us", wP99, "us")
	r.set("write_tail_level", wLevel, "percentile")
	r.set("refreshes", float64(acc.refreshes), "count")
	r.set("error_ratio", float64(out.failed)/float64(out.attempted), "ratio")
	r.set("driver.late_p50_us", median(late), "us")
	r.set("driver.late_p99_us", lateP99, "us")
	r.set("runtime.alloc_mb", acc.alloc, "MB")
	r.set("runtime.gc_count", acc.gcs, "count")
	r.set("runtime.gc_pause_ms", acc.pause, "ms")
	if tr == nil {
		return out, nil
	}

	tr.count("tsdb.requests", acc.requests)
	tr.count("tsdb.response_bytes", acc.bytes)
	l := out.layers
	for _, name := range []string{"query_p50_ms", "query_p99_ms", "queries_per_s", "write_p99_us"} {
		l[name] = r[name]
	}
	l.set("tsdb.write_us_per_epoch", median(acc.writeDur), "us")
	l.set("tsdb.q_fleet_ms", median(acc.byKind[kindFleet]), "ms")
	l.set("tsdb.q_loop_ms", median(acc.byKind[kindLoop]), "ms")
	l.set("tsdb.q_csv_ms", median(acc.byKind[kindCSV]), "ms")
	l.set("tsdb.q_keys_ms", median(acc.byKind[kindKeys]), "ms")
	l.set("tsdb.query_fleet_core_ms", median(acc.coreMS), "ms")
	l.set("tsdb.points_per_fleet_query", median(acc.fleetPoints), "count")
	l.set("tsdb.bytes_per_query", float64(acc.bytes)/float64(acc.requests), "B")
	l.set("driver.late_p50_us.history-read", r["driver.late_p50_us"].Value, "us")
	l.set("driver.late_p99_us.history-read", lateP99, "us")
	l.set("error_ratio.history-read", r["error_ratio"].Value, "ratio")
	l.set("trace.overhead_ratio.history-read", median(acc.tracedMS)/median(acc.opMS), "ratio")
	l.set("runtime.alloc_mb.history-read", acc.alloc, "MB")
	l.set("runtime.gc_count.history-read", acc.gcs, "count")
	l.set("runtime.gc_pause_ms.history-read", acc.pause, "ms")
	return out, nil
}

// segment runs the writer and the reader against one store for share.
func (a *readAcc) segment(rec *tsdb.Recorder, gen *eventGen, share time.Duration, tr *tracer) error {
	db := rec.DB()
	h := db.Handler()
	nWrites := int(share / fleetPeriod)
	runtime.GC()
	mem0 := readMem()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	deadline := t0.Add(share)

	// Writer: one fleet epoch due every fleetPeriod, open loop. Each
	// epoch's events are generated before it is due. written is the last
	// epoch every loop has appended.
	var written atomic.Uint64
	written.Store(gen.epoch)
	evs := gen.next(make([]obs.Event, 0, fleetLoops))
	var writeLate []time.Duration
	writeLat := make([]time.Duration, nWrites)
	writeDur := make([]float64, nWrites)
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, writeLate, writeErr = paced(t0, nWrites, fleetPeriod, func(k int) error {
			w0 := time.Now()
			err := rec.WriteEvents(evs)
			w1 := time.Now()
			written.Store(evs[0].Epoch)
			tr.record("tsdb.write_epoch", -1, w0, w1)
			writeLat[k] = w1.Sub(t0.Add(time.Duration(k) * fleetPeriod))
			writeDur[k] = float64(w1.Sub(w0)) / 1e3
			evs = gen.next(evs)
			return err
		})
	}()

	// Reader: one closed-loop client refreshing as mimostat does.
	for ref := 0; ref == 0 || time.Now().Before(deadline); ref++ {
		rtr := tr
		if ref%2 == 0 {
			rtr = nil
		}
		loop := historyLoopName(uint32(a.rng.Intn(fleetLoops)))
		type req struct{ kind, url string }
		reqs := []req{{kindFleet, "/history?signal=track_err&res=auto&q=" + fleetQuantiles}}
		for _, sig := range drillSignals {
			reqs = append(reqs, req{kindLoop, "/history?loop=" + loop + "&signal=" + sig + "&res=auto"})
		}
		if ref%adminEvery == adminEvery-1 {
			reqs = append(reqs, req{kindCSV, "/history?loop=" + loop + "&signal=ips&res=raw&format=csv"},
				req{kindKeys, "/history"})
		}
		var refreshMS float64
		root := rtr.open("history.refresh", -1, time.Now())
		for _, rq := range reqs {
			resp := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodGet, rq.url, nil)
			done := written.Load()
			q0 := time.Now()
			h.ServeHTTP(resp, r)
			q1 := time.Now()
			rtr.record("tsdb.q_"+rq.kind, root, q0, q1)
			ms := durMS(q1.Sub(q0))
			refreshMS += ms
			a.reqMS = append(a.reqMS, ms)
			a.byKind[rq.kind] = append(a.byKind[rq.kind], ms)
			a.requests++
			a.bytes += int64(resp.Body.Len())
			pts, err := checkResponse(rq.kind, resp, done)
			if err != nil {
				a.failed++
				fmt.Printf("# history-read: %s: %v\n", rq.url, err)
			}
			if rq.kind == kindFleet {
				a.fleetPoints = append(a.fleetPoints, float64(pts))
			}
		}
		rtr.close(root, time.Now())
		if rtr != nil && ref%adminEvery == 1 {
			c0 := time.Now()
			db.QueryFleet("track_err", 0, math.MaxUint64, tsdb.ResAuto, []float64{0.5, 0.9, 0.99})
			c1 := time.Now()
			tr.record("tsdb.query_fleet", -1, c0, c1)
			a.coreMS = append(a.coreMS, durMS(c1.Sub(c0)))
		}
		a.refreshes++
		if rtr != nil {
			a.tracedMS = append(a.tracedMS, refreshMS)
		} else {
			a.opMS = append(a.opMS, refreshMS)
		}
	}
	wg.Wait()
	if writeErr != nil {
		return fmt.Errorf("writer: %w", writeErr)
	}
	a.wall += time.Since(t0)
	a.cpu += cpuSeconds() - cpu0
	alloc, gcs, pause := runtimeMetrics(mem0, readMem())
	a.alloc += alloc
	a.gcs += gcs
	a.pause += pause
	a.writes += int64(nWrites)
	a.writeLat = append(a.writeLat, writeLat...)
	a.writeLate = append(a.writeLate, writeLate...)
	a.writeDur = append(a.writeDur, writeDur...)
	return nil
}

// checkResponse validates one response by kind and returns the number of
// points a fleet query carried. written is the last epoch every loop had
// appended when the request was issued.
func checkResponse(kind string, resp *httptest.ResponseRecorder, written uint64) (int, error) {
	if resp.Code != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.Code)
	}
	body := resp.Body.Bytes()
	switch kind {
	case kindFleet:
		var fr tsdb.FleetHistoryResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			return 0, err
		}
		if len(fr.Points) == 0 {
			return 0, fmt.Errorf("no fleet points")
		}
		// The query reads loop after loop while the writer appends, so a
		// bucket whose rollup window closed during the request may carry
		// fewer loops. One that closed before must carry every loop: a
		// rollup sample is written once the next 16x window opens, at
		// most window+16 epochs after the window's first epoch.
		res, ok := tsdb.ParseResolution(fr.Resolution)
		if !ok {
			return 0, fmt.Errorf("resolution %q", fr.Resolution)
		}
		for _, p := range fr.Points {
			closed := p.Epoch+res.Factor()+16 <= written
			if p.Loops > fleetLoops || p.Loops < 1 || (closed && p.Loops != fleetLoops) {
				return 0, fmt.Errorf("fleet point at epoch %d carries %d loops", p.Epoch, p.Loops)
			}
			if len(p.Quantiles) != 3 {
				return 0, fmt.Errorf("fleet point at epoch %d has %d quantiles", p.Epoch, len(p.Quantiles))
			}
		}
		return len(fr.Points), nil
	case kindLoop:
		var lr tsdb.HistoryResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			return 0, err
		}
		if len(lr.Points) == 0 {
			return 0, fmt.Errorf("no points for %s/%s", lr.Loop, lr.Signal)
		}
	case kindCSV:
		sc := bufio.NewScanner(bytes.NewReader(body))
		rows := 0
		for sc.Scan() {
			if rows == 0 && sc.Text() != "epoch,min,max,mean,count" {
				return 0, fmt.Errorf("csv header %q", sc.Text())
			}
			if rows > 0 && strings.Count(sc.Text(), ",") != 4 {
				return 0, fmt.Errorf("csv row %q", sc.Text())
			}
			rows++
		}
		if rows < 2 {
			return 0, fmt.Errorf("csv has no rows")
		}
	case kindKeys:
		var kr struct {
			Series []struct{ Loop, Signal string } `json:"series"`
		}
		if err := json.Unmarshal(body, &kr); err != nil {
			return 0, err
		}
		if want := fleetLoops * len(tsdb.Signals); len(kr.Series) != want {
			return 0, fmt.Errorf("keys lists %d series, want %d", len(kr.Series), want)
		}
	}
	return 0, nil
}
