package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"mimoctl/internal/batch"
	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/tsdb"
	"mimoctl/internal/workloads"
)

const (
	fleetLoops = 1024
	// fleetPeriod is the open-loop schedule: one fleet epoch is due every
	// 4 ms (256k loop-epochs/s). At this rate the reference host keeps the
	// stepping goroutine and the bus pump each under half busy, so a
	// speed-up shows as lower latency and CPU and a slow-down as lag or
	// drops rather than as a saturated queue.
	fleetPeriod = 4 * time.Millisecond
	// fleetBusCap is the event ring size: 64 fleet epochs (256 ms) of
	// slack, so a pump that keeps up on average rides out the stalls of a
	// shared host, and only one that falls behind for good drops events.
	fleetBusCap = 1 << 16
	// fleetMinWarm and fleetMaxWarm bound the warm-up epochs. Warm-up ends
	// once every loop's history series exist and the bus has drained.
	fleetMinWarm = 64
	fleetMaxWarm = 4096
	// rollupEpochs is the 16x history window; the timed phase starts on a
	// window boundary so its ingested points can be counted exactly.
	rollupEpochs = 16
	// replayLanes is how many lanes a scalar replay re-runs after the
	// timed phase to check the batched decisions.
	replayLanes = 8
	// traceBlock is how many epochs a traced run keeps tracing on or off
	// before switching, so traced and untraced epochs share conditions.
	traceBlock = 25
	// digestEpochs is the prefix of fleet epochs whose decision digest is
	// committed in fleetDigests.
	digestEpochs = 512
)

// fleetDigests are the FNV-64a digests of every lane's chosen
// configuration over the first digestEpochs epochs, per workload seed.
// A run at any other seed is checked by its scalar replay alone.
var fleetDigests = map[int64]uint64{
	defaultSeed: 0x5eca2e1a1d293236,
	heldOutSeed: 0x280352e7ead1a0ff,
}

// fleet is one supervised 1024-loop deployment: a sim.Processor per loop,
// the batched supervisor engine, the observability plane and the
// telemetry history it feeds.
type fleet struct {
	base   *core.MIMOController
	procs  []*sim.Processor
	eng    *batch.SupEngine
	bus    *obs.Bus
	rec    *tsdb.Recorder
	sink   *timedSink
	tels   []sim.Telemetry
	outs   []sim.Config
	seeds  []int64
	prof   []*workloads.Profile
	epochs int // epochs stepped

	digest     hash.Hash64 // every lane, every epoch
	prefix     uint64      // digest after digestEpochs epochs
	replay     []int       // lanes checked by scalar replay
	laneDigest []hash.Hash64
	buf        []byte
	applyErrs  int64
}

// fleetInputs derives each loop's profile and processor seed from the
// workload seed: profiles cycle through every workload profile in a
// seed-chosen order.
func fleetInputs(seed int64, n int) ([]*workloads.Profile, []int64) {
	rng := rand.New(rand.NewSource(seed))
	all := workloads.All()
	perm := rng.Perm(len(all))
	prof := make([]*workloads.Profile, n)
	seeds := make([]int64, n)
	for i := range prof {
		prof[i] = all[perm[i%len(all)]]
		seeds[i] = rng.Int63()
	}
	return prof, seeds
}

// newFleet builds the fleet from a designed 3-input MIMO controller.
func newFleet(seed int64, base *core.MIMOController, epochCap int) (*fleet, error) {
	f := &fleet{base: base, digest: fnv.New64a(), buf: make([]byte, 0, 3*fleetLoops)}
	f.prof, f.seeds = fleetInputs(seed, fleetLoops)
	db := tsdb.New(tsdb.Options{})
	var plane *obs.Fleet
	f.rec = tsdb.NewRecorder(db, func(id uint32) string { return plane.LoopName(id) })
	f.sink = newTimedSink(f.rec, fleetLoops, epochCap)
	f.bus = obs.NewBus(fleetBusCap, f.sink)
	plane = obs.NewFleet(obs.Options{Bus: f.bus})

	sups := make([]*supervisor.Supervised, fleetLoops)
	f.procs = make([]*sim.Processor, fleetLoops)
	for i := range sups {
		p, err := sim.NewProcessor(f.prof[i], sim.DefaultProcessorOptions(), f.seeds[i])
		if err != nil {
			f.bus.Close()
			return nil, err
		}
		f.procs[i] = p
		sups[i] = newLoop(base)
		sups[i].SetLoopObs(plane.Register(fmt.Sprintf("fleet/loop-%04d", i)))
	}
	eng, err := batch.FromSupervisedFleet(sups)
	if err != nil {
		f.bus.Close()
		return nil, err
	}
	f.eng = eng
	f.tels = make([]sim.Telemetry, fleetLoops)
	f.outs = make([]sim.Config, fleetLoops)

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	f.replay = rng.Perm(fleetLoops)[:replayLanes]
	for range f.replay {
		f.laneDigest = append(f.laneDigest, fnv.New64a())
	}
	return f, nil
}

// newLoop is one supervised loop at the paper's default targets.
func newLoop(base *core.MIMOController) *supervisor.Supervised {
	c := base.Clone()
	c.Reset()
	s := supervisor.New(c, supervisor.Options{})
	s.Reset()
	s.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	return s
}

// epochTimes are the boundaries of one stepped epoch.
type epochTimes struct {
	start, stepped, decided, applied time.Time
}

// step runs one fleet epoch: every plant steps, the supervised engine
// decides for every lane, and every decision is applied.
func (f *fleet) step() (epochTimes, error) {
	var t epochTimes
	t.start = time.Now()
	for i, p := range f.procs {
		f.tels[i] = p.Step()
	}
	t.stepped = time.Now()
	if err := f.eng.StepAll(f.tels, f.outs); err != nil {
		return t, err
	}
	t.decided = time.Now()
	for i, p := range f.procs {
		err := p.Apply(f.outs[i])
		if err != nil {
			f.applyErrs++
		}
		f.eng.ObserveApply(i, f.outs[i], err)
	}
	t.applied = time.Now()
	f.epochs++
	f.buf = appendConfigs(f.buf[:0], f.outs)
	f.digest.Write(f.buf)
	if f.epochs == digestEpochs {
		f.prefix = f.digest.Sum64()
	}
	for j, lane := range f.replay {
		f.laneDigest[j].Write(f.buf[3*lane : 3*lane+3])
	}
	return t, nil
}

// appendConfigs encodes each configuration as three knob-index bytes.
func appendConfigs(b []byte, cfgs []sim.Config) []byte {
	for _, c := range cfgs {
		b = append(b, byte(c.FreqIdx), byte(c.CacheIdx), byte(c.ROBIdx))
	}
	return b
}

// warmUp steps the fleet on its schedule until every loop's history
// series exist and at least fleetMinWarm epochs ran, stopping on a rollup
// window boundary, then waits for the bus to drain. It returns the epoch
// at which the last loop was registered.
func (f *fleet) warmUp() (int, error) {
	start := time.Now()
	registered := 0
	for k := 0; ; k++ {
		sleepUntil(start.Add(time.Duration(k) * fleetPeriod))
		if _, err := f.step(); err != nil {
			return 0, err
		}
		if registered == 0 && f.sink.loopsSeen() == fleetLoops {
			registered = f.epochs
		}
		if registered > 0 && f.epochs >= fleetMinWarm && (f.epochs+1)%rollupEpochs == 0 {
			break
		}
		if f.epochs >= fleetMaxWarm {
			return 0, fmt.Errorf("history registered %d of %d loops after %d epochs",
				f.sink.loopsSeen(), fleetLoops, f.epochs)
		}
	}
	return registered, f.drain()
}

// drain waits until the history has ingested every published event.
func (f *fleet) drain() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		published, _, _ := f.bus.Stats()
		if f.sink.ingested.Load() == int64(published) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("history ingested %d of %d published events", f.sink.ingested.Load(), published)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// setupFleet designs (afresh unless cached), builds and warms one fleet.
func setupFleet(seed int64, cached bool, epochCap int) (*fleet, int, error) {
	var base *core.MIMOController
	var err error
	if cached {
		base, _, err = experiments.DesignedMIMO(true, seed)
	} else {
		base, _, err = core.DesignMIMO(core.DesignSpec{
			ThreeInput: true,
			Training:   experiments.TrainingWorkloads(),
			Validation: experiments.ValidationWorkloads(),
			Seed:       seed,
		})
	}
	if err != nil {
		return nil, 0, fmt.Errorf("design: %w", err)
	}
	f, err := newFleet(seed, base, epochCap)
	if err != nil {
		return nil, 0, err
	}
	reg, err := f.warmUp()
	if err != nil {
		f.bus.Close()
		return nil, 0, err
	}
	return f, reg, nil
}

// runFleet measures the deployment path under an open-loop schedule.
func runFleet(seed int64, share time.Duration, tr *tracer) (*outcome, error) {
	n := int(share / fleetPeriod)
	if n < 1 {
		n = 1
	}
	epochCap := fleetMaxWarm + n + 2
	reps := setups
	if tr != nil {
		reps = 1
	}
	var f *fleet
	var setupTimes []float64
	var registeredAt int
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 && tr == nil {
			start = processStart
		}
		if f != nil {
			if err := f.bus.Close(); err != nil {
				return nil, fmt.Errorf("bus sink: %w", err)
			}
			f = nil
			releaseMemory()
		}
		var err error
		f, registeredAt, err = setupFleet(seed, i == 0, epochCap)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	warm := f.epochs
	pub0, setupDropped, _ := f.bus.Stats()

	// Timed phase: an open loop, latency timed from each epoch's due time.
	traced := make([]bool, n)
	var stepUS, decideUS, applyUS, waitUS []float64
	var lanes, fast int64
	var occHWM uint64
	mem0 := readMem()
	cpu0 := cpuSeconds()
	f.sink.tr = tr
	f.sink.measure(true)
	t0 := time.Now()
	due := func(k int) time.Time { return t0.Add(time.Duration(k) * fleetPeriod) }
	applied, lateD, err := paced(t0, n, fleetPeriod, func(k int) error {
		on := tr != nil && (k/traceBlock)%2 == 1
		traced[k] = on
		f.sink.tracing(on)
		et, err := f.step()
		if err != nil {
			return err
		}
		if occ := f.bus.Occupancy(); occ > occHWM {
			occHWM = occ
		}
		f.sink.noteDecided(warm+k+1, et.decided)
		if !on {
			return nil
		}
		root := tr.open("fleet.epoch", -1, due(k))
		tr.record("sim.fleet_step", root, et.start, et.stepped)
		tr.record("batch.step_all", root, et.stepped, et.decided)
		tr.record("sim.fleet_apply", root, et.decided, et.applied)
		tr.close(root, et.applied)
		stepUS = append(stepUS, float64(et.stepped.Sub(et.start))/1e3)
		decideUS = append(decideUS, float64(et.decided.Sub(et.stepped))/1e3)
		applyUS = append(applyUS, float64(et.applied.Sub(et.decided))/1e3)
		for i := 0; i < fleetLoops; i++ {
			if !f.eng.Parked(i) {
				fast++
			}
		}
		lanes += fleetLoops
		return nil
	})
	if err != nil {
		return nil, err
	}
	late := microseconds(lateD)
	if err := f.drain(); err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	cpu := cpuSeconds() - cpu0
	alloc, gcs, pause := runtimeMetrics(mem0, readMem())
	f.sink.measure(false)
	pub1, drop1, _ := f.bus.Stats()
	if err := f.bus.Close(); err != nil {
		return nil, fmt.Errorf("bus sink: %w", err)
	}
	published := int64(pub1 - pub0)
	dropped := int64(drop1 - setupDropped)

	out := &outcome{report: metrics{}, layers: metrics{}}
	out.attempted = int64(n) * fleetLoops
	out.failed = dropped + f.applyErrs

	// History lag and whole-epoch latency: an epoch is done when its
	// decisions are applied and its last event has been ingested. An
	// epoch the history never completed counts as lasting the whole run.
	var lagMS, appliedUS, doneTraced, doneUntraced []float64
	for k := 0; k < n; k++ {
		done := applied[k]
		if at, ok := f.sink.doneAt(warm + k + 1); ok {
			lag := at.Sub(due(k))
			lagMS = append(lagMS, durMS(lag))
			done = max(done, lag)
		} else {
			done = wall
		}
		if traced[k] {
			doneTraced = append(doneTraced, durMS(done))
			continue
		}
		appliedUS = append(appliedUS, float64(applied[k])/1e3)
		doneUntraced = append(doneUntraced, durMS(done))
		if w, ok := f.sink.pumpWait(warm + k + 1); ok {
			waitUS = append(waitUS, float64(w)/1e3)
		}
	}
	out.opMS = doneUntraced
	out.cpuMSPerOp = cpu * 1e3 / float64(n)
	out.setupS = median(setupTimes)

	// Checks: history reconciles with what was published, the committed
	// digest matches, and a scalar replay reproduces the batched lanes.
	ingested, err := f.ingestedSince(uint64(warm + 1))
	if err != nil {
		return nil, err
	}
	if ingested != published {
		out.failed += abs64(ingested - published)
		fmt.Printf("# fleet: history holds %d timed points, bus published %d events\n", ingested, published)
	}
	if want, ok := fleetDigests[seed]; ok && f.epochs >= digestEpochs && f.prefix != want {
		out.failed++
		fmt.Printf("# fleet: decision digest %016x, committed %016x\n", f.prefix, want)
	}
	fmt.Printf("# fleet: seed %d decision digest over %d epochs: %016x\n", seed, digestEpochs, f.prefix)
	mismatched, err := f.replayCheck()
	if err != nil {
		return nil, err
	}
	out.failed += mismatched

	lagP99, lagLevel := tail(lagMS)
	appliedP99, appliedLevel := tail(appliedUS)
	lateP99, _ := tail(late)
	r := out.report
	r.set("epoch_p50_us", median(appliedUS), "us")
	r.set("epoch_p99_us", appliedP99, "us")
	r.set("epoch_tail_level", appliedLevel, "percentile")
	r.set("history_lag_p50_ms", median(lagMS), "ms")
	r.set("history_lag_p99_ms", lagP99, "ms")
	r.set("history_lag_tail_level", lagLevel, "percentile")
	r.set("cpu_us_per_loop_epoch", cpu*1e6/float64(n*fleetLoops), "us")
	r.set("epochs", float64(n), "count")
	r.set("error_ratio", float64(out.failed)/float64(out.attempted), "ratio")
	r.set("driver.late_p50_us", median(late), "us")
	r.set("driver.late_p99_us", lateP99, "us")
	r.set("obs.dropped", float64(dropped), "count")
	r.set("obs.setup_dropped", float64(setupDropped), "count")
	r.set("obs.setup_epochs", float64(registeredAt), "count")
	r.set("runtime.alloc_mb", alloc, "MB")
	r.set("runtime.gc_count", gcs, "count")
	r.set("runtime.gc_pause_ms", pause, "ms")
	if tr == nil {
		return out, nil
	}

	tr.count("batch.lane_steps", lanes)
	tr.count("batch.fast_lane_steps", fast)
	tr.count("tsdb.events_ingested", f.sink.events)
	l := out.layers
	for _, name := range []string{"epoch_p50_us", "epoch_p99_us", "history_lag_p50_ms",
		"history_lag_p99_ms", "cpu_us_per_loop_epoch"} {
		l[name] = r[name]
	}
	p50Step, p50Decide, p50Apply := median(stepUS), median(decideUS), median(applyUS)
	l.set("sim.fleet_step_us", p50Step, "us")
	l.set("batch.step_all_us", p50Decide, "us")
	l.set("sim.fleet_apply_us", p50Apply, "us")
	l.set("batch.fast_path_ratio", float64(fast)/float64(lanes), "ratio")
	l.set("trace.epoch_coverage", (p50Step+p50Decide+p50Apply)/median(appliedUS), "ratio")
	l.set("obs.pump_wait_us", median(waitUS), "us")
	l.set("obs.dropped", float64(dropped), "count")
	l.set("obs.occupancy_hwm", float64(occHWM), "count")
	l.set("obs.setup_dropped", float64(setupDropped), "count")
	l.set("obs.setup_epochs", float64(registeredAt), "count")
	sink := f.sink
	l.set("tsdb.ingest_ns_per_event", float64(sink.busyNS)/float64(sink.events), "ns")
	l.set("tsdb.ingest_busy_frac", float64(sink.busyNS)/float64(wall), "ratio")
	l.set("tsdb.batch_events_p50", median(sink.batches), "count")
	l.set("driver.late_p50_us.fleet", r["driver.late_p50_us"].Value, "us")
	l.set("driver.late_p99_us.fleet", lateP99, "us")
	l.set("error_ratio.fleet", r["error_ratio"].Value, "ratio")
	l.set("trace.overhead_ratio.fleet", median(doneTraced)/median(doneUntraced), "ratio")
	l.set("runtime.alloc_mb.fleet", alloc, "MB")
	l.set("runtime.gc_count.fleet", gcs, "count")
	l.set("runtime.gc_pause_ms.fleet", pause, "ms")
	return out, nil
}

// ingestedSince counts the history points of the always-finite mode
// signal at 16x resolution from epoch from on, summed over loops.
func (f *fleet) ingestedSince(from uint64) (int64, error) {
	f.rec.Sync()
	db := f.rec.DB()
	var total int64
	var pts []tsdb.Point
	for i := 0; i < fleetLoops; i++ {
		name := fmt.Sprintf("fleet/loop-%04d", i)
		s := db.Lookup(name, "mode")
		if s == nil {
			return 0, fmt.Errorf("history has no series for %s", name)
		}
		if oldest, ok := s.OldestEpoch(tsdb.ResMid); !ok || oldest > from {
			return 0, fmt.Errorf("16x history of %s no longer reaches epoch %d", name, from)
		}
		pts, _ = s.Query(pts[:0], from, math.MaxUint64, tsdb.ResMid)
		for _, p := range pts {
			total += int64(p.Count)
		}
	}
	return total, nil
}

// replayCheck re-runs the sampled lanes as plain scalar supervised loops
// and returns how many chose a different configuration sequence than the
// batched fleet.
func (f *fleet) replayCheck() (int64, error) {
	var bad int64
	b := make([]byte, 0, 3)
	for j, lane := range f.replay {
		p, err := sim.NewProcessor(f.prof[lane], sim.DefaultProcessorOptions(), f.seeds[lane])
		if err != nil {
			return 0, err
		}
		s := newLoop(f.base)
		h := fnv.New64a()
		for k := 0; k < f.epochs; k++ {
			cfg := s.Step(p.Step())
			s.ObserveApply(cfg, p.Apply(cfg))
			b = appendConfigs(b[:0], []sim.Config{cfg})
			h.Write(b)
		}
		if h.Sum64() != f.laneDigest[j].Sum64() {
			bad++
			fmt.Printf("# fleet: lane %d (%s) differs from its scalar replay\n", lane, f.prof[lane].Name())
		}
	}
	return bad, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// timedSink wraps the history recorder as the bus's sink and times each
// WriteEvents call. It runs on the bus pump goroutine; the stepping
// goroutine reads per-epoch completion through atomics and the rest after
// the bus closes.
type timedSink struct {
	rec    *tsdb.Recorder
	loops  int
	origin time.Time

	seen  []bool
	nSeen atomic.Int64

	ingested atomic.Int64 // events returned from WriteEvents
	perEpoch []int32
	done     []atomic.Int64 // ns since origin the epoch's last event was ingested
	first    []atomic.Int64 // ns since origin ingestion of the epoch began
	decided  []atomic.Int64 // ns since origin the epoch's events were published

	measuring atomic.Bool
	traceOn   atomic.Bool
	tr        *tracer
	// Ingest busy time, events and batch sizes of the measured phase;
	// read them after the bus has closed.
	busyNS  int64
	events  int64
	batches []float64
}

func newTimedSink(rec *tsdb.Recorder, loops, epochCap int) *timedSink {
	return &timedSink{
		rec: rec, loops: loops, origin: time.Now(),
		seen:     make([]bool, loops),
		perEpoch: make([]int32, epochCap),
		done:     make([]atomic.Int64, epochCap),
		first:    make([]atomic.Int64, epochCap),
		decided:  make([]atomic.Int64, epochCap),
	}
}

// WriteEvents implements obs.Sink.
func (s *timedSink) WriteEvents(batch []obs.Event) error {
	t0 := time.Now()
	err := s.rec.WriteEvents(batch)
	t1 := time.Now()
	if s.traceOn.Load() {
		s.tr.record("tsdb.write_events", -1, t0, t1)
	}
	if s.measuring.Load() {
		s.busyNS += int64(t1.Sub(t0))
		s.events += int64(len(batch))
		s.batches = append(s.batches, float64(len(batch)))
	}
	for i := range batch {
		ev := &batch[i]
		if id := int(ev.LoopID); id < len(s.seen) && !s.seen[id] {
			s.seen[id] = true
			s.nSeen.Add(1)
		}
		e := int(ev.Epoch)
		if e >= len(s.perEpoch) {
			continue
		}
		if s.perEpoch[e] == 0 {
			s.first[e].Store(int64(t0.Sub(s.origin)))
		}
		s.perEpoch[e]++
		if int(s.perEpoch[e]) == s.loops {
			s.done[e].Store(int64(t1.Sub(s.origin)))
		}
	}
	s.ingested.Add(int64(len(batch)))
	return err
}

func (s *timedSink) loopsSeen() int { return int(s.nSeen.Load()) }

func (s *timedSink) measure(on bool) { s.measuring.Store(on) }

func (s *timedSink) tracing(on bool) { s.traceOn.Store(on) }

// noteDecided records when epoch e's events were published.
func (s *timedSink) noteDecided(e int, at time.Time) {
	if e < len(s.decided) {
		s.decided[e].Store(int64(at.Sub(s.origin)))
	}
}

// doneAt returns when epoch e's last event was ingested.
func (s *timedSink) doneAt(e int) (time.Time, bool) {
	if e >= len(s.done) {
		return time.Time{}, false
	}
	ns := s.done[e].Load()
	return s.origin.Add(time.Duration(ns)), ns != 0
}

// pumpWait returns how long epoch e's events waited after publication
// before ingestion began; zero when the pump was already draining them.
func (s *timedSink) pumpWait(e int) (time.Duration, bool) {
	if e >= len(s.first) {
		return 0, false
	}
	first, dec := s.first[e].Load(), s.decided[e].Load()
	if first == 0 || dec == 0 {
		return 0, false
	}
	return time.Duration(max(first-dec, 0)), true
}
