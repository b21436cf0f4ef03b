package batch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
)

var errApplyInject = errors.New("injected actuation failure")

// requireSameSupState fails the test unless two supervised-runtime
// snapshots carry bit-identical state (floats by Float64bits with the
// NaN equivalence of floatsIdentical; everything else exactly).
func requireSameSupState(t *testing.T, lane string, got, want supervisor.BatchState) {
	t.Helper()
	gf := []float64{got.IPSTarget, got.PowerTarget, got.GoodIPS, got.GoodPower,
		got.GoodL1, got.GoodL2, got.EMAInnov, got.EMAErr}
	wf := []float64{want.IPSTarget, want.PowerTarget, want.GoodIPS, want.GoodPower,
		want.GoodL1, want.GoodL2, want.EMAInnov, want.EMAErr}
	if !floatsIdentical(gf, wf) {
		t.Fatalf("%s: supervised float state %v != scalar %v", lane, gf, wf)
	}
	got.IPSTarget, got.PowerTarget, got.GoodIPS, got.GoodPower = 0, 0, 0, 0
	got.GoodL1, got.GoodL2, got.EMAInnov, got.EMAErr = 0, 0, 0, 0
	want.IPSTarget, want.PowerTarget, want.GoodIPS, want.GoodPower = 0, 0, 0, 0
	want.GoodL1, want.GoodL2, want.EMAInnov, want.EMAErr = 0, 0, 0, 0
	if got != want {
		t.Fatalf("%s: supervised state %+v != scalar %+v", lane, got, want)
	}
}

// supFleetOptions returns the per-lane supervisor options used by the
// differential tests: short grace/hysteresis windows so fault-injected
// runs cross fallback entry, the fallback dwell, and hysteretic
// re-engagement many times within a few thousand epochs. Odd lanes get
// a divergence limit tight enough that random-walk telemetry far from
// target trips the tracking-error alarm with no sensor fault at all.
func supFleetOptions(j int) supervisor.Options {
	o := supervisor.Options{
		GraceEpochs:        30 + 5*(j%4),
		FallbackAfter:      10,
		MaxStaleEpochs:     6,
		MinFallbackEpochs:  25,
		ReengageAfter:      12,
		ApplyFallbackAfter: 4,
	}
	if j%2 == 1 {
		o.DivergenceLimit = 0.2
		o.DivergenceAlpha = 0.1
	}
	return o
}

// supRandTelemetry is randTelemetry with a plausible-by-default
// operating region: the non-finite/extreme tail is kept, but nominal
// draws stay inside the supervisor's default plausibility bounds so a
// lane in fallback can accumulate the clean-epoch streak hysteretic
// re-engagement requires. (randTelemetry's 25 W power tail is above the
// default 12 W ceiling more than half the time — a fleet fed with it
// almost never re-engages, which would leave the re-admission path
// untested.)
func supRandTelemetry(rng *rand.Rand, epoch int) sim.Telemetry {
	tel := sim.Telemetry{Epoch: epoch}
	switch rng.Intn(50) {
	case 0:
		tel.IPS = math.NaN()
		tel.PowerW = rng.Float64() * 20
	case 1:
		tel.IPS = rng.Float64() * 4
		tel.PowerW = math.Inf(1)
	case 2:
		tel.IPS = math.Inf(-1)
		tel.PowerW = math.NaN()
	case 3:
		tel.IPS = rng.NormFloat64() * 1e9
		tel.PowerW = rng.NormFloat64() * 1e9
	default:
		tel.IPS = 0.3 + rng.Float64()*4
		tel.PowerW = 1 + rng.Float64()*10
	}
	return tel
}

// supPair couples a batch-admitted supervised lane with an
// independently built always-scalar reference stepped in lockstep.
type supPair struct {
	id             int
	twin, ref      *supervisor.Supervised
	innerB, innerR *core.MIMOController
	cfgB, cfgR     sim.Config
}

// TestBatchSupervisedFleetBitIdentical is the supervised tier's
// differential harness of record: a mixed fleet of supervised 2- and
// 3-input lanes, each shadowed by an always-scalar reference, stepped
// for thousands of randomized epochs with non-finite telemetry,
// deterministic stuck-sensor windows, apply-failure bursts, target
// changes (including dropped non-finite ones), and resets. Every epoch
// must pick identical configurations; at regular intervals the full
// supervised and inner runtime state must compare bit-identically. The
// fault schedule must drive lanes off and back onto the fast path —
// a run that never evicts or never re-admits fails as vacuous.
func TestBatchSupervisedFleetBitIdentical(t *testing.T) {
	const (
		lanes  = 8
		epochs = 3000
	)
	rng := rand.New(rand.NewSource(99))
	e := NewSupervised()
	pairs := make([]*supPair, lanes)
	for j := 0; j < lanes; j++ {
		base := designedController(t, j%2 == 0)
		innerB, innerR := base.Clone(), base.Clone()
		innerB.Reset()
		innerR.Reset()
		o := supFleetOptions(j)
		p := &supPair{
			twin:   supervisor.New(innerB, o),
			ref:    supervisor.New(innerR, o),
			innerB: innerB,
			innerR: innerR,
			cfgB:   sim.MidrangeConfig(),
			cfgR:   sim.MidrangeConfig(),
		}
		ips, pow := 0.8+0.3*float64(j), 3+float64(j)
		p.twin.SetTargets(ips, pow)
		p.ref.SetTargets(ips, pow)
		// Warm both scalar so the admitted state is mid-run, not fresh.
		for w := 0; w < 10; w++ {
			tel := sim.Telemetry{Epoch: w, IPS: 0.5 + rng.Float64()*3, PowerW: 1 + rng.Float64()*9}
			telB, telR := tel, tel
			telB.Config, telR.Config = p.cfgB, p.cfgR
			p.cfgB = p.twin.Step(telB)
			p.cfgR = p.ref.Step(telR)
			p.twin.ObserveApply(p.cfgB, nil)
			p.ref.ObserveApply(p.cfgR, nil)
		}
		id, err := e.Add(p.twin)
		if err != nil {
			t.Fatalf("admit lane %d: %v", j, err)
		}
		p.id = id
		pairs[j] = p
	}

	tels := make([]sim.Telemetry, lanes)
	outs := make([]sim.Config, lanes)
	refOut := make([]sim.Config, lanes)
	burstLeft := make([]int, lanes)
	wasParked := make([]bool, lanes)
	evictions, readmissions := 0, 0
	for epoch := 0; epoch < epochs; epoch++ {
		if rng.Intn(150) == 0 {
			burstLeft[rng.Intn(lanes)] = 6
		}
		if rng.Intn(300) == 0 {
			j := rng.Intn(lanes)
			ips, pow := 0.5+rng.Float64()*3, 2+rng.Float64()*12
			if rng.Intn(6) == 0 {
				ips = math.NaN() // dropped silently by both paths
			}
			e.SetTargets(pairs[j].id, ips, pow)
			pairs[j].ref.SetTargets(ips, pow)
		}
		if rng.Intn(900) == 0 {
			j := rng.Intn(lanes)
			e.Reset(pairs[j].id)
			pairs[j].ref.Reset()
		}
		for j, p := range pairs {
			tel := supRandTelemetry(rng, epoch)
			// Deterministic stuck-sensor windows force dead-channel
			// fallbacks on every lane.
			if start := 500 + 130*j; epoch >= start && epoch < start+30 {
				tel.IPS = math.NaN()
			}
			telB, telR := tel, tel
			telB.Config, telR.Config = p.cfgB, p.cfgR
			tels[p.id] = telB
			refOut[j] = p.ref.Step(telR)
		}
		if err := e.StepAll(tels, outs); err != nil {
			t.Fatal(err)
		}
		for j, p := range pairs {
			if outs[p.id] != refOut[j] {
				t.Fatalf("epoch %d lane %d: batch cfg %+v != scalar %+v (parked=%v)",
					epoch, j, outs[p.id], refOut[j], e.Parked(p.id))
			}
			p.cfgB, p.cfgR = outs[p.id], refOut[j]
			var aerr error
			if burstLeft[j] > 0 {
				burstLeft[j]--
				aerr = errApplyInject
			}
			e.ObserveApply(p.id, p.cfgB, aerr)
			p.ref.ObserveApply(p.cfgR, aerr)
			if e.Parked(p.id) != wasParked[j] {
				if e.Parked(p.id) {
					evictions++
				} else {
					readmissions++
				}
				wasParked[j] = e.Parked(p.id)
			}
		}
		if (epoch+1)%300 == 0 {
			for j, p := range pairs {
				lane := fmt.Sprintf("epoch %d lane %d", epoch, j)
				e.Flush(p.id)
				requireSameSupState(t, lane, p.twin.BatchState(), p.ref.BatchState())
				requireSameRuntime(t, lane, p.innerB.BatchState(), p.innerR.BatchState())
				if gh, wh := e.Health(p.id), p.ref.Health(); gh != wh {
					t.Fatalf("%s: health %+v != scalar %+v", lane, gh, wh)
				}
				if e.Mode(p.id) != p.ref.Mode() {
					t.Fatalf("%s: mode %v != scalar %v", lane, e.Mode(p.id), p.ref.Mode())
				}
			}
		}
	}
	fallbacks, reengagements := 0, 0
	for _, p := range pairs {
		h := e.Health(p.id)
		fallbacks += h.Fallbacks
		reengagements += h.Reengagements
	}
	if fallbacks == 0 || reengagements == 0 || evictions == 0 || readmissions == 0 {
		t.Fatalf("differential run never exercised the escape hatch: fallbacks=%d reengagements=%d evictions=%d readmissions=%d",
			fallbacks, reengagements, evictions, readmissions)
	}
}

// TestBatchSupervisedEvictReadmitBitIdentical pins the escape hatch
// end to end on one lane: a stuck sensor evicts the lane mid-run to
// its scalar twin (fallback), recovery re-engages and re-admits it, and
// at every boundary — parked, readmission, and a long nominal stretch
// after — the supervised state (monitor EMAs, last-good sanitize
// values, staleness and hysteresis counters) replays bit-identically
// against an always-scalar supervised loop.
func TestBatchSupervisedEvictReadmitBitIdentical(t *testing.T) {
	base := designedController(t, true)
	innerB, innerR := base.Clone(), base.Clone()
	innerB.Reset()
	innerR.Reset()
	o := supervisor.Options{
		GraceEpochs:       20,
		FallbackAfter:     8,
		MaxStaleEpochs:    5,
		MinFallbackEpochs: 15,
		ReengageAfter:     10,
	}
	supB := supervisor.New(innerB, o)
	supR := supervisor.New(innerR, o)
	supB.SetTargets(2, 6)
	supR.SetTargets(2, 6)
	e, id, err := FromSupervised(supB)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cfgB, cfgR := sim.MidrangeConfig(), sim.MidrangeConfig()
	step := func(epoch int, nanIPS bool) {
		t.Helper()
		tel := sim.Telemetry{Epoch: epoch, IPS: 1.6 + rng.Float64()*0.8, PowerW: 5 + rng.Float64()*2}
		if nanIPS {
			tel.IPS = math.NaN()
		}
		telB, telR := tel, tel
		telB.Config, telR.Config = cfgB, cfgR
		gotB := e.StepLane(id, telB)
		gotR := supR.Step(telR)
		if gotB != gotR {
			t.Fatalf("epoch %d: batch cfg %+v != scalar %+v (parked=%v)", epoch, gotB, gotR, e.Parked(id))
		}
		cfgB, cfgR = gotB, gotR
		e.ObserveApply(id, gotB, nil)
		supR.ObserveApply(gotR, nil)
	}
	epoch := 0
	for ; epoch < 100; epoch++ {
		step(epoch, false)
	}
	if e.Parked(id) {
		t.Fatal("lane parked on healthy telemetry")
	}
	// Stuck IPS sensor: the channel goes stale past MaxStaleEpochs, the
	// dead-channel alarm runs the sick streak to FallbackAfter, and the
	// fallback entry must evict the lane mid-run.
	for ; epoch < 130; epoch++ {
		step(epoch, true)
	}
	if !e.Parked(id) {
		t.Fatal("stuck sensor did not evict the lane")
	}
	if supB.Mode() != supervisor.ModeFallback || supR.Mode() != supervisor.ModeFallback {
		t.Fatalf("modes after stuck sensor: twin %v scalar %v, want fallback", supB.Mode(), supR.Mode())
	}
	requireSameSupState(t, "parked", supB.BatchState(), supR.BatchState())
	requireSameRuntime(t, "parked", innerB.BatchState(), innerR.BatchState())
	// Healthy telemetry again: hysteretic re-engagement, then
	// re-admission to the fast path.
	for ; epoch < 400 && e.Parked(id); epoch++ {
		step(epoch, false)
	}
	if e.Parked(id) {
		t.Fatal("lane never re-admitted after recovery")
	}
	if e.Mode(id) != supervisor.ModeEngaged {
		t.Fatalf("mode after readmission: %v, want engaged", e.Mode(id))
	}
	e.Flush(id)
	requireSameSupState(t, "readmit", supB.BatchState(), supR.BatchState())
	requireSameRuntime(t, "readmit", innerB.BatchState(), innerR.BatchState())
	// A long nominal stretch on the fast path after re-admission.
	for ; epoch < 700; epoch++ {
		step(epoch, false)
	}
	e.Flush(id)
	requireSameSupState(t, "settled", supB.BatchState(), supR.BatchState())
	requireSameRuntime(t, "settled", innerB.BatchState(), innerR.BatchState())
	h := e.Health(id)
	if h.Fallbacks == 0 || h.Reengagements == 0 {
		t.Fatalf("escape hatch not exercised: %+v", h)
	}
	if rh := supR.Health(); h != rh {
		t.Fatalf("health %+v != scalar %+v", h, rh)
	}
}

// TestBatchShardedIdentical pins the bare-MIMO sharded driver: the same
// fleet stepped sequentially and with 1/2/3/4 shards (rotating every
// epoch) must produce byte-identical configurations and runtime state.
func TestBatchShardedIdentical(t *testing.T) {
	const n, epochs = 37, 600
	e1, _, tels1, out1 := fleetEngine(t, n)
	e2, _, tels2, out2 := fleetEngine(t, n)
	rng := rand.New(rand.NewSource(31))
	for epoch := 0; epoch < epochs; epoch++ {
		for j := 0; j < n; j++ {
			tel := randTelemetry(rng, epoch, tels1[j].Config)
			tels1[j], tels2[j] = tel, tel
		}
		if err := e1.StepAll(tels1, out1); err != nil {
			t.Fatal(err)
		}
		if err := e2.StepAllSharded(tels2, out2, 1+epoch%4); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if out1[j] != out2[j] {
				t.Fatalf("epoch %d (shards %d) lane %d: %+v != %+v", epoch, 1+epoch%4, j, out1[j], out2[j])
			}
			tels1[j].Config, tels2[j].Config = out1[j], out2[j]
		}
	}
	s1 := designedController(t, true).Clone()
	s2 := designedController(t, true).Clone()
	for j := 0; j < n; j++ {
		if err := e1.ExtractTo(j, s1); err != nil {
			t.Fatal(err)
		}
		if err := e2.ExtractTo(j, s2); err != nil {
			t.Fatal(err)
		}
		requireSameRuntime(t, fmt.Sprintf("lane %d", j), s2.BatchState(), s1.BatchState())
	}
}

// supShardFleet deterministically builds one supervised batch fleet for
// the sharded differential (two calls produce identical fleets).
func supShardFleet(t *testing.T, n int) (*SupEngine, []*supervisor.Supervised) {
	t.Helper()
	e := NewSupervised()
	rng := rand.New(rand.NewSource(13))
	sups := make([]*supervisor.Supervised, n)
	for j := 0; j < n; j++ {
		c := designedController(t, j%3 != 0).Clone()
		c.Reset()
		s := supervisor.New(c, supFleetOptions(j))
		s.SetTargets(0.8+rng.Float64()*2, 3+rng.Float64()*6)
		if _, err := e.Add(s); err != nil {
			t.Fatal(err)
		}
		sups[j] = s
	}
	return e, sups
}

// TestBatchSupervisedShardedIdentical pins the supervised sharded
// driver against the sequential one across eviction/readmission cycles:
// byte-identical configurations every epoch and byte-identical
// supervised state at the end, at every shard count 1–4.
func TestBatchSupervisedShardedIdentical(t *testing.T) {
	const n, epochs = 11, 1500
	seq, seqSups := supShardFleet(t, n)
	shd, shdSups := supShardFleet(t, n)
	rng := rand.New(rand.NewSource(21))
	telsA := make([]sim.Telemetry, n)
	telsB := make([]sim.Telemetry, n)
	outA := make([]sim.Config, n)
	outB := make([]sim.Config, n)
	cfgA := make([]sim.Config, n)
	cfgB := make([]sim.Config, n)
	for j := range cfgA {
		cfgA[j], cfgB[j] = sim.MidrangeConfig(), sim.MidrangeConfig()
	}
	for epoch := 0; epoch < epochs; epoch++ {
		for j := 0; j < n; j++ {
			tel := supRandTelemetry(rng, epoch)
			if start := 200 + 90*j; epoch >= start && epoch < start+25 {
				tel.PowerW = math.Inf(1)
			}
			telA, telB := tel, tel
			telA.Config, telB.Config = cfgA[j], cfgB[j]
			telsA[j], telsB[j] = telA, telB
		}
		if err := seq.StepAll(telsA, outA); err != nil {
			t.Fatal(err)
		}
		shards := 1 + epoch%4
		if err := shd.StepAllSharded(telsB, outB, shards); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if outA[j] != outB[j] {
				t.Fatalf("epoch %d (shards %d) lane %d: %+v != %+v", epoch, shards, j, outA[j], outB[j])
			}
			cfgA[j], cfgB[j] = outA[j], outB[j]
			var aerr error
			if epoch%211 < 6 && j == (epoch/211)%n {
				aerr = errApplyInject
			}
			seq.ObserveApply(j, outA[j], aerr)
			shd.ObserveApply(j, outB[j], aerr)
		}
	}
	for j := 0; j < n; j++ {
		seq.Flush(j)
		shd.Flush(j)
		lane := fmt.Sprintf("lane %d", j)
		requireSameSupState(t, lane, shdSups[j].BatchState(), seqSups[j].BatchState())
		if gh, wh := shd.Health(j), seq.Health(j); gh != wh {
			t.Fatalf("%s: health %+v != %+v", lane, gh, wh)
		}
	}
}

// supFleet builds n monitor-less supervised loops with targets pinned
// to each lane's operating point, so the tracking-error EMA settles near
// zero and no lane may leave the fast path however many epochs the
// alloc and timing gates run. Each loop is registered on fleet when it
// is non-nil. The same n always yields the same loops and telemetry.
func supFleet(tb testing.TB, n int, fleet *obs.Fleet) ([]*supervisor.Supervised, []sim.Telemetry) {
	tb.Helper()
	base := designedController(tb, true)
	rng := rand.New(rand.NewSource(17))
	tels := make([]sim.Telemetry, n)
	for i := range tels {
		tels[i] = sim.Telemetry{IPS: 1.5 + rng.Float64(), PowerW: 5 + rng.Float64()*2, Config: sim.MidrangeConfig()}
	}
	sups := make([]*supervisor.Supervised, n)
	for i := range sups {
		c := base.Clone()
		c.Reset()
		s := supervisor.New(c, supervisor.Options{GraceEpochs: 60})
		s.SetTargets(tels[i].IPS, tels[i].PowerW)
		if fleet != nil {
			s.SetLoopObs(fleet.Register(fmt.Sprintf("lane-%d", i)))
		}
		sups[i] = s
	}
	return sups, tels
}

// supAllocFleet builds an n-lane supervised fleet warmed past its grace
// period (so the alarm/EMA path is live) for the zero-alloc gates,
// optionally wired into a fleet observability plane with an event bus.
func supAllocFleet(tb testing.TB, n int, wireObs bool) (*SupEngine, []sim.Telemetry, []sim.Config, func()) {
	tb.Helper()
	cleanup := func() {}
	var fleet *obs.Fleet
	if wireObs {
		bus := obs.NewBus(4096)
		fleet = obs.NewFleet(obs.Options{Bus: bus})
		cleanup = func() { _ = bus.Close() }
	}
	sups, tels := supFleet(tb, n, fleet)
	e := NewSupervised()
	for _, s := range sups {
		if _, err := e.Add(s); err != nil {
			tb.Fatal(err)
		}
	}
	outs := make([]sim.Config, n)
	for w := 0; w < supWarmEpochs; w++ {
		if err := e.StepAll(tels, outs); err != nil {
			tb.Fatal(err)
		}
	}
	return e, tels, outs, cleanup
}

// supWarmEpochs steps a supervised fleet past its 60-epoch grace period.
const supWarmEpochs = 100

// TestBatchSupervisedStepZeroAlloc pins the supervised fast path at 0
// allocs per fleet epoch — with and without the fleet observability
// plane attached (per-epoch events included). This is where the batch
// tier beats even a "zero-alloc" scalar loop: the scalar engaged path
// allocates in LastInnovation every post-grace epoch, the fused kernel
// reads the innovation SoA in place.
func TestBatchSupervisedStepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		wired bool
	}{{"bare", false}, {"events", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e, tels, outs, cleanup := supAllocFleet(t, 64, tc.wired)
			defer cleanup()
			if avg := testing.AllocsPerRun(100, func() {
				if err := e.StepAll(tels, outs); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("supervised StepAll allocates %.1f objects per fleet epoch, want 0", avg)
			}
			if avg := testing.AllocsPerRun(100, func() {
				e.StepLane(0, tels[0])
			}); avg != 0 {
				t.Fatalf("supervised StepLane allocates %.1f objects per step, want 0", avg)
			}
			for i := 0; i < 64; i++ {
				if e.Parked(i) {
					t.Fatalf("lane %d left the fast path during the alloc run", i)
				}
			}
		})
	}
}

// captureSink collects every drained event for post-run comparison.
type captureSink struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (s *captureSink) WriteEvents(batch []obs.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evs = append(s.evs, batch...)
	return nil
}

// TestBatchSupervisedObsParity runs one batch-supervised lane and one
// always-scalar reference, each wired to its own fleet plane and event
// bus, through a nominal → fallback → re-engaged arc, and requires the
// two event streams to match field for field — including the sanitized
// measurements, innovation norms, mode/flag bits, and per-loop epochs —
// across the eviction and re-admission seams.
func TestBatchSupervisedObsParity(t *testing.T) {
	base := designedController(t, true)
	mkSide := func() (*supervisor.Supervised, *captureSink, *obs.Bus) {
		c := base.Clone()
		c.Reset()
		sink := &captureSink{}
		bus := obs.NewBus(2048, sink)
		fleet := obs.NewFleet(obs.Options{Bus: bus})
		s := supervisor.New(c, supervisor.Options{
			GraceEpochs:       15,
			FallbackAfter:     6,
			MaxStaleEpochs:    4,
			MinFallbackEpochs: 10,
			ReengageAfter:     8,
		})
		s.SetTargets(2, 6)
		s.SetLoopObs(fleet.Register("lane"))
		return s, sink, bus
	}
	supB, sinkB, busB := mkSide()
	supR, sinkR, busR := mkSide()
	e, id, err := FromSupervised(supB)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	cfgB, cfgR := sim.MidrangeConfig(), sim.MidrangeConfig()
	var tels [1]sim.Telemetry
	var outs [1]sim.Config
	sawParked := false
	for epoch := 0; epoch < 900; epoch++ {
		tel := sim.Telemetry{Epoch: epoch, IPS: 1.7 + rng.Float64()*0.6, PowerW: 5.5 + rng.Float64()}
		if epoch >= 300 && epoch < 330 {
			tel.IPS = math.Inf(1)
		}
		telB, telR := tel, tel
		telB.Config, telR.Config = cfgB, cfgR
		tels[0] = telB
		if err := e.StepAll(tels[:], outs[:]); err != nil {
			t.Fatal(err)
		}
		gotR := supR.Step(telR)
		if outs[0] != gotR {
			t.Fatalf("epoch %d: batch cfg %+v != scalar %+v", epoch, outs[0], gotR)
		}
		cfgB, cfgR = outs[0], gotR
		e.ObserveApply(id, cfgB, nil)
		supR.ObserveApply(cfgR, nil)
		sawParked = sawParked || e.Parked(id)
	}
	if !sawParked {
		t.Fatal("fault window never evicted the lane — parity run is vacuous")
	}
	if e.Parked(id) {
		t.Fatal("lane not re-admitted by end of run")
	}
	if err := busB.Close(); err != nil {
		t.Fatal(err)
	}
	if err := busR.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sinkB.evs) == 0 {
		t.Fatal("no events captured")
	}
	if len(sinkB.evs) != len(sinkR.evs) {
		t.Fatalf("event counts differ: batch %d, scalar %d", len(sinkB.evs), len(sinkR.evs))
	}
	for i := range sinkB.evs {
		a, b := sinkB.evs[i], sinkR.evs[i]
		af := []float64{a.IPSTarget, a.PowerTarget, a.IPS, a.PowerW, a.InnovNorm, a.Guardband}
		bf := []float64{b.IPSTarget, b.PowerTarget, b.IPS, b.PowerW, b.InnovNorm, b.Guardband}
		if !floatsIdentical(af, bf) {
			t.Fatalf("event %d: float fields %v != scalar %v", i, af, bf)
		}
		a.IPSTarget, a.PowerTarget, a.IPS, a.PowerW, a.InnovNorm, a.Guardband = 0, 0, 0, 0, 0, 0
		b.IPSTarget, b.PowerTarget, b.IPS, b.PowerW, b.InnovNorm, b.Guardband = 0, 0, 0, 0, 0, 0
		if a != b {
			t.Fatalf("event %d: %+v != scalar %+v", i, a, b)
		}
	}
}

// FuzzSupervisedBatchVsScalar drives one batch-supervised lane and an
// always-scalar reference through a fuzz-chosen schedule of telemetry
// (including raw-bit floats), target changes, apply failures, and
// resets, requiring Float64bits-identical configurations every epoch
// and identical full state at the end.
func FuzzSupervisedBatchVsScalar(f *testing.F) {
	f.Add([]byte{0}, int64(1))
	f.Add([]byte{5, 1, 2, 3, 4, 250, 9, 9, 9, 9, 17, 0, 0, 0, 0, 0, 0, 4, 1}, int64(42))
	f.Add(append(
		binary.LittleEndian.AppendUint64([]byte{2}, math.Float64bits(math.NaN())),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1)))...), int64(7))

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		base := designedController(t, seed%2 == 0)
		innerB, innerR := base.Clone(), base.Clone()
		innerB.Reset()
		innerR.Reset()
		o := supervisor.Options{
			GraceEpochs:        10,
			FallbackAfter:      5,
			MaxStaleEpochs:     3,
			MinFallbackEpochs:  8,
			ReengageAfter:      4,
			ApplyFallbackAfter: 3,
			DivergenceLimit:    0.3,
		}
		supB := supervisor.New(innerB, o)
		supR := supervisor.New(innerR, o)
		supB.SetTargets(2, 6)
		supR.SetTargets(2, 6)
		e, id, err := FromSupervised(supB)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		f64 := func(off int) float64 {
			var b [8]byte
			for i := 0; i < 8 && off+i < len(data); i++ {
				b[i] = data[off+i]
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		cfgB, cfgR := sim.MidrangeConfig(), sim.MidrangeConfig()
		epochs := 0
		for off := 0; off < len(data) && epochs < 256; off += 17 {
			op := data[off]
			a, b := f64(off+1), f64(off+9)
			var tel sim.Telemetry
			var aerr error
			switch op % 8 {
			case 0:
				tel.IPS, tel.PowerW = math.NaN(), rng.Float64()*20
			case 1:
				tel.IPS, tel.PowerW = rng.Float64()*4, math.Inf(1)
			case 2:
				tel.IPS, tel.PowerW = a, b // raw fuzz bit patterns
			case 3:
				e.SetTargets(id, a, b)
				supR.SetTargets(a, b)
				tel.IPS, tel.PowerW = rng.Float64()*4, rng.Float64()*10
			case 4:
				aerr = errApplyInject
				tel.IPS, tel.PowerW = rng.Float64()*4, rng.Float64()*10
			case 5:
				e.Reset(id)
				supR.Reset()
				tel.IPS, tel.PowerW = rng.Float64()*4, rng.Float64()*10
			case 6:
				tel.IPS, tel.PowerW = b, a
			default:
				tel.IPS, tel.PowerW = rng.Float64()*5, rng.Float64()*25
			}
			tel.Epoch = epochs
			telB, telR := tel, tel
			telB.Config, telR.Config = cfgB, cfgR
			gotB := e.StepLane(id, telB)
			gotR := supR.Step(telR)
			if gotB != gotR {
				t.Fatalf("epoch %d (op %d): batch cfg %+v != scalar %+v (parked=%v)",
					epochs, op%8, gotB, gotR, e.Parked(id))
			}
			cfgB, cfgR = gotB, gotR
			e.ObserveApply(id, gotB, aerr)
			supR.ObserveApply(gotR, aerr)
			epochs++
		}
		e.Flush(id)
		requireSameSupState(t, "fuzz final", supB.BatchState(), supR.BatchState())
		requireSameRuntime(t, "fuzz final", innerB.BatchState(), innerR.BatchState())
		if gh, wh := e.Health(id), supR.Health(); gh != wh {
			t.Fatalf("fuzz final: health %+v != scalar %+v", gh, wh)
		}
	})
}
