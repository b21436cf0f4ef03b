package batch

// Paired A/B timing gates: the batch tiers' speedup over the scalar
// path, and what the telemetry-history recorder costs the fleet plane.
// Each gate runs its two sides in alternating pairs after a warm-up,
// takes the per-pair cost ratio base/contender, and fails only when a
// bootstrap 95% interval of the median ratio lies entirely below the
// bound. One noisy pair cannot fail a gate, and a regression past the
// bound cannot hide inside the spread.
//
//	go test ./internal/batch/ -run 'Speedup|HistoryRecorderOverhead' -count=1 -v

import (
	"math/rand"
	"sort"
	"syscall"
	"testing"
	"time"

	"mimoctl/internal/experiments"
	"mimoctl/internal/obs"
	"mimoctl/internal/runner"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/tsdb"
)

const (
	abWarmPairs  = 1
	abPairs      = 15
	abResamples  = 2000
	abLanes      = 1024
	abEpochsPerX = 16 // fleet epochs per timed sample
)

// requireTimingHost skips a timing gate under -short and under the race
// detector, whose instrumentation distorts both sides unevenly.
func requireTimingHost(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing gate skipped under -short")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
}

// cpuTime is the process's user+system CPU time. Cost is CPU rather
// than wall time so that other load on the host does not skew one side,
// and so work handed to another goroutine (the event-bus pump) is
// charged on any CPU count.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuCost returns the CPU time f takes.
func cpuCost(f func()) time.Duration {
	c0 := cpuTime()
	f()
	return cpuTime() - c0
}

// abGate runs base and contender in alternating pairs (the order flips
// every pair, so drift charges both sides alike) and fails t when the
// bootstrap 95% interval of the median cost ratio lies entirely below
// bound. shared is a cost both sides carry unchanged, measured once and
// added to each side of every pair.
func abGate(t *testing.T, bound float64, shared time.Duration, base, contender func()) {
	t.Helper()
	for i := 0; i < abWarmPairs; i++ {
		cpuCost(base)
		cpuCost(contender)
	}
	ratios := make([]float64, abPairs)
	for i := range ratios {
		var b, c time.Duration
		if i%2 == 0 {
			b = cpuCost(base)
			c = cpuCost(contender)
		} else {
			c = cpuCost(contender)
			b = cpuCost(base)
		}
		ratios[i] = float64(shared+b) / float64(shared+c)
	}

	rng := rand.New(rand.NewSource(1))
	meds := make([]float64, abResamples)
	sample := make([]float64, len(ratios))
	for r := range meds {
		for i := range sample {
			sample[i] = ratios[rng.Intn(len(ratios))]
		}
		meds[r] = median(sample)
	}
	sort.Float64s(meds)
	lo, hi := meds[abResamples*25/1000], meds[abResamples*975/1000-1]
	t.Logf("median ratio %.3f, 95%% CI [%.3f, %.3f] over %d pairs (bound %.2f)",
		median(ratios), lo, hi, abPairs, bound)
	if hi < bound {
		t.Fatalf("ratio interval [%.3f, %.3f] lies below the %.2f bound", lo, hi, bound)
	}
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// TestBatchStepSpeedup requires the fused kernel to step a 1024-loop
// fleet at least 3x faster than the same loops' scalar controllers, both
// on one goroutine.
func TestBatchStepSpeedup(t *testing.T) {
	requireTimingHost(t)
	e, ctrls, tels, outs := fleetEngine(t, abLanes)
	abGate(t, 3, 0, func() {
		for ep := 0; ep < abEpochsPerX; ep++ {
			for i, c := range ctrls {
				outs[i] = c.Step(tels[i])
			}
		}
	}, func() {
		for ep := 0; ep < abEpochsPerX; ep++ {
			if err := e.StepAll(tels, outs); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestBatchSupervisedStepSpeedup requires the fused supervised kernel to
// step a 1024-loop supervised fleet, warmed past its grace period, at
// least 2x faster than the scalar supervisors, both on one goroutine.
func TestBatchSupervisedStepSpeedup(t *testing.T) {
	requireTimingHost(t)
	e, tels, outs, cleanup := supAllocFleet(t, abLanes, false)
	defer cleanup()
	sups, _ := supFleet(t, abLanes, nil)
	for w := 0; w < supWarmEpochs; w++ {
		for i, s := range sups {
			outs[i] = s.Step(tels[i])
		}
	}
	abGate(t, 2, 0, func() {
		for ep := 0; ep < abEpochsPerX; ep++ {
			for i, s := range sups {
				outs[i] = s.Step(tels[i])
			}
		}
	}, func() {
		for ep := 0; ep < abEpochsPerX; ep++ {
			if err := e.StepAll(tels, outs); err != nil {
				t.Fatal(err)
			}
		}
	})
	for i := 0; i < abLanes; i++ {
		if e.Parked(i) {
			t.Fatalf("lane %d left the fast path during the gate", i)
		}
	}
}

// TestHistoryRecorderOverhead bounds what recording telemetry history
// adds to the golden-budget experiment suite run with the fleet plane
// attached: the detached/attached CPU ratio must stay at or above 0.90.
// The fault sweep is the only suite job that publishes events, so it is
// the only job the recorder can slow. It runs in the pairs, once with
// the bus draining into no sinks and once into a tsdb recorder; the
// other ten jobs are timed once and charged to both sides. The ring
// holds more than the sweep's 40k events, so the recorder ingests every
// one of them. Jobs run on one worker per CPU: CPU time does not depend
// on how they are scheduled, wall time does.
func TestHistoryRecorderOverhead(t *testing.T) {
	requireTimingHost(t)
	seed := int64(experiments.DefaultSeed)
	experiments.SetParallelism(runner.DefaultWorkers())
	defer experiments.SetParallelism(0)
	withPlane := func(history bool, run func() error) func() {
		return func() {
			var sinks []obs.Sink
			var fleet *obs.Fleet
			if history {
				db := tsdb.New(tsdb.Options{})
				sinks = append(sinks, tsdb.NewRecorder(db, func(id uint32) string { return fleet.LoopName(id) }))
			}
			bus := obs.NewBus(1<<16, sinks...)
			fleet = obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry(), Bus: bus})
			experiments.SetObservability(fleet)
			defer experiments.SetObservability(nil)
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if err := bus.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep := func() error {
		_, err := experiments.FaultSweep(seed, 1000)
		return err
	}
	rest := func() error {
		for _, run := range []func() error{
			func() error { _, err := experiments.Fig6(seed, 600); return err },
			func() error { _, err := experiments.Fig7(seed, 8); return err },
			func() error { _, err := experiments.Fig8(seed, 400); return err },
			func() error { _, err := experiments.Fig9(seed, 1500); return err },
			func() error { _, err := experiments.Fig10(seed, 1500); return err },
			func() error { _, err := experiments.Fig11(seed, 1200); return err },
			func() error { _, err := experiments.Fig12(seed, 2000, 250); return err },
			func() error { _, err := experiments.TableEDK(seed, 1200, 1); return err },
			func() error { _, err := experiments.TableEDK(seed, 1200, 3); return err },
			func() error { _, err := experiments.Ablation(seed, 800); return err },
		} {
			if err := run(); err != nil {
				return err
			}
		}
		return nil
	}
	// Resolve the cached designs and static baselines first, so the one
	// timed pass of the other jobs is warm.
	for _, k := range []int{1, 2, 3} {
		if _, err := experiments.BaselineFor(k, false, seed); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := experiments.BaselineFor(2, true, seed); err != nil {
		t.Fatal(err)
	}
	if _, _, err := experiments.DesignedMIMO(true, seed); err != nil {
		t.Fatal(err)
	}
	shared := cpuCost(withPlane(false, rest))
	t.Logf("other ten jobs: %v CPU", shared)
	abGate(t, 0.90, shared, withPlane(false, sweep), withPlane(true, sweep))
}
