package batch

import (
	"math/rand"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/sim"
)

// fleetEngine builds an N-lane engine of warmed-up 3-input clones plus
// the telemetry/output slices StepAll consumes. The clones are returned
// too: the engine holds snapshots of them, so they step independently
// as the scalar twin of the fleet.
func fleetEngine(tb testing.TB, n int) (*Engine, []*core.MIMOController, []sim.Telemetry, []sim.Config) {
	tb.Helper()
	base := designedController(tb, true)
	rng := rand.New(rand.NewSource(3))
	ctrls := make([]*core.MIMOController, n)
	for i := range ctrls {
		c := base.Clone()
		c.Reset()
		c.SetTargets(1+rng.Float64()*3, 1+rng.Float64()*20)
		ctrls[i] = c
	}
	e, err := FromControllers(ctrls)
	if err != nil {
		tb.Fatal(err)
	}
	tels := make([]sim.Telemetry, n)
	for i := range tels {
		tels[i] = sim.Telemetry{
			IPS:    rng.Float64() * 5,
			PowerW: rng.Float64() * 25,
			Config: sim.MidrangeConfig(),
		}
	}
	return e, ctrls, tels, make([]sim.Config, n)
}

// TestBatchStepZeroAlloc pins the fused per-loop step at 0 allocs/op:
// stepping a whole fleet must not touch the heap (DESIGN.md §7 zero-alloc
// discipline, extended to the batch path).
func TestBatchStepZeroAlloc(t *testing.T) {
	e, _, tels, outs := fleetEngine(t, 64)
	if avg := testing.AllocsPerRun(100, func() {
		if err := e.StepAll(tels, outs); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("StepAll allocates %.1f objects per fleet step, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		e.StepLane(0, tels[0])
	}); avg != 0 {
		t.Fatalf("StepLane allocates %.1f objects per step, want 0", avg)
	}
}

// BenchmarkBatchStep measures the fused kernel's per-loop cost over a
// 1024-lane fleet. TestBatchStepZeroAlloc gates the same StepAll path at
// 0 allocs/op.
func BenchmarkBatchStep(b *testing.B) {
	e, _, tels, outs := fleetEngine(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.StepAll(tels, outs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerLane := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1024
	b.ReportMetric(nsPerLane, "ns/lanestep")
}

// BenchmarkBatchSupervisedStep measures the fused supervised kernel
// (sanitize → LQG step → monitor EMAs → quantize) per lane over a
// 1024-lane fleet warmed past its grace period.
// TestBatchSupervisedStepZeroAlloc gates the same StepAll path at
// 0 allocs/op.
func BenchmarkBatchSupervisedStep(b *testing.B) {
	e, tels, outs, cleanup := supAllocFleet(b, 1024, false)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.StepAll(tels, outs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerLane := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1024
	b.ReportMetric(nsPerLane, "ns/lanestep")
}
