package batch

import (
	"fmt"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/workloads"
)

// closedLoopEpochs is the per-class run length: the fault sweep's golden
// budget, so each class's fault window (epochs/4 .. 3*epochs/8) and
// recovery tail match what the sweep measures.
const closedLoopEpochs = 1000

// closedLoopLanes is the fleet size stepped per fault class.
const closedLoopLanes = 8

// newFaultedPlant builds one lane's plant: a simulated processor on w
// behind a fault injector armed with fc, seeded like the fault sweep.
func newFaultedPlant(t *testing.T, w sim.Workload, fc experiments.FaultClass, seed int64) *sim.FaultInjector {
	t.Helper()
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), seed)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(proc, seed+1)
	for _, sf := range fc.Sensor {
		inj.AddSensorFault(sf)
	}
	for _, af := range fc.Actuator {
		inj.AddActuatorFault(af)
	}
	for _, pf := range fc.Plant {
		inj.AddPlantFault(pf)
	}
	return inj
}

// TestBatchClosedLoopFaultClasses steps batch lanes against real plants.
// Each fault-sweep class is one row: a fleet of supervised lanes (the
// sweep's monitored MIMO architecture) drives fault-injected processors
// on distinct workloads through SupEngine.StepAll/ObserveApply, while an
// always-scalar supervised twin drives its own identically seeded plant.
// Because each side closes the loop through its own plant, one differing
// bit anywhere compounds into every later epoch. Configurations must be
// Float64bits-identical every epoch and the full supervised and inner
// state identical at the end. A final fault-free row steps a bare-MIMO
// Engine fleet on the same workloads.
//
// Vacuity gates: every class must spend at least one lane-epoch on the
// fused fast path, and across the classes some lane must be evicted to
// its scalar twin and re-admitted.
func TestBatchClosedLoopFaultClasses(t *testing.T) {
	ws := workloads.ProductionSet()[:closedLoopLanes]
	classes := experiments.FaultClasses(closedLoopEpochs)
	evictions, readmissions, ran := 0, 0, 0
	for _, fc := range classes {
		fc := fc
		t.Run(fc.Name, func(t *testing.T) {
			ev, re := supervisedClosedLoop(t, ws, fc)
			evictions += ev
			readmissions += re
			ran++
		})
	}
	t.Run("bare-mimo", func(t *testing.T) { bareClosedLoop(t, ws) })
	if ran == len(classes) && (evictions == 0 || readmissions == 0) {
		t.Fatalf("no fault class exercised the escape hatch: evictions=%d readmissions=%d", evictions, readmissions)
	}
}

// supervisedClosedLoop runs one fault class's supervised fleet against
// its scalar twins and returns the lanes' eviction and re-admission
// counts.
func supervisedClosedLoop(t *testing.T, ws []*workloads.Profile, fc experiments.FaultClass) (evictions, readmissions int) {
	const seed = experiments.DefaultSeed
	type lane struct {
		id            int
		twin, ref     *supervisor.Supervised
		plantB, plant *sim.FaultInjector
	}
	e := NewSupervised()
	lanes := make([]*lane, closedLoopLanes)
	for j, w := range ws {
		twin, err := experiments.NewMonitoredSupervised(seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := experiments.NewMonitoredSupervised(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*supervisor.Supervised{twin, ref} {
			s.Reset()
			s.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
		}
		id, err := e.Add(twin)
		if err != nil {
			t.Fatalf("admit lane %d: %v", j, err)
		}
		plantSeed := seed + 701 + int64(j)
		lanes[j] = &lane{
			id: id, twin: twin, ref: ref,
			plantB: newFaultedPlant(t, w, fc, plantSeed),
			plant:  newFaultedPlant(t, w, fc, plantSeed),
		}
	}

	tels := make([]sim.Telemetry, closedLoopLanes)
	refTels := make([]sim.Telemetry, closedLoopLanes)
	outs := make([]sim.Config, closedLoopLanes)
	for _, l := range lanes {
		tels[l.id] = l.plantB.Step()
		refTels[l.id] = l.plant.Step()
	}
	wasParked := make([]bool, closedLoopLanes)
	fastEpochs := 0
	for epoch := 0; epoch < closedLoopEpochs; epoch++ {
		if err := e.StepAll(tels, outs); err != nil {
			t.Fatal(err)
		}
		for j, l := range lanes {
			want := l.ref.Step(refTels[l.id])
			got := outs[l.id]
			if got != want {
				t.Fatalf("epoch %d lane %d (%s): batch cfg %+v != scalar %+v (parked=%v)",
					epoch, j, ws[j].Name(), got, want, e.Parked(l.id))
			}
			if !e.Parked(l.id) {
				fastEpochs++
			}
			e.ObserveApply(l.id, got, l.plantB.Apply(got))
			l.ref.ObserveApply(want, l.plant.Apply(want))
			if p := e.Parked(l.id); p != wasParked[j] {
				if p {
					evictions++
				} else {
					readmissions++
				}
				wasParked[j] = p
			}
			tels[l.id] = l.plantB.Step()
			refTels[l.id] = l.plant.Step()
		}
	}
	for j, l := range lanes {
		name := fmt.Sprintf("lane %d (%s)", j, ws[j].Name())
		e.Flush(l.id)
		requireSameSupState(t, name, l.twin.BatchState(), l.ref.BatchState())
		requireSameRuntime(t, name, l.twin.Inner().(*core.MIMOController).BatchState(),
			l.ref.Inner().(*core.MIMOController).BatchState())
		if got, want := e.Health(l.id), l.ref.Health(); got != want {
			t.Fatalf("%s: health %+v != scalar %+v", name, got, want)
		}
	}
	if fastEpochs == 0 {
		t.Fatal("no lane-epoch ran on the fast path; the class compared scalar against scalar")
	}
	t.Logf("%d/%d lane-epochs on the fast path, evictions=%d readmissions=%d",
		fastEpochs, closedLoopLanes*closedLoopEpochs, evictions, readmissions)
	return evictions, readmissions
}

// bareClosedLoop steps a fault-free bare-MIMO Engine fleet (alternating
// 2- and 3-input lanes), each lane shadowed by a scalar controller
// closing the loop through its own identically seeded processor.
// Configurations must match bit for bit every epoch and the extracted
// runtime state at the end.
func bareClosedLoop(t *testing.T, ws []*workloads.Profile) {
	const seed = experiments.DefaultSeed
	type lane struct {
		ref           *core.MIMOController
		plantB, plant *sim.Processor
	}
	lanes := make([]*lane, closedLoopLanes)
	ctrls := make([]*core.MIMOController, closedLoopLanes)
	for j, w := range ws {
		proto, _, err := experiments.DesignedMIMO(j%2 == 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		l := &lane{ref: proto.Clone()}
		ctrls[j] = proto.Clone()
		for _, c := range []*core.MIMOController{ctrls[j], l.ref} {
			c.Reset()
			c.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
		}
		plantSeed := seed + 1234 + int64(j)
		for _, p := range []**sim.Processor{&l.plantB, &l.plant} {
			if *p, err = sim.NewProcessor(w, sim.DefaultProcessorOptions(), plantSeed); err != nil {
				t.Fatal(err)
			}
		}
		lanes[j] = l
	}
	e, err := FromControllers(ctrls) // lane j holds ctrls[j]
	if err != nil {
		t.Fatal(err)
	}
	tels := make([]sim.Telemetry, closedLoopLanes)
	refTels := make([]sim.Telemetry, closedLoopLanes)
	outs := make([]sim.Config, closedLoopLanes)
	for j, l := range lanes {
		tels[j] = l.plantB.Step()
		refTels[j] = l.plant.Step()
	}
	for epoch := 0; epoch < closedLoopEpochs; epoch++ {
		if err := e.StepAll(tels, outs); err != nil {
			t.Fatal(err)
		}
		for j, l := range lanes {
			want := l.ref.Step(refTels[j])
			if outs[j] != want {
				t.Fatalf("epoch %d lane %d (%s): batch cfg %+v != scalar %+v", epoch, j, ws[j].Name(), outs[j], want)
			}
			if err := l.plantB.Apply(outs[j]); err != nil {
				t.Fatal(err)
			}
			if err := l.plant.Apply(want); err != nil {
				t.Fatal(err)
			}
			tels[j] = l.plantB.Step()
			refTels[j] = l.plant.Step()
		}
	}
	for j, l := range lanes {
		if err := e.ExtractTo(j, ctrls[j]); err != nil {
			t.Fatal(err)
		}
		requireSameRuntime(t, fmt.Sprintf("lane %d (%s)", j, ws[j].Name()), ctrls[j].BatchState(), l.ref.BatchState())
	}
}
