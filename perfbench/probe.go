package main

import (
	"fmt"
	"time"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/workloads"
)

// probeEpochs is how many closed-loop epochs the probe runs per profile
// and controller.
const probeEpochs = 150

// runProbe drives its own closed loop of every controller family over
// every workload profile and times each call into the plant and the
// controller, for the per-layer step costs of a traced run.
func runProbe(seed int64, tr *tracer) (metrics, error) {
	mimo, _, err := experiments.DesignedMIMO(false, seed)
	if err != nil {
		return nil, err
	}
	dec, err := experiments.DesignedDecoupled(seed)
	if err != nil {
		return nil, err
	}
	families := []struct {
		layer string
		make  func() core.ArchController
	}{
		{"core", func() core.ArchController { return mimo.Clone() }},
		{"supervisor", func() core.ArchController { return supervisor.New(mimo.Clone(), supervisor.Options{}) }},
		{"heuristic", func() core.ArchController { return experiments.NewHeuristicTracker(false) }},
		{"decoupled", func() core.ArchController { return dec.Clone() }},
	}
	var stepNS, applyNS []float64
	ctrlNS := map[string][]float64{}
	var mimoPlantNS, mimoCtrlNS float64
	for i, p := range workloads.All() {
		for _, fam := range families {
			proc, err := sim.NewProcessor(p, sim.DefaultProcessorOptions(), seed+int64(i))
			if err != nil {
				return nil, err
			}
			ctrl := fam.make()
			ctrl.Reset()
			ctrl.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
			for k := 0; k < probeEpochs; k++ {
				t0 := time.Now()
				tel := proc.Step()
				t1 := time.Now()
				cfg := ctrl.Step(tel)
				t2 := time.Now()
				err := proc.Apply(cfg)
				t3 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("%s on %s: apply: %w", fam.layer, p.Name(), err)
				}
				tr.record("sim.step", -1, t0, t1)
				tr.record(fam.layer+".step", -1, t1, t2)
				tr.record("sim.apply", -1, t2, t3)
				s, c, a := float64(t1.Sub(t0)), float64(t2.Sub(t1)), float64(t3.Sub(t2))
				stepNS = append(stepNS, s)
				applyNS = append(applyNS, a)
				ctrlNS[fam.layer] = append(ctrlNS[fam.layer], c)
				if fam.layer == "core" {
					mimoPlantNS += s + a
					mimoCtrlNS += c
				}
			}
		}
	}
	tr.count("probe.epochs", int64(len(stepNS)))
	m := metrics{}
	m.set("sim.step_ns", median(stepNS), "ns")
	m.set("sim.apply_ns", median(applyNS), "ns")
	for _, fam := range families {
		m.set(fam.layer+".step_ns", median(ctrlNS[fam.layer]), "ns")
	}
	m.set("sim.share", mimoPlantNS/(mimoPlantNS+mimoCtrlNS), "ratio")
	return m, nil
}
