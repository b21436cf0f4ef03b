package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mimoctl/internal/core"
	"mimoctl/internal/decoupled"
	"mimoctl/internal/experiments"
)

// suiteWorkers is the experiment worker count: one per CPU of the 2-CPU
// reference host, so the suite never loads more threads than there are
// CPUs.
const suiteWorkers = 2

// suiteExp is one experiment at its golden budget, the same calls as the
// golden suite in internal/experiments.
type suiteExp struct {
	name string
	run  func(seed int64) (experiments.Tabular, error)
}

var suiteExps = []suiteExp{
	{"fig6", func(s int64) (experiments.Tabular, error) { return experiments.Fig6(s, 600) }},
	{"fig7", func(s int64) (experiments.Tabular, error) { return experiments.Fig7(s, 8) }},
	{"fig8", func(s int64) (experiments.Tabular, error) { return experiments.Fig8(s, 400) }},
	{"fig9", func(s int64) (experiments.Tabular, error) { return experiments.Fig9(s, 1500) }},
	{"fig10", func(s int64) (experiments.Tabular, error) { return experiments.Fig10(s, 1500) }},
	{"fig11", func(s int64) (experiments.Tabular, error) { return experiments.Fig11(s, 1200) }},
	{"fig12", func(s int64) (experiments.Tabular, error) { return experiments.Fig12(s, 2000, 250) }},
	{"ed1", func(s int64) (experiments.Tabular, error) { return experiments.TableEDK(s, 1200, 1) }},
	{"ed3", func(s int64) (experiments.Tabular, error) { return experiments.TableEDK(s, 1200, 3) }},
	{"ablation", func(s int64) (experiments.Tabular, error) { return experiments.Ablation(s, 800) }},
	{"faults", func(s int64) (experiments.Tabular, error) { return experiments.FaultSweep(s, 1000) }},
}

// goldenDir holds the committed CSVs at experiments.DefaultSeed.
const goldenDir = "internal/experiments/testdata/golden"

// designFlow is the design work every pass relies on: both MIMO designs,
// the decoupled pair and the static baselines. cached resolves them
// through the experiments cache (so passes reuse them); otherwise the
// same designs are computed afresh, which repeats the set-up cost. It
// returns the seconds spent per design step.
func designFlow(seed int64, cached bool, tr *tracer, parent int) (map[string]float64, error) {
	secs := map[string]float64{}
	step := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		tr.record(name, parent, t0, t1)
		secs[name] += t1.Sub(t0).Seconds()
		return err
	}
	for _, three := range []bool{false, true} {
		three := three
		err := step("core.design_mimo", func() error {
			if cached {
				_, _, err := experiments.DesignedMIMO(three, seed)
				return err
			}
			_, _, err := core.DesignMIMO(core.DesignSpec{
				ThreeInput: three,
				Training:   experiments.TrainingWorkloads(),
				Validation: experiments.ValidationWorkloads(),
				Seed:       seed,
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("MIMO design: %w", err)
		}
	}
	err := step("experiments.design_decoupled", func() error {
		if cached {
			_, err := experiments.DesignedDecoupled(seed)
			return err
		}
		_, err := decoupled.Design(decoupled.DesignSpec{Training: experiments.TrainingWorkloads(), Seed: seed})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("decoupled design: %w", err)
	}
	for _, b := range []struct {
		k     int
		three bool
	}{{1, false}, {2, false}, {3, false}, {2, true}} {
		b := b
		err := step("core.find_best_static", func() error {
			if cached {
				_, err := experiments.BaselineFor(b.k, b.three, seed)
				return err
			}
			_, _, err := core.FindBestStatic(experiments.TrainingWorkloads(), b.k, b.three, 300, seed)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("static baseline: %w", err)
		}
	}
	return secs, nil
}

// runSuite regenerates the paper's evaluation pass after pass with
// suiteWorkers experiment workers and checks every CSV: byte-equal to the
// goldens at the default seed, identical across passes at any other.
func runSuite(seed int64, share time.Duration, tr *tracer) (*outcome, error) {
	// Set-up: the first set-up warms the experiments' design cache and is
	// timed from process start; repeats compute the same designs afresh.
	n := setups
	if tr != nil {
		n = 1
	}
	var setupTimes []float64
	var design map[string]float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if i == 0 && tr == nil {
			start = processStart
		}
		root := tr.open("suite.setup", -1, start)
		var err error
		if design, err = designFlow(seed, i == 0, tr, root); err != nil {
			return nil, err
		}
		end := time.Now()
		tr.close(root, end)
		setupTimes = append(setupTimes, end.Sub(start).Seconds())
	}

	want := map[string][]byte{}
	if seed == experiments.DefaultSeed {
		for _, e := range suiteExps {
			b, err := os.ReadFile(filepath.Join(goldenDir, e.name+".csv"))
			if err != nil {
				return nil, fmt.Errorf("golden: %w", err)
			}
			want[e.name] = b
		}
	}

	experiments.SetParallelism(suiteWorkers)
	defer experiments.SetParallelism(0)

	out := &outcome{report: metrics{}, layers: metrics{}}
	var passCPU, tracedMS []float64
	expS := map[string][]float64{}
	var buf bytes.Buffer
	var wallSum, cpuSum float64
	mem0 := readMem()
	deadline := time.Now().Add(share)
	// At least two passes, so that a run compares passes with each other
	// even at seeds without goldens. A traced run alternates traced and
	// untraced passes. Each pass starts from a collected heap, as a user's
	// one-pass process does, so the collector's timing does not carry
	// from pass to pass.
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		ptr := tr
		if pass%2 == 0 {
			ptr = nil
		}
		runtime.GC()
		cpu0, t0 := cpuSeconds(), time.Now()
		root := ptr.open("suite.pass", -1, t0)
		for _, e := range suiteExps {
			out.attempted++
			e0 := time.Now()
			res, err := e.run(seed)
			if err == nil {
				buf.Reset()
				err = experiments.WriteCSV(&buf, res)
			}
			e1 := time.Now()
			ptr.record("experiments."+e.name, root, e0, e1)
			if ptr != nil {
				expS[e.name] = append(expS[e.name], e1.Sub(e0).Seconds())
			}
			switch {
			case err != nil:
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: suite %s: %v\n", e.name, err)
			case want[e.name] == nil:
				want[e.name] = append([]byte(nil), buf.Bytes()...)
			case !bytes.Equal(buf.Bytes(), want[e.name]):
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: suite %s: CSV differs from the reference\n", e.name)
			}
		}
		t1 := time.Now()
		cpu := cpuSeconds() - cpu0
		ptr.close(root, t1)
		wallSum += t1.Sub(t0).Seconds()
		cpuSum += cpu
		if ptr != nil {
			tracedMS = append(tracedMS, durMS(t1.Sub(t0)))
			continue
		}
		out.opMS = append(out.opMS, durMS(t1.Sub(t0)))
		passCPU = append(passCPU, cpu*1e3)
	}
	alloc, gcs, pause := runtimeMetrics(mem0, readMem())

	out.setupS = median(setupTimes)
	out.cpuMSPerOp = median(passCPU)
	r := out.report
	r.set("suite_s", median(out.opMS)/1e3, "s")
	r.set("suite_cpu_s", median(passCPU)/1e3, "s")
	r.set("passes", float64(len(out.opMS)), "count")
	r.set("error_ratio", float64(out.failed)/float64(out.attempted), "ratio")
	r.set("runtime.alloc_mb", alloc, "MB")
	r.set("runtime.gc_count", gcs, "count")
	r.set("runtime.gc_pause_ms", pause, "ms")
	if tr == nil {
		return out, nil
	}

	tr.count("experiments.runs", out.attempted)
	l := out.layers
	for _, e := range suiteExps {
		l.set("experiments."+e.name+"_s", median(expS[e.name]), "s")
	}
	l.set("core.design_mimo_s", design["core.design_mimo"], "s")
	l.set("core.find_best_static_s", design["core.find_best_static"], "s")
	l.set("experiments.design_decoupled_s", design["experiments.design_decoupled"], "s")
	l.set("runner.parallel_eff", cpuSum/(wallSum*suiteWorkers), "ratio")
	l.set("suite_s", median(out.opMS)/1e3, "s")
	l.set("suite_cpu_s", median(passCPU)/1e3, "s")
	l.set("error_ratio.suite", r["error_ratio"].Value, "ratio")
	l.set("trace.overhead_ratio.suite", median(tracedMS)/median(out.opMS), "ratio")
	l.set("runtime.alloc_mb.suite", alloc, "MB")
	l.set("runtime.gc_count.suite", gcs, "count")
	l.set("runtime.gc_pause_ms.suite", pause, "ms")
	return out, nil
}
