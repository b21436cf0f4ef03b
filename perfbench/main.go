// Command perfbench is the repository benchmark: it drives the paper's
// evaluation suite, a paced 1024-loop supervised fleet with telemetry
// history, and /history reads against a prefilled store, checks their
// outputs, and prints one JSON result line. See README.md for the metric
// definitions and the layer each metric belongs to.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload suite|fleet|history-read --seed N --seconds S --trace 0|1
//
// With --trace 0 the named workload runs untraced and the result carries
// the end-to-end metrics. With --trace 1 every workload runs in turn with
// spans recorded around the calls into each layer, and the result carries
// the per-layer metrics; the spans are written under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Named seeds. defaultSeed is the experiment seed the committed goldens
// and fleet digests were produced with; heldOutSeed was not used while
// the benchmark was tuned and is kept for confirming claims.
const (
	defaultSeed = 2016
	heldOutSeed = 7
)

// setups is how many times an untraced run repeats its set-up; setup_s is
// the median, so one slow start does not decide it.
const setups = 3

// traceDir receives the span dump of a traced run.
const traceDir = ".bench_build"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// outcome is what one workload run produces.
type outcome struct {
	attempted, failed int64
	setupS            float64   // median set-up time
	opMS              []float64 // latency of each untraced unit of work
	cpuMSPerOp        float64
	// report holds the workload's own named metrics (the untraced view a
	// user reads); layers holds the per-layer metrics of a traced run.
	report, layers metrics
}

// workload names a workload and the function that runs it. tr is nil for
// an untraced run; share is the measured time.
type workload struct {
	name string
	run  func(seed int64, share time.Duration, tr *tracer) (*outcome, error)
}

var benchWorkloads = []workload{
	{"suite", runSuite},
	{"fleet", runFleet},
	{"history-read", runHistoryRead},
}

func main() {
	name := flag.String("workload", "", "workload: suite, fleet or history-read")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int) error {
	if seconds <= 0 || math.IsNaN(seconds) {
		return fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if _, err := os.Stat("internal/experiments/testdata/golden"); err != nil {
		return fmt.Errorf("run from the root of a mimoctl checkout: %w", err)
	}
	share := time.Duration(seconds * float64(time.Second))
	for _, w := range benchWorkloads {
		if w.name != name {
			continue
		}
		if trace == 0 {
			return runUntraced(w, seed, share)
		}
		return runTraced(w, seed, share)
	}
	return fmt.Errorf("unknown --workload %q", name)
}

func runUntraced(w workload, seed int64, share time.Duration) error {
	out, err := w.run(seed, share, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	out.report.set("rss_peak_mb", peakRSSMB(), "MB")
	out.report.set("setup_s", out.setupS, "s")
	printReport(w.name, seed, out.report)

	m := metrics{}
	m.set("setup_s", out.setupS, "s")
	m.set("latency_p50_ms", median(out.opMS), "ms")
	m.set("cpu_ms_per_op", out.cpuMSPerOp, "ms")
	m.set("rss_peak_mb", peakRSSMB(), "MB")
	return printResult(out.attempted, out.failed, m)
}

// runTraced drives every workload with spans on, each for a third of the
// measured time, so one traced run yields every per-layer metric. The
// named workload runs first.
func runTraced(first workload, seed int64, total time.Duration) error {
	tr := newTracer()
	share := total / time.Duration(len(benchWorkloads))
	order := []workload{first}
	for _, w := range benchWorkloads {
		if w.name != first.name {
			order = append(order, w)
		}
	}
	all := metrics{}
	var attempted, failed int64
	for _, w := range order {
		out, err := w.run(seed, share, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(w.name, seed, out.report)
		for k, v := range out.layers {
			all[k] = v
		}
		attempted += out.attempted
		failed += out.failed
		releaseMemory()
	}
	probe, err := runProbe(seed, tr)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	for k, v := range probe {
		all[k] = v
	}
	self, err := tr.write(traceDir, fmt.Sprintf("perfbench-trace-%s-%d.json", first.name, seed))
	if err != nil {
		return err
	}
	printSelfTimes(self)
	return printResult(attempted, failed, all)
}

// releaseMemory returns a finished workload's heap to the OS so the next
// one starts from the same footprint.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// printReport writes the workload's named metrics as one JSON line, ahead
// of the result line.
func printReport(name string, seed int64, m metrics) {
	b, err := json.Marshal(struct {
		Report string  `json:"report"`
		Seed   int64   `json:"seed"`
		M      metrics `json:"metrics"`
	}{name, seed, finite(m)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Println(string(b))
}

func printSelfTimes(self []selfStat) {
	var sb strings.Builder
	sb.WriteString("# self time per span (count, total ms, self ms):\n")
	for _, s := range self {
		fmt.Fprintf(&sb, "#   %-32s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	fmt.Print(sb.String())
}

// printResult writes the final result line. correct means every checked
// output matched and no operation failed.
func printResult(attempted, failed int64, m metrics) error {
	if attempted < 1 {
		return fmt.Errorf("no operation ran")
	}
	b, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{failed == 0, attempted, failed, finite(m)})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// finite replaces values JSON cannot carry (a percentile of no samples)
// by -1, which no measured quantity takes.
func finite(m metrics) metrics {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[k] = metric{-1, v.Unit}
		}
	}
	return m
}

// durMS converts a duration to float milliseconds.
func durMS(d time.Duration) float64 { return float64(d) / 1e6 }
