package sim_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/workloads"
)

// The reference plant: the interval and power models as they were
// before their transcendental factors were tabled, kept verbatim
// (constants copied, package identifiers qualified). The tabled path
// must reproduce them bit for bit.

const (
	refIssueWidth          = 3.0
	refDefaultROBDemand    = 30.0
	refL2HitLatencyCycles  = 18.0
	refL2OverlapFactor     = 0.55
	refMemLatencyNS        = 96.0
	refBranchPenaltyCycles = 14.0
	refMLPROBRef           = 128.0

	refVNom          = 1.0
	refEpiCoreNJ     = 0.36
	refEpiROBNJ      = 0.22
	refEL1AccessNJ   = 0.05
	refEL2AccessNJ   = 0.35
	refEMemAccessNJ  = 1.8
	refLeakCoreW     = 0.20
	refLeakL1PerWayW = 0.014
	refLeakL2PerWayW = 0.034
	refLeakROBPer16W = 0.012
	refClockPowerW   = 0.11
	refLeakTempCoeff = 0.012
	refLeakTempRefC  = 45.0
)

func missCurveRef(m1, alpha, floor float64, ways int) float64 {
	if ways < 1 {
		ways = 1
	}
	v := floor + (m1-floor)*math.Pow(float64(ways), -alpha)
	if v < floor {
		v = floor
	}
	if v < 0 {
		v = 0
	}
	return v
}

func evalPerfRef(p sim.PhaseParams, cfg sim.Config, warmL1, warmL2, dvfsStallFrac float64) sim.PerfResult {
	f := cfg.FreqGHz()
	rob := float64(cfg.ROBEntries())

	// ILP exposed by the instruction window, at this workload's demand.
	demand := p.ROBDemand
	if demand <= 0 {
		demand = refDefaultROBDemand
	}
	ilpEff := p.ILP * (1 - math.Exp(-rob/demand))
	ipcCore := math.Min(refIssueWidth, ilpEff)
	if ipcCore < 0.05 {
		ipcCore = 0.05
	}
	cpiBase := 1 / ipcCore

	// Miss traffic with resize warm-up transients. L2 misses cannot
	// exceed L1 misses (inclusive hierarchy).
	l1mpki := missCurveRef(p.L1M1, p.L1Alpha, p.L1Floor, cfg.L1Ways()) + warmL1
	l2mpki := missCurveRef(p.L2M1, p.L2Alpha, p.L2Floor, cfg.L2Ways()) + warmL2
	if l2mpki > l1mpki {
		l2mpki = l1mpki
	}

	// Stall components per instruction.
	cpiL1 := l1mpki / 1000 * refL2HitLatencyCycles * refL2OverlapFactor
	memCycles := refMemLatencyNS * f // ns × GHz = cycles
	// Memory-level parallelism grows with the window on the same
	// per-workload demand scale, normalized so the full ROB achieves
	// MLPMax.
	mlpFrac := (1 - math.Exp(-rob/demand)) / (1 - math.Exp(-refMLPROBRef/demand))
	mlp := 1 + (p.MLPMax-1)*mlpFrac
	if mlp < 1 {
		mlp = 1
	}
	cpiL2 := l2mpki / 1000 * memCycles / mlp
	cpiBr := p.BranchMPKI / 1000 * refBranchPenaltyCycles

	cpi := cpiBase + cpiL1 + cpiL2 + cpiBr
	ipc := 1 / cpi

	if dvfsStallFrac < 0 {
		dvfsStallFrac = 0
	}
	if dvfsStallFrac > 1 {
		dvfsStallFrac = 1
	}
	activeSeconds := sim.EpochSeconds * (1 - dvfsStallFrac)
	instr := ipc * f * 1e9 * activeSeconds
	bips := instr / sim.EpochSeconds / 1e9

	return sim.PerfResult{
		IPC: ipc, BIPS: bips, Instructions: instr,
		CPIBase: cpiBase, CPIL1: cpiL1, CPIL2: cpiL2, CPIBranch: cpiBr,
		L1MPKI: l1mpki, L2MPKI: l2mpki,
	}
}

func evalPowerRef(p sim.PhaseParams, cfg sim.Config, perf sim.PerfResult, tempC, activity float64) sim.PowerResult {
	f := cfg.FreqGHz()
	v := sim.Voltage(f)
	vScale := (v / refVNom) * (v / refVNom)

	// Instruction throughput in G instr/s; nJ/instr × Ginstr/s = W.
	gips := perf.BIPS

	robFrac := float64(cfg.ROBEntries()) / 128.0
	epi := refEpiCoreNJ + refEpiROBNJ*math.Pow(robFrac, 0.7)
	dynCore := epi * vScale * activity * gips

	// Cache dynamic power: accesses per second × energy per access.
	// Access energy grows with enabled ways (more comparators/arrays).
	l1AccPerKI := p.MemPKI
	l2AccPerKI := perf.L1MPKI
	memAccPerKI := perf.L2MPKI
	eL1 := refEL1AccessNJ * (0.6 + 0.4*float64(cfg.L1Ways())/4.0)
	eL2 := refEL2AccessNJ * (0.5 + 0.5*float64(cfg.L2Ways())/8.0)
	dynCache := vScale * activity * gips / 1000 *
		(l1AccPerKI*eL1 + l2AccPerKI*eL2 + memAccPerKI*refEMemAccessNJ)

	dynamic := dynCore + dynCache

	// Leakage: powered structures × voltage × thermal factor.
	thermal := 1 + refLeakTempCoeff*(tempC-refLeakTempRefC)
	if thermal < 0.5 {
		thermal = 0.5
	}
	leak := (refLeakCoreW +
		refLeakL1PerWayW*float64(cfg.L1Ways()) +
		refLeakL2PerWayW*float64(cfg.L2Ways()) +
		refLeakROBPer16W*float64(cfg.ROBEntries())/16.0) * (v / refVNom) * thermal

	clock := refClockPowerW * f * vScale

	total := dynamic + leak + clock
	return sim.PowerResult{
		TotalW: total, DynamicW: dynamic, LeakageW: leak, ClockW: clock,
		EnergyJ: total * sim.EpochSeconds,
	}
}

// allConfigs lists every knob setting.
func allConfigs() []sim.Config {
	var out []sim.Config
	for fi := range sim.FreqSettingsGHz {
		for ci := range sim.CacheSettings {
			for ri := range sim.ROBSettings {
				out = append(out, sim.Config{FreqIdx: fi, CacheIdx: ci, ROBIdx: ri})
			}
		}
	}
	return out
}

// sameBits reports the first float64 field of two result structs whose
// bits differ.
func sameBits(got, want any) (field string, g, w float64, ok bool) {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i).Float(), wv.Field(i).Float()
		if math.Float64bits(g) != math.Float64bits(w) {
			return gv.Type().Field(i).Name, g, w, false
		}
	}
	return "", 0, 0, true
}

// checkEval evaluates one epoch on the tabled path and through the
// exported functions and compares every result field, bit for bit,
// with the reference.
func checkEval(t testing.TB, tab *sim.PlantTables, p sim.PhaseParams, cfg sim.Config, warmL1, warmL2, stall, tempC float64) {
	t.Helper()
	wantPerf := evalPerfRef(p, cfg, warmL1, warmL2, stall)
	wantPow := evalPowerRef(p, cfg, wantPerf, tempC, p.Activity)
	gotPerf, gotPow := tab.Eval(p, cfg, warmL1, warmL2, stall, tempC)
	exPerf := sim.EvalPerf(p, cfg, warmL1, warmL2, stall)
	exPow := sim.EvalPower(p, cfg, exPerf, tempC, p.Activity)
	for _, c := range []struct {
		path      string
		got, want any
	}{
		{"tabled perf", gotPerf, wantPerf},
		{"tabled power", gotPow, wantPow},
		{"EvalPerf", exPerf, wantPerf},
		{"EvalPower", exPow, wantPow},
	} {
		if f, g, w, ok := sameBits(c.got, c.want); !ok {
			t.Fatalf("%s.%s = %v (%#016x), reference %v (%#016x)\nparams %+v cfg %v warm %v/%v stall %v temp %v",
				c.path, f, g, math.Float64bits(g), w, math.Float64bits(w), p, cfg, warmL1, warmL2, stall, tempC)
		}
	}
}

// checkMissCurves compares the exported miss-curve methods with the
// reference at way counts inside and outside the knob range.
func checkMissCurves(t testing.TB, p sim.PhaseParams) {
	t.Helper()
	for ways := -1; ways <= 9; ways++ {
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"L1MPKI", p.L1MPKI(ways), missCurveRef(p.L1M1, p.L1Alpha, p.L1Floor, ways)},
			{"L2MPKI", p.L2MPKI(ways), missCurveRef(p.L2M1, p.L2Alpha, p.L2Floor, ways)},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("%s(%d) = %v, reference %v (params %+v)", c.name, ways, c.got, c.want, p)
			}
		}
	}
}

// profilePhases lists the parameters of every phase of every workload
// profile.
func profilePhases() []sim.PhaseParams {
	var out []sim.PhaseParams
	for _, prof := range workloads.All() {
		for _, ph := range prof.Phases() {
			out = append(out, ph.Params)
		}
	}
	return out
}

// edgePhases are hand-made phases on the edges of the table key:
// default and negative window demand, the trace mode's zero exponents,
// signed zeros and non-finite demand and exponents.
func edgePhases() []sim.PhaseParams {
	base, _ := workloads.All()[0].Params(0)
	inf := math.Inf(1)
	var out []sim.PhaseParams
	for _, d := range []float64{0, math.Copysign(0, -1), -5, -inf, inf, math.NaN(), 1e-300, 128} {
		p := base
		p.ROBDemand = d
		out = append(out, p)
	}
	for _, a := range []float64{0, math.Copysign(0, -1), -0.4, inf, -inf, math.NaN(), 3.5} {
		p := base
		p.L1Alpha = a
		out = append(out, p)
		q := base
		q.L2Alpha = a
		out = append(out, q)
	}
	trace := base
	trace.L1M1, trace.L1Alpha, trace.L1Floor = 12.5, 0, 12.5
	trace.L2M1, trace.L2Alpha, trace.L2Floor = 3.25, 0, 3.25
	return append(out, trace)
}

// TestPlantMatchesReference proves the tabled plant bit-identical to the
// reference model on every knob setting, every profile phase and the
// edge phases, with the tables refreshed both rarely (phase-major
// order) and on nearly every call (config-major order).
func TestPlantMatchesReference(t *testing.T) {
	phases := append(profilePhases(), edgePhases()...)
	configs := allConfigs()
	rng := rand.New(rand.NewSource(18))
	draw := func() (warmL1, warmL2, stall, tempC float64) {
		warmL1, warmL2 = 30*rng.Float64(), 12*rng.Float64()
		if rng.Intn(4) == 0 {
			warmL1, warmL2 = 0, 0
		}
		if rng.Intn(3) == 0 {
			stall = 0.1
		}
		return warmL1, warmL2, stall, 40 + 60*rng.Float64()
	}

	t.Run("phase-major", func(t *testing.T) {
		var tab sim.PlantTables
		for _, p := range phases {
			checkMissCurves(t, p)
			for _, cfg := range configs {
				w1, w2, st, temp := draw()
				checkEval(t, &tab, p, cfg, w1, w2, st, temp)
			}
		}
	})
	t.Run("config-major", func(t *testing.T) {
		var tab sim.PlantTables
		for _, cfg := range configs {
			for _, p := range phases {
				w1, w2, st, temp := draw()
				checkEval(t, &tab, p, cfg, w1, w2, st, temp)
			}
		}
	})
	t.Run("scaled-params", func(t *testing.T) {
		// The AR(1) multiplier scales ILP, MemPKI and Activity; out of
		// range draws (negative stall, stall > 1) hit the clamps.
		var tab sim.PlantTables
		for i := 0; i < 20000; i++ {
			p := phases[rng.Intn(len(phases))]
			m := math.Exp(0.5 * rng.NormFloat64())
			p.ILP *= m
			p.MemPKI *= m
			p.Activity *= m
			cfg := configs[rng.Intn(len(configs))]
			w1, w2, _, temp := draw()
			checkEval(t, &tab, p, cfg, w1, w2, 1.5*rng.Float64()-0.25, temp)
		}
	})
	t.Run("processor-run", testProcessorMatchesReference)
}

// alternatingWorkload switches phase every few epochs between phases
// that differ in window demand and miss-curve exponents, so a Processor
// refreshes its tables in the middle of a run. Its phase ID changes on
// every other switch only, so one ID stands for several parameter sets,
// as with a workload whose phase detector is coarser than its
// parameters.
type alternatingWorkload struct {
	phases []sim.PhaseParams
	every  int
}

func (w *alternatingWorkload) Name() string { return "alternating" }

func (w *alternatingWorkload) Params(epoch int) (sim.PhaseParams, int) {
	i := (epoch / w.every) % len(w.phases)
	return w.phases[i], i / 2 % 2
}

// testProcessorMatchesReference steps a noisy Processor on an
// alternating workload with random actuation and replays every epoch
// through the reference model: the AR(1) fluctuation and the sensor
// noise from a replica of its random stream, the dynamic state read
// back before each step.
func testProcessorMatchesReference(t *testing.T) {
	base, _ := workloads.All()[0].Params(0)
	var phases []sim.PhaseParams
	for _, d := range []float64{0, 20, -1, 90} {
		for _, a := range [][2]float64{{0.4, 0.9}, {0, 0}, {1.3, 0.2}} {
			p := base
			p.ROBDemand = d
			p.L1Alpha, p.L2Alpha = a[0], a[1]
			phases = append(phases, p)
		}
	}
	w := &alternatingWorkload{phases: phases, every: 3}
	const seed = 77
	opts := sim.DefaultProcessorOptions()
	proc, err := sim.NewProcessor(w, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	noise := rand.New(rand.NewSource(seed))
	actuate := rand.New(rand.NewSource(5))
	configs := allConfigs()
	arState := 0.0
	for epoch := 0; epoch < 2000; epoch++ {
		if actuate.Intn(4) == 0 {
			if err := proc.Apply(configs[actuate.Intn(len(configs))]); err != nil {
				t.Fatal(err)
			}
		}
		tempC, warmL1, warmL2, dvfsStall := proc.PlantState()
		cfg := proc.Config()
		params, phaseID := w.Params(epoch)

		rho := opts.PhaseNoiseRho
		arState = rho*arState + opts.PhaseNoiseStd*math.Sqrt(1-rho*rho)*noise.NormFloat64()
		mult := math.Exp(arState)
		params.ILP *= mult
		params.MemPKI *= mult
		params.Activity *= mult
		stall := 0.0
		if dvfsStall {
			stall = sim.DVFSTransitionSeconds / sim.EpochSeconds
		}
		perf := evalPerfRef(params, cfg, warmL1, warmL2, stall)
		pw := evalPowerRef(params, cfg, perf, tempC, params.Activity)
		ips := perf.BIPS * (1 + opts.Sensor.IPSStd*noise.NormFloat64())
		power := pw.TotalW * (1 + opts.Sensor.PowerStd*noise.NormFloat64())
		if ips < 0 {
			ips = 0
		}
		if power < 0 {
			power = 0
		}

		got := proc.Step()
		want := sim.Telemetry{
			Epoch: epoch, IPS: ips, PowerW: power,
			TrueIPS: perf.BIPS, TruePowerW: pw.TotalW,
			TempC:        sim.StepTemperature(tempC, pw.TotalW),
			Instructions: perf.Instructions, EnergyJ: pw.EnergyJ,
			L1MPKI: perf.L1MPKI, L2MPKI: perf.L2MPKI,
			PhaseID: phaseID, Config: cfg,
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d (phase %d, %v):\n got %+v\nwant %+v", epoch, phaseID, cfg, got, want)
		}
	}
}

// FuzzPlantMatchesReference drives the tabled plant and the exported
// model functions with arbitrary phase parameters, knob settings and
// dynamic state, on tables last filled for a profile phase, and
// compares every field with the reference.
func FuzzPlantMatchesReference(f *testing.F) {
	for i, p := range append(profilePhases()[:4], edgePhases()...) {
		f.Add(p.ILP, p.MemPKI, p.L1M1, p.L1Alpha, p.L1Floor, p.L2M1, p.L2Alpha, p.L2Floor,
			p.BranchMPKI, p.MLPMax, p.ROBDemand, p.Activity, uint16(i*37), 4.0, 1.0, 0.1, 60.0)
	}
	primer, _ := workloads.All()[0].Params(0)
	configs := allConfigs()
	f.Fuzz(func(t *testing.T, ilp, memPKI, l1m1, l1a, l1fl, l2m1, l2a, l2fl, br, mlp, demand, act float64,
		cfgIdx uint16, warmL1, warmL2, stall, tempC float64) {
		p := sim.PhaseParams{
			ILP: ilp, MemPKI: memPKI,
			L1M1: l1m1, L1Alpha: l1a, L1Floor: l1fl,
			L2M1: l2m1, L2Alpha: l2a, L2Floor: l2fl,
			BranchMPKI: br, MLPMax: mlp, ROBDemand: demand, Activity: act,
		}
		cfg := configs[int(cfgIdx)%len(configs)]
		var tab sim.PlantTables
		tab.Eval(primer, cfg, 0, 0, 0, 50)
		checkMissCurves(t, p)
		checkEval(t, &tab, p, cfg, warmL1, warmL2, stall, tempC)
		// A second call reuses the tables filled for p.
		checkEval(t, &tab, p, cfg, warmL1, warmL2, stall, tempC)
	})
}

// TestProcessorStepZeroAlloc pins the plant epoch at zero heap
// allocations, uninstrumented and with a telemetry binding (whose
// sampled epochs time the step and update gauges).
func TestProcessorStepZeroAlloc(t *testing.T) {
	prof, err := workloads.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []bool{false, true} {
		name := "detached"
		if bound {
			name = "telemetry"
			sim.SetTelemetry(telemetry.NewRegistry())
		}
		proc, err := sim.NewProcessor(prof, sim.DefaultProcessorOptions(), 3)
		sim.SetTelemetry(nil)
		if err != nil {
			t.Fatal(err)
		}
		proc.Advance(128) // first sampled epochs and table fill
		if avg := testing.AllocsPerRun(200, func() { proc.Step() }); avg != 0 {
			t.Errorf("%s: Step allocates %.2f objects per epoch", name, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { proc.Advance(64) }); avg != 0 {
			t.Errorf("%s: Advance(64) allocates %.2f objects per call", name, avg)
		}
	}
}
