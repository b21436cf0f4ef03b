package sim

import "math"

// First-order interval model of the out-of-order core (after Karkhanis &
// Smith, "A First-Order Superscalar Processor Model", ISCA 2004): the
// core sustains its ILP-limited issue rate except where miss events
// insert stall intervals. The paper's cycle-level ESESC model is
// replaced by this analytic model evaluated per 50 µs epoch; see
// DESIGN.md for the substitution argument.

// Microarchitectural constants of the modeled Cortex-A15-like core
// (paper Table III: 3-issue out of order, 64 B lines, L2 18 cycles,
// memory 125 cycles at the 1.3 GHz baseline ≈ 96 ns).
const (
	issueWidth = 3.0
	// defaultROBDemand is the window-demand scale used when a workload
	// does not specify one: ilpEff = ILP·(1 - exp(-ROB/demand)).
	defaultROBDemand = 30.0
	// l2HitLatencyCycles is the L1-miss/L2-hit service time.
	l2HitLatencyCycles = 18.0
	// l2OverlapFactor is the fraction of L2-hit latency the OoO engine
	// cannot hide.
	l2OverlapFactor = 0.55
	// memLatencyNS is the main-memory latency in nanoseconds (fixed in
	// wall-clock time, so its cycle cost grows with frequency — 125
	// cycles at the 1.3 GHz baseline).
	memLatencyNS = 96.0
	// branchPenaltyCycles is the misprediction redirect cost.
	branchPenaltyCycles = 14.0
	// mlpROBRef is the ROB size at which MLPMax is fully achieved.
	mlpROBRef = 128.0
)

// PerfResult reports one epoch of the interval model.
type PerfResult struct {
	IPC float64 // committed instructions per cycle
	// BIPS is the performance output: billions of instructions per
	// second over the epoch, accounting for any DVFS stall.
	BIPS float64
	// Instructions committed this epoch.
	Instructions float64
	// Component CPI breakdown (per instruction, in cycles).
	CPIBase, CPIL1, CPIL2, CPIBranch float64
	// Miss traffic actually used (after warm-up extras), per kI.
	L1MPKI, L2MPKI float64
}

// EvalPerf runs the interval model for one epoch.
//
// warmL1/warmL2 are additional transient misses per kilo-instruction due
// to recent cache resizes; dvfsStallFrac is the fraction of the epoch
// lost to a DVFS transition.
func EvalPerf(p PhaseParams, cfg Config, warmL1, warmL2, dvfsStallFrac float64) PerfResult {
	ilpFrac, mlpFrac := windowFracs(float64(cfg.ROBEntries()), robDemand(p.ROBDemand))
	var r PerfResult
	evalPerf(&p, cfg, ilpFrac, mlpFrac,
		wayPow(cfg.L1Ways(), p.L1Alpha), wayPow(cfg.L2Ways(), p.L2Alpha),
		warmL1, warmL2, dvfsStallFrac, &r)
	return r
}

// robDemand applies the default window-demand scale to a workload's
// ROBDemand.
func robDemand(demand float64) float64 {
	if demand <= 0 {
		demand = defaultROBDemand
	}
	return demand
}

// windowFracs returns the share of a workload's ILP a window of rob
// entries exposes at the given demand scale, and the share of its MLP,
// normalized so the full ROB achieves MLPMax.
func windowFracs(rob, demand float64) (ilp, mlp float64) {
	ilp = 1 - math.Exp(-rob/demand)
	return ilp, ilp / (1 - math.Exp(-mlpROBRef/demand))
}

// evalPerf is the interval model body. Its transcendental factors come
// precomputed for cfg: ilpFrac and mlpFrac from windowFracs, l1Pow and
// l2Pow the miss-curve terms from wayPow.
func evalPerf(p *PhaseParams, cfg Config, ilpFrac, mlpFrac, l1Pow, l2Pow, warmL1, warmL2, dvfsStallFrac float64, r *PerfResult) {
	f := cfg.FreqGHz()

	// ILP exposed by the instruction window, at this workload's demand.
	ilpEff := p.ILP * ilpFrac
	ipcCore := math.Min(issueWidth, ilpEff)
	if ipcCore < 0.05 {
		ipcCore = 0.05
	}
	cpiBase := 1 / ipcCore

	// Miss traffic with resize warm-up transients. L2 misses cannot
	// exceed L1 misses (inclusive hierarchy).
	l1mpki := missCurveAt(p.L1M1, p.L1Floor, l1Pow) + warmL1
	l2mpki := missCurveAt(p.L2M1, p.L2Floor, l2Pow) + warmL2
	if l2mpki > l1mpki {
		l2mpki = l1mpki
	}

	// Stall components per instruction.
	cpiL1 := l1mpki / 1000 * l2HitLatencyCycles * l2OverlapFactor
	memCycles := memLatencyNS * f // ns × GHz = cycles
	// Memory-level parallelism grows with the window on the same
	// per-workload demand scale.
	mlp := 1 + (p.MLPMax-1)*mlpFrac
	if mlp < 1 {
		mlp = 1
	}
	cpiL2 := l2mpki / 1000 * memCycles / mlp
	cpiBr := p.BranchMPKI / 1000 * branchPenaltyCycles

	cpi := cpiBase + cpiL1 + cpiL2 + cpiBr
	ipc := 1 / cpi

	if dvfsStallFrac < 0 {
		dvfsStallFrac = 0
	}
	if dvfsStallFrac > 1 {
		dvfsStallFrac = 1
	}
	activeSeconds := EpochSeconds * (1 - dvfsStallFrac)
	instr := ipc * f * 1e9 * activeSeconds
	bips := instr / EpochSeconds / 1e9

	*r = PerfResult{
		IPC: ipc, BIPS: bips, Instructions: instr,
		CPIBase: cpiBase, CPIL1: cpiL1, CPIL2: cpiL2, CPIBranch: cpiBr,
		L1MPKI: l1mpki, L2MPKI: l2mpki,
	}
}

// plantTables caches the phase-dependent transcendental factors of the
// interval model for every knob level, so a Processor epoch does table
// lookups instead of math.Exp and math.Pow calls. The tables are keyed
// on the bits of the values they depend on — the window demand (after
// its default) and the two miss-curve exponents — never on a phase ID:
// the trace-driven processor substitutes its own parameters every
// epoch. Each entry is the very call, on the very argument, that
// EvalPerf makes, so tabled results are bit-identical to it.
type plantTables struct {
	valid                    bool
	demand, l1Alpha, l2Alpha uint64     // Float64bits of the key values
	ilpFrac, mlpFrac         [8]float64 // by Config.ROBIdx
	l1Pow, l2Pow             [4]float64 // by Config.CacheIdx
}

// refresh recomputes the tables if p's key values differ from the
// cached ones.
func (t *plantTables) refresh(p *PhaseParams) {
	demand := robDemand(p.ROBDemand)
	d, a1, a2 := math.Float64bits(demand), math.Float64bits(p.L1Alpha), math.Float64bits(p.L2Alpha)
	if t.valid && d == t.demand && a1 == t.l1Alpha && a2 == t.l2Alpha {
		return
	}
	for i := range t.ilpFrac {
		t.ilpFrac[i], t.mlpFrac[i] = windowFracs(float64(ROBSettings[i]), demand)
	}
	for i, cs := range CacheSettings {
		t.l1Pow[i] = wayPow(cs[1], p.L1Alpha)
		t.l2Pow[i] = wayPow(cs[0], p.L2Alpha)
	}
	t.valid, t.demand, t.l1Alpha, t.l2Alpha = true, d, a1, a2
}

// eval runs the performance and power models for one epoch at cfg from
// the tables, refreshing them first if p's key values changed.
func (t *plantTables) eval(p *PhaseParams, cfg Config, warmL1, warmL2, dvfsStallFrac, tempC float64, perf *PerfResult, pw *PowerResult) {
	t.refresh(p)
	evalPerf(p, cfg, t.ilpFrac[cfg.ROBIdx], t.mlpFrac[cfg.ROBIdx],
		t.l1Pow[cfg.CacheIdx], t.l2Pow[cfg.CacheIdx],
		warmL1, warmL2, dvfsStallFrac, perf)
	evalPower(p, cfg, perf, tempC, p.Activity, pw)
}
