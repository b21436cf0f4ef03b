package sim

// Test-only access to plant internals for the external sim_test
// package (plant_ref_test.go).

// PlantTables wraps a standalone copy of the per-Processor factor
// tables.
type PlantTables struct{ t plantTables }

// Eval runs one tabled epoch evaluation exactly as Processor.Step does,
// refreshing the tables when p's key values differ from the last call.
func (x *PlantTables) Eval(p PhaseParams, cfg Config, warmL1, warmL2, dvfsStallFrac, tempC float64) (PerfResult, PowerResult) {
	var perf PerfResult
	var pw PowerResult
	x.t.eval(&p, cfg, warmL1, warmL2, dvfsStallFrac, tempC, &perf, &pw)
	return perf, pw
}

// PlantState reports the dynamic state the next Step starts from.
func (p *Processor) PlantState() (tempC, warmL1, warmL2 float64, dvfsStall bool) {
	return p.tempC, p.warmL1, p.warmL2, p.dvfsStall
}

// StepTemperature is the thermal-node update.
var StepTemperature = stepTemperature
