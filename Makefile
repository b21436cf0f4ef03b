GO ?= go

.PHONY: check vet build test race bench bench-obs bench-batch bench-batchsup bench-tsdb benchcmp cover fuzz golden golden-doctor golden-tsdb

# check is the default verify flow: vet + build + race-enabled tests.
check:
	./scripts/check.sh

# cover enforces the coverage floor and prints per-package deltas
# against scripts/coverage_baseline.txt (UPDATE=1 refreshes it).
cover:
	./scripts/coverage.sh

# fuzz gives every fuzz target a short exploratory run (CI smoke time);
# raise FUZZTIME for a deeper local session.
fuzz:
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz FuzzLabelRoundTrip -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/sysid/ -run '^$$' -fuzz FuzzPRBS -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/sysid/ -run '^$$' -fuzz FuzzQuantizeTo -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/experiments/ -run '^$$' -fuzz 'FuzzSteadyStateEpoch$$' -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/experiments/ -run '^$$' -fuzz FuzzSteadyStateEpochEMA -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/batch/ -run '^$$' -fuzz FuzzBatchVsScalarStep -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/batch/ -run '^$$' -fuzz FuzzQuantHysteresis -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/batch/ -run '^$$' -fuzz FuzzSupervisedBatchVsScalar -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz FuzzBlockRoundTrip -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz FuzzQueryFleetMatchesReference -fuzztime $(or $(FUZZTIME),10s)

# golden re-records the golden regression CSVs after an intentional
# output change; review the diff like code.
golden:
	$(GO) test ./internal/experiments/ -run TestGolden -update

# golden-doctor re-records the committed flight-recorder dumps the
# mimodoctor smoke job diagnoses (testdata/golden/doctor_sensor-freeze.frec
# and doctor_plant-drift.frec); needed after an intentional
# recording-format or control-loop change.
golden-doctor:
	$(GO) test ./internal/experiments/ -run TestGoldenDoctorDump -update

# golden-tsdb re-records the committed baseline telemetry snapshot
# (testdata/golden/tsdb_baseline.json) the drift detector scores live
# runs against; needed after an intentional control-loop or
# history-recording change. Review the stat drift like code.
golden-tsdb:
	$(GO) test ./internal/experiments/ -run TestHistoryBaselineDrift -update

# bench runs the benchmark suite (paper figures + substrate hot paths +
# telemetry overhead) and writes BENCH_seed.json; see scripts/bench.sh
# for the BENCH / BENCHTIME / OUT knobs.
bench:
	./scripts/bench.sh

# bench-obs measures the fleet observability plane's overhead (the
# supervised step at every attachment tier plus the full suite with
# scopes+events on) and writes BENCH_obs.json.
bench-obs:
	OBS=1 ./scripts/bench.sh

# bench-batch re-measures the batched fleet backend into
# BENCH_batch_new.json and gates it against the committed
# BENCH_batch.json: the batch kernel must stay at 0 allocs/op and the
# scalar fleet's ns/lanestep over the batch engine's must stay >= 5x
# (MIN_SPEEDUP overrides the floor, e.g. for noisy shared runners).
MIN_SPEEDUP ?= 5
bench-batch:
	BATCH=1 BENCHTIME=$(or $(BENCHTIME),3s) OUT=BENCH_batch_new.json ./scripts/bench.sh
	$(GO) run ./cmd/benchcmp -gate 'BenchmarkBatchStep$$' \
		-speedup BenchmarkFleetScalarStep1024/BenchmarkFleetBatchStep1024 \
		-speedup-unit ns/lanestep -min-speedup $(MIN_SPEEDUP) \
		BENCH_batch.json BENCH_batch_new.json

# bench-batchsup re-measures the batched supervised lane tier into
# BENCH_batchsup_new.json and gates it against the committed
# BENCH_batchsup.json: the fused supervisor kernel must stay at
# 0 allocs/op and the scalar supervised fleet's ns/lanestep over the
# batch tier's must stay >= 3x (MIN_SUP_SPEEDUP overrides the floor).
MIN_SUP_SPEEDUP ?= 3
bench-batchsup:
	BATCHSUP=1 BENCHTIME=$(or $(BENCHTIME),3s) OUT=BENCH_batchsup_new.json ./scripts/bench.sh
	$(GO) run ./cmd/benchcmp -gate 'BenchmarkBatchSupervisedStep$$' \
		-speedup BenchmarkFleetSupervisedScalar1024/BenchmarkFleetSupervisedBatch1024 \
		-speedup-unit ns/lanestep -min-speedup $(MIN_SUP_SPEEDUP) \
		BENCH_batchsup.json BENCH_batchsup_new.json

# bench-tsdb re-measures the telemetry-history overhead into
# BENCH_tsdb_new.json and gates it against the committed
# BENCH_tsdb.json: the recorder's batch ingest must stay at 0 allocs/op
# and the full suite with history recording may cost at most ~5% over
# the observability plane alone (detached/attached ns/op ratio >=
# MIN_TSDB_RATIO; lower it on noisy shared runners).
MIN_TSDB_RATIO ?= 0.95
bench-tsdb:
	TSDB=1 BENCHTIME=$(or $(BENCHTIME),3x) OUT=BENCH_tsdb_new.json ./scripts/bench.sh
	$(GO) run ./cmd/benchcmp -gate 'BenchmarkTSDBIngest$$' \
		-speedup BenchmarkTSDBSuiteDetached/BenchmarkTSDBSuiteAttached \
		-speedup-unit ns/op -min-speedup $(MIN_TSDB_RATIO) \
		BENCH_tsdb.json BENCH_tsdb_new.json

# benchcmp re-runs the engine benchmarks into BENCH_alloc.json and
# diffs them against the committed BENCH_parallel.json baseline,
# failing on a >20% allocs/op regression in BenchmarkExpAll (the
# steady-state loop is required to stay allocation-free; see DESIGN.md
# "Hot path and memory discipline").
benchcmp:
	PARALLEL=1 OUT=BENCH_alloc.json ./scripts/bench.sh
	$(GO) run ./cmd/benchcmp BENCH_parallel.json BENCH_alloc.json

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
