# ReTail reproduction — common developer entry points.
#
#   make build   compile every package and command
#   make test    tier-1 test suite (what CI gates on)
#   make race    full suite under the race detector
#   make vet     static analysis
#   make bench   telemetry hot-path + paper-table benchmarks
#   make bench-check     hot-path micro-benchmarks once under -race (CI
#                        smoke) + BenchmarkClusterFleet timed and gated
#                        against results/BENCH_cluster.json
#   make bench-baseline  regenerate results/BENCH_*.json via cmd/benchjson
#                        and append to results/BENCH_history.jsonl
#   make trace-check     fixed-seed Chrome trace vs committed golden bytes
#   make chaos-check     fault-injection suite: injector contracts, degradation
#                        paths, live replays, sim matrix vs committed golden
#   make chaos-race      the chaos-check tests, 5 times under -race (nightly)
#   make parity-check    replay parity under -race: one recorded simulator
#                        trace through the live runtime's decider must yield
#                        byte-identical decisions (DESIGN.md §10)
#   make cluster-check   fleet sweep determinism: dispatcher streams, fleet
#                        runs, sweep table vs golden + multi-seed SHA-256
#   make obs-check       observability plane: seeded report vs committed
#                        golden (byte-stable modulo provenance), ledger
#                        reconciliation + pure-observer pins, zero-alloc
#                        decide with ledger, scrape-under-sweep race,
#                        BENCH_history.jsonl schema validation
#   make workload-check  cohort workload gate: arrival-process statistics,
#                        trace v2 header schema, fixed-seed cohort sweep vs
#                        committed golden (per-spec table, per-SLO-class
#                        latency, trace + decision SHA-256), -parallel 1 vs 8
#                        byte-identity, record→replay→re-record round trips
#   make tune-check      policy-params + digital-twin gate: params schema
#                        round-trip/SHA pins, search-spec enumeration, and
#                        the fixed-seed retail-tune winners table vs its
#                        committed golden with -parallel 1 vs 8 byte
#                        identity and exact winner-replay reproduction
#   make golden          rewrite every golden file the *-check targets
#                        compare against, after an intentional change;
#                        `git diff` then shows exactly what moved
#   make gate-list       print the test names each *-check target's -run
#                        regex selects, so two checkouts' listings show
#                        whether a gate's test set shrank
#   make smoke   build-and-run every example and command briefly
#   make check   build + vet + test (the pre-commit bundle)

GO ?= go

# The hot-path micro-benchmarks tracked across PRs: the event loop
# (freelist), Algorithm 1 decisions (prediction memo), the sweep runner,
# the fleet simulator and the per-completion latency recorder. bench-check runs each exactly once under the
# race detector — a correctness smoke, not a measurement — and then
# times BenchmarkClusterFleet for real and gates it against the
# committed baseline. The gate tolerance (benchjson defaults: 3x on
# ns/op, 1.25x on allocs/op) is deliberately loose on wall time —
# cross-machine clocks and CPU governors add noise — but the PR-7
# optimization was >2x on ns and >40x on allocs, so even the loose gate
# catches a full relapse. bench-baseline produces the committed JSON
# trajectories from a real timed run and appends each refresh to the
# append-only results/BENCH_history.jsonl.
HOT_BENCH = 'Benchmark(Engine(AfterFire|ScheduleCancel)|RetailDecide|Sweep|Cluster|LatencyTrackerAdd)'
HOT_PKGS  = ./internal/sim ./internal/manager ./internal/experiments ./internal/cluster ./internal/stats

.PHONY: build test race vet bench bench-check bench-baseline trace-check chaos-check chaos-race parity-check cluster-check obs-check workload-check tune-check golden gate-list smoke check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench 'Benchmark(Counter|Gauge|Histogram|Snapshot)' -benchmem -run '^$$' ./internal/telemetry ./
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' .

bench-check:
	$(GO) test -race -run '^$$' -bench $(HOT_BENCH) -benchtime=1x $(HOT_PKGS)
	$(GO) test -run '^$$' -bench 'BenchmarkClusterFleet$$' -benchmem ./internal/cluster | $(GO) run ./cmd/benchjson -gate results/BENCH_cluster.json

bench-baseline:
	$(GO) test -run '^$$' -bench $(HOT_BENCH) -benchmem ./internal/sim ./internal/manager ./internal/experiments | $(GO) run ./cmd/benchjson -history results/BENCH_history.jsonl > results/BENCH_sweep.json
	$(GO) test -run '^$$' -bench 'BenchmarkCluster' -benchmem ./internal/cluster | $(GO) run ./cmd/benchjson -history results/BENCH_history.jsonl > results/BENCH_cluster.json

# The Chrome trace exporter's bytes are a contract (Perfetto tooling,
# diffable artifacts): a fixed-seed simulation must serialize identically
# on every run. `make golden` rewrites the committed file after an
# intentional format change.
TRACE_TESTS = 'TestChromeTrace(Golden|Deterministic)'
trace-check:
	$(GO) test -run $(TRACE_TESTS) -count=1 ./internal/trace

# The fault-injection and graceful-degradation suite (DESIGN.md §9):
# injector determinism and zero-alloc contracts, DVFS retry/fallback and
# shedding paths, fixed-seed live replays of the built-in plans, and the
# simulator chaos matrix compared byte-for-byte against its golden.
# chaos-race reruns the same set repeatedly under the race detector (the
# nightly chaos workflow), so the set is defined only here.
CHAOS_TESTS = 'TestInjector|TestFault|TestPlan|TestCorrupting|TestApplyLevel|TestSysfsBackendReconcile|TestShed|TestClientRetries|TestDeadlineDrop|TestServerExecFault|TestChaos|TestLiveChaos'
CHAOS_PKGS  = ./internal/fault ./internal/live ./internal/experiments
chaos-check:
	$(GO) test -count=1 -run $(CHAOS_TESTS) $(CHAOS_PKGS)

chaos-race:
	$(GO) test -race -count=5 -run $(CHAOS_TESTS) $(CHAOS_PKGS)

# Replay parity (DESIGN.md §10): the simulator adapter records every
# input the shared decision core consumed; replaying the trace through
# the live adapter's decider must reproduce the decision stream
# byte-for-byte, including the negative control proving the check can
# fail. Runs under -race because the live decider is the concurrent one.
PARITY_TESTS = 'TestReplayParity'
parity-check:
	$(GO) test -race -count=1 -run $(PARITY_TESTS) ./internal/experiments

# The cluster layer's determinism gate: dispatcher placement streams,
# fleet runs and the routing×policy×load sweep table — byte-compared
# against its golden and SHA-256-pinned at two seeds, plus the
# -parallel 1 vs 8 byte-identity check.
CLUSTER_POLICY_TESTS = 'TestDispatcher|TestNewDispatcher|TestRoundRobinDispatch|TestLeastLoadedDispatch|TestGlobalJSQDispatch|TestPowerOfTwoDispatch'
CLUSTER_FLEET_TESTS  = 'TestRunFleet'
CLUSTER_SWEEP_TESTS  = 'TestFleetSweep'
cluster-check:
	$(GO) test -count=1 -run $(CLUSTER_POLICY_TESTS) ./internal/policy
	$(GO) test -count=1 -run $(CLUSTER_FLEET_TESTS) ./internal/cluster
	$(GO) test -count=1 -run $(CLUSTER_SWEEP_TESTS) ./internal/experiments

# The observability plane's gate (DESIGN.md §12): a seeded fleet sweep's
# canonical report must match the committed golden byte-for-byte
# (provenance masked), every joule and violation must reconcile between
# ledger and fleet result, attribution must stay a zero-alloc pure
# observer, /metrics and /debug/fleet must survive concurrent scrapes
# mid-sweep under -race, and the append-only benchmark history must
# parse against the benchjson baseline schema.
OBS_LEDGER_TESTS = 'TestFleetReportGolden|TestFleetLedger|TestEnergyByLevelReconciles|TestRetailDecideZeroAllocWithLedger'
OBS_LEDGER_PKGS  = ./internal/experiments ./internal/cluster ./internal/cpu ./internal/manager
OBS_SCRAPE_TESTS = 'TestMetricsScrapeDuringFleetSweep'
OBS_SCHEMA_TESTS = 'TestBenchHistorySchema|TestHistogramHDREquivalence|TestLogLinear'
OBS_SCHEMA_PKGS  = ./cmd/benchjson ./internal/telemetry ./internal/stats
obs-check:
	$(GO) test -count=1 -run $(OBS_LEDGER_TESTS) $(OBS_LEDGER_PKGS)
	$(GO) test -race -count=1 -run $(OBS_SCRAPE_TESTS) ./internal/experiments
	$(GO) test -count=1 -run $(OBS_SCHEMA_TESTS) $(OBS_SCHEMA_PKGS)

# The ServeGen-class workload gate (DESIGN.md §13): per-arrival-process
# statistical checks (mean rate, index of dispersion, diurnal phase),
# the Poisson client's pinned stream and rate-scale identity, the trace
# v2 header schema pin and decode rejections, and the fixed-seed
# cohort-spec sweep — its rendered table (per-spec stats, per-SLO-class
# latency, canonical trace and classed-decision SHA-256 hashes)
# byte-compared against the committed golden, plus -parallel 1 vs 8
# byte-identity. Every sweep cell internally proves
# record→replay→re-record byte identity through the simulator and
# classed decision parity through the live decider.
WORKLOAD_TESTS       = 'TestArrival|TestEnvelopePhase|TestSpecValidate|TestBuiltinSpecs|TestCohortDeterminism|TestTraceRoundTrip|TestTraceHeaderSchema|TestGenerator|TestPoissonStream|TestReadTrace'
WORKLOAD_SWEEP_TESTS = 'TestWorkloadSweep'
workload-check:
	$(GO) test -count=1 -run $(WORKLOAD_TESTS) ./internal/workload
	$(GO) test -count=1 -run $(WORKLOAD_SWEEP_TESTS) ./internal/experiments

# The policy-parameterization and digital-twin gate (DESIGN.md §14):
# params JSON round-trip bit-equality, strict unknown-field rejection,
# the zero-value→historical-default identity, pinned canonical SHAs,
# search-spec enumeration contracts (grid odometer order, seeded random
# determinism, rejection surface), and the fixed-seed retail-tune
# winners table byte-compared against its golden — including -parallel
# 1 vs 8 byte-identity and the exact standalone reproduction of the
# winner's scored metrics from its emitted params.json.
TUNE_POLICY_TESTS = 'TestParams|TestMonitorGuardBand|TestQuantileFallback'
TUNE_TESTS        = 'TestSpec|TestTune'
tune-check:
	$(GO) test -count=1 -run $(TUNE_POLICY_TESTS) ./internal/policy
	$(GO) test -count=1 -run $(TUNE_TESTS) ./internal/tune

# Every golden-file test compares through internal/golden, whose single
# -update flag rewrites the file instead. golden reruns exactly those
# tests with -update; only packages importing internal/golden accept it.
GOLDEN_TESTS = '^(TestChromeTraceGolden|TestChaosSimGolden|TestReplayParity|TestFleetSweepGolden|TestFleetSweepMultiSeedSHA|TestFleetReportGolden|TestWorkloadSweepGolden|TestTuneGolden)$$'
golden:
	$(GO) test -count=1 -run $(GOLDEN_TESTS) ./internal/trace ./internal/experiments ./internal/tune -update

# gate-list prints, per *-check target, the tests each of its -run
# regexes selects (go test -list; the regexes are the variables the
# targets run). Diff two checkouts' listings to show no gate lost a test.
LIST = $(GO) test -list
TAG  = awk '/^Test/ { t[n++] = $$0 } /^ok/ { for (i = 0; i < n; i++) print $$2 ": " t[i]; n = 0 }'
gate-list:
	@echo '# trace-check';    $(LIST) $(TRACE_TESTS) ./internal/trace | $(TAG)
	@echo '# chaos-check';    $(LIST) $(CHAOS_TESTS) $(CHAOS_PKGS) | $(TAG)
	@echo '# parity-check';   $(LIST) $(PARITY_TESTS) ./internal/experiments | $(TAG)
	@echo '# cluster-check';  $(LIST) $(CLUSTER_POLICY_TESTS) ./internal/policy | $(TAG)
	@$(LIST) $(CLUSTER_FLEET_TESTS) ./internal/cluster | $(TAG)
	@$(LIST) $(CLUSTER_SWEEP_TESTS) ./internal/experiments | $(TAG)
	@echo '# obs-check';      $(LIST) $(OBS_LEDGER_TESTS) $(OBS_LEDGER_PKGS) | $(TAG)
	@$(LIST) $(OBS_SCRAPE_TESTS) ./internal/experiments | $(TAG)
	@$(LIST) $(OBS_SCHEMA_TESTS) $(OBS_SCHEMA_PKGS) | $(TAG)
	@echo '# workload-check'; $(LIST) $(WORKLOAD_TESTS) ./internal/workload | $(TAG)
	@$(LIST) $(WORKLOAD_SWEEP_TESTS) ./internal/experiments | $(TAG)
	@echo '# tune-check';     $(LIST) $(TUNE_POLICY_TESTS) ./internal/policy | $(TAG)
	@$(LIST) $(TUNE_TESTS) ./internal/tune | $(TAG)

smoke:
	$(GO) test -run TestSmoke -v .

check: build vet test

clean:
	$(GO) clean ./...
