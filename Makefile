GO ?= go

.PHONY: build test vet race lint verify fidelity serve-smoke chaos-smoke fleet-smoke bench bench-parallel bench-regression benchmark clean

build:
	$(GO) build ./...

# Tests run shuffled so accidental inter-test ordering dependencies
# (shared state, leftover goroutines) surface in CI instead of in prod.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -shuffle=on ./...

# lint enforces the exported-comment rule (internal/tools/exportlint, a
# dependency-free revive/ST1020 equivalent): every exported symbol in the
# library packages must carry a godoc comment starting with its name.
lint:
	$(GO) run ./internal/tools/exportlint $(wildcard internal/*) pkg/api pkg/client

# verify is the tier-1 gate plus the serving-stack race check: everything
# must compile, every test pass, every exported symbol be documented, and
# the concurrent read/hot-swap paths and the training steps be clean under
# the race detector, the root package's tests and allocation pins too. The
# arm64 cross-build (offline, seconds) keeps the tensor/nn kernels portable
# pure Go: no assembly, no build tag, nothing amd64-only (DESIGN.md §12.7).
# The first grep keeps every rename and directory fsync inside internal/wal, so a
# durable file can only be written through wal.WriteFileAtomic (DESIGN.md §9).
# The second keeps a tuner-wide lock off the recommend path: a published
# model is a value, never written in place (DESIGN.md §12.6). The third
# keeps internal/nn free of sync.Pool: a training step's memory is its
# arena's, which a GC does not empty (DESIGN.md §12.8).
# Each fuzz target (testing.F) then runs for 10 s; -fuzzminimizetime keeps
# the engine fuzzing instead of minimizing every new corpus entry for a
# minute. The fidelity gate last: the paper tables must not drift silently.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/nn
	$(GO) run ./internal/tools/exportlint $(wildcard internal/*) pkg/api pkg/client
	! grep -rnE --include='*.go' --exclude='*_test.go' '\.(Rename|SyncDir)\(' . | grep -v '^\./internal/wal/'
	! grep -nE 'sync\.RWMutex|\.RLock\(' internal/core/lite.go
	! grep -rn --include='*.go' --exclude='*_test.go' 'sync\.Pool' internal/nn
	$(GO) test -shuffle=on ./...
	$(GO) test -race -shuffle=on . ./internal/serve/... ./internal/core/... ./internal/nn/... ./internal/fleet/... ./internal/retrieval/... ./internal/wal/... ./internal/session/... ./pkg/...
	$(GO) test -run '^$$' -fuzz '^FuzzRecommendResponseCodec$$' -fuzztime 10s -fuzzminimizetime 100x ./pkg/api
	$(GO) test -run '^$$' -fuzz '^FuzzRecommendRequestCodec$$' -fuzztime 10s -fuzzminimizetime 100x ./pkg/api
	$(GO) test -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/feature
	$(GO) test -run '^$$' -fuzz '^FuzzV1RequestBodies$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzRoutingKey$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulIntoMatchesReference$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzSessionStoreOpen$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/session
	./scripts/fidelity.sh

# fidelity re-runs litebench's Table VI and Table IX and diffs them, timing
# lines stripped, against testdata/fidelity/ (amd64 only; ~30 s).
fidelity:
	./scripts/fidelity.sh

# serve-smoke boots liteserve on a random port, issues one /v1/recommend
# and one /v1/feedback request, asserts both return 200 and that the
# unversioned /recommend is 404, then runs a tuning-session lifecycle.
serve-smoke:
	./scripts/serve_smoke.sh

# chaos-smoke SIGKILLs liteserve mid-retrain and asserts recovery: no
# fsynced feedback lost, snapshot loadable, poisoned updates rejected and
# quarantined. Writes chaos_report.txt (see DESIGN.md §9).
chaos-smoke:
	./scripts/chaos_smoke.sh

# fleet-smoke boots a 3-shard litefleet, SIGKILLs one shard under load and
# asserts re-route (zero client errors), supervisor restart + ring
# re-admission, and fleet-wide generation convergence after the hot-swap.
# Writes fleet_report.txt (see DESIGN.md §10).
fleet-smoke:
	./scripts/fleet_smoke.sh

bench:
	$(GO) test -bench=. -benchmem -benchtime 1x -timeout 45m

# bench-parallel runs the scoring, training, AMU, tower-GEMM and hit-path benchmarks and
# writes BENCH_parallel.json (see DESIGN.md §7 and README "Performance").
bench-parallel:
	./scripts/bench.sh

# bench-regression re-runs the single-core recommendation benchmark and
# fails if it regressed >2x against the committed BENCH_parallel.json
# baseline, or if BenchmarkAMU / BenchmarkFit / BenchmarkHandlerHit /
# BenchmarkRecommendHit allocate >2% more per op (see BENCHMARKS.md).
# Writes bench_regression.txt.
bench-regression:
	./scripts/bench_regression.sh

# benchmark runs the repo benchmark (BENCHMARK.json, benchmark/README.md):
# four serving workloads, end-to-end metrics, every answer checked. A few
# minutes; `go test ./benchmark/` covers the seconds-long -smoke in tier-1.
benchmark:
	$(GO) run ./benchmark

clean:
	$(GO) clean ./...
	rm -f lite-tuner.json chaos_report.txt fleet_report.txt bench_regression.txt
	rm -rf .bench_out
