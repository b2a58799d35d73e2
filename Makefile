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
# the concurrent read/hot-swap paths be clean under the race detector. The
# arm64 cross-build (offline, seconds) keeps the tensor/nn kernels portable
# pure Go: no assembly, no build tag, nothing amd64-only (DESIGN.md §12.7).
# The grep keeps every rename and directory fsync inside internal/wal, so a
# durable file can only be written through wal.WriteFileAtomic (DESIGN.md §9).
# The fidelity gate last: the paper tables must not drift silently.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/nn
	$(GO) run ./internal/tools/exportlint $(wildcard internal/*) pkg/api pkg/client
	! grep -rnE --include='*.go' --exclude='*_test.go' '\.(Rename|SyncDir)\(' . | grep -v '^\./internal/wal/'
	$(GO) test -shuffle=on ./...
	$(GO) test -race -shuffle=on ./internal/serve/... ./internal/core/... ./internal/fleet/... ./internal/retrieval/... ./internal/wal/... ./internal/session/...
	./scripts/fidelity.sh

# fidelity re-runs litebench's Table VI and Table IX and diffs them, timing
# lines stripped, against testdata/fidelity/ (amd64 only; ~30 s).
fidelity:
	./scripts/fidelity.sh

# serve-smoke boots liteserve on a random port, issues one /recommend and
# one /feedback request, and asserts both return 200.
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

# bench-parallel runs the scoring, training, AMU and tower-GEMM benchmarks and
# writes BENCH_parallel.json (see DESIGN.md §7 and README "Performance").
bench-parallel:
	./scripts/bench.sh

# bench-regression re-runs the single-core recommendation benchmark and
# fails if it regressed >2x against the committed BENCH_parallel.json
# baseline (see BENCHMARKS.md). Writes bench_regression.txt.
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
