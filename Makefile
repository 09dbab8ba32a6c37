# Targets mirror .github/workflows/ci.yml: `make ci` is exactly what CI runs.

GO ?= go

.PHONY: all build fmt fmt-check vet staticcheck lint test race alloc-budget bench bench-smoke bench-e2e-smoke api-smoke fuzz docs chaos loc ci

all: build

build:
	$(GO) build ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck needs network access on first run (module download); CI
# pins the same version. STATICCHECK overrides the binary, e.g. a
# pre-installed one on an offline box.
STATICCHECK ?= $(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1

staticcheck:
	$(STATICCHECK) ./...

# provlint: the repo's own analyzer suite (cmd/provlint). Enforces the
# determinism, layering, and hot-path invariants documented in
# docs/LINTING.md; suppress a finding at a contract site with
# `//provlint:allow <check> <reason>`.
lint:
	$(GO) run ./cmd/provlint

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# race_test.go widens the allocation slack for every cell under -race,
# so only a run without it holds the hot path to 1.20x; soak_race_test.go
# shortens the heap soak under -race, so only a run without it drives
# all 1 000 cut+restores.
alloc-budget:
	$(GO) test -run 'TestHotPathAllocBudget|TestSetupAllocBudget|TestSoakHeapPlateau' ./internal/benchwork ./internal/core

# Full benchmark run (minutes-scale); see bench_test.go for the figure map.
bench:
	$(GO) test -run '^$$' -bench . ./...

# One iteration per benchmark: checks the harness wiring, not the numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The end-to-end benchmark (bench/, BENCHMARK.json) at a tenth of its
# size: all four workloads, each in its own process, exit status
# non-zero when any correctness check fails (Dijkstra oracle, store-log
# recovery, query schema). Checks the wiring and the checks, not the
# numbers.
bench-e2e-smoke:
	$(GO) run ./bench -workload all -seconds 2

# The CI api-smoke job: serve the query API from cmd/provnet (with
# -metrics and a store), query a traceback over HTTP, diff against the
# committed golden fixture, then scrape /metrics and /v1/debug/rounds.
api-smoke:
	$(GO) build -o /tmp/provnet-smoke ./cmd/provnet
	@rm -rf /tmp/provnet-smoke-store; \
	/tmp/provnet-smoke -program cmd/provnet/testdata/reachable.ndl \
		-topo line:3 -prov distributed -sequential \
		-metrics -store /tmp/provnet-smoke-store \
		-http 127.0.0.1:18080 > /tmp/provnet-smoke.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18080/v1/bestpath > /dev/null && break; sleep 0.2; \
	done; \
	curl -sf 'http://127.0.0.1:18080/v1/traceback?node=n0&tuple=reachable%28n0%2C%20n2%29' > /tmp/provnet-smoke-got.json; \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
		curl -sf http://127.0.0.1:18080/metrics > /tmp/provnet-smoke-metrics.txt && \
		for series in provnet_scheduler_rounds_total provnet_scheduler_deltas_out_total \
			provnet_engine_firings_total provnet_engine_waves_total \
			provnet_transport_messages_total provnet_transport_bytes_total \
			provnet_crypto_verify_seconds_count provnet_store_flush_seconds_count \
			provnet_store_pending provnet_http_requests_total; do \
			grep -q "^$$series" /tmp/provnet-smoke-metrics.txt || { echo "missing series $$series" >&2; status=1; break; }; \
		done; \
		curl -sf http://127.0.0.1:18080/v1/debug/rounds > /tmp/provnet-smoke-rounds.json && \
		grep -q '"v": 1' /tmp/provnet-smoke-rounds.json && \
		grep -q '"kind": "round"' /tmp/provnet-smoke-rounds.json || status=1; \
	fi; \
	kill $$pid 2>/dev/null; \
	[ $$status -eq 0 ] && diff cmd/provnet/testdata/traceback_golden.json /tmp/provnet-smoke-got.json

# The CI chaos job: the fault-injection convergence suite under the
# race detector (faultnet schedules, ack/reconnect-replay reliability,
# termination soundness, the SIGKILL/cold-restart reconvergence pin —
# each sweeping faultnet seeds 1-3) and a connection-kill fuzz burst. The TCP
# path's numbers are `go run ./bench -probe tcp3`.
chaos:
	$(GO) test -race -shuffle=on ./internal/faultnet ./internal/nettcp
	$(GO) test -race -shuffle=on -run 'TestTermination|TestIdleHeuristicFalseFixpoint|TestResupplyReplaysExports' ./internal/core
	$(GO) test -race -timeout 15m -run 'TestCrashRestartReconverges|TestMultiprocessMatchesSingleProcess' ./cmd/provnet
	$(GO) test -run '^$$' -fuzz FuzzReconnectReplay -fuzztime 30s ./internal/nettcp

# Wire-decoder fuzzing (every frame kind, one decoder; the RSA tree tag,
# parsed before it is authenticated; session-MAC envelopes, valid and
# corrupted, across rekeys; the condensed-provenance BDD table;
# tuple decoding through a symbol table against decoding without one),
# the two hash-collision fuzzers (retraction; the provenance store's
# tuple index), retraction against a fresh engine on the surviving facts
# and store-log recovery after arbitrary trailing bytes, same budget as
# CI.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeEnvelope -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzOpenTreeTag -fuzztime 30s ./internal/auth
	$(GO) test -run '^$$' -fuzz FuzzSessionOpen -fuzztime 30s ./internal/auth
	$(GO) test -run '^$$' -fuzz FuzzDecodeTable -fuzztime 30s ./internal/bdd
	$(GO) test -run '^$$' -fuzz FuzzDecodeWithSymbols -fuzztime 30s ./internal/data
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 30s ./internal/nettcp
	$(GO) test -run '^$$' -fuzz FuzzRetractCollisions -fuzztime 30s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzRetractMatchesFresh -fuzztime 30s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzStoreIndex -fuzztime 30s ./internal/provenance
	$(GO) test -run '^$$' -fuzz FuzzRecover -fuzztime 30s ./internal/storelog

# The CI docs job: markdown link check over README/ROADMAP/docs and the
# multiprocess smoke. The checked examples (example_test.go) run with
# the tests.
docs:
	$(GO) test -run TestDocLinks .
	$(GO) run ./examples/multiprocess

# The size of the program: non-test Go lines outside bench/ and testdata,
# printed and held to LOC_MAX. A change that grows the program raises
# LOC_MAX in the same commit, where review sees it. The second line is
# the test lines outside bench/, printed only, so a test-only change
# shows its size in the log.
LOC_MAX = 22001

loc:
	@n=$$(git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | grep -v '/testdata/' | xargs cat | wc -l); \
	echo $$n; \
	echo "$$(git ls-files '*_test.go' | grep -v '^bench/' | xargs cat | wc -l) test lines"; \
	if [ $$n -gt $(LOC_MAX) ]; then echo "$$n non-test Go lines, over LOC_MAX = $(LOC_MAX)" >&2; exit 1; fi

ci: fmt-check vet staticcheck lint build loc race alloc-budget fuzz docs bench-smoke bench-e2e-smoke chaos api-smoke
