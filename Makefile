# Tier-1 gate: everything CI requires before a merge. The full suite
# runs without the race detector; the concurrency-heavy packages (the
# exploration engine, the pool server and the job service) re-run under
# -race, which is where data races would actually live. The service
# smoke test boots a real asiccloudd, runs the quickstart sweep against
# it, and diffs the daemon's answer against the CLI's; the distributed
# smoke test byte-diffs a 3-worker coordinator sweep against the
# single-process run and kills a worker mid-sweep to prove lease
# requeue recovers its chunks.
.PHONY: check
check: build
	go vet ./...
	$(MAKE) fmt-check
	$(MAKE) lint
	$(MAKE) lint-json
	go test ./...
	go test -race ./internal/core ./internal/cloud ./internal/service
	go run ./cmd/benchreport -trajectory
	./scripts/smoke_service.sh
	./scripts/smoke_distributed.sh

# Formatting gate: fails when gofmt -l lists any tracked .go file.
# Files under a testdata/ directory are exempt: the analyzer fixtures'
# goldens pin line and column positions, so they keep their layout.
.PHONY: fmt-check
fmt-check:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -Ev '(^|/)testdata/')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

# Domain-aware static analysis (unit discipline, float hygiene, error
# propagation, context/goroutine/lock dataflow). Non-zero exit on any
# diagnostic; see README "Static analysis" for the suppression syntax.
.PHONY: lint
lint:
	go run ./cmd/asiclint ./...

# Machine-readable lint report for CI artifact collection. The target
# still fails on findings; the JSON lands in results/ either way.
.PHONY: lint-json
lint-json:
	mkdir -p results
	go run ./cmd/asiclint -json ./... > results/lint.json

# Lint only the files changed against a ref (default origin/main if it
# exists, else HEAD): scripts/lint_changed.sh wraps `asiclint -diff`.
.PHONY: lint-changed
lint-changed:
	./scripts/lint_changed.sh

# Refresh every analyzer's golden files plus the wirehash canonical
# fingerprint (internal/service/hash.fingerprint). Run after an
# intentional analyzer-message or hash-schema change; commit the diff.
.PHONY: lint-golden
lint-golden:
	go test ./internal/analysis/... -update

# Worklist generator: full-suite findings land in results/lint.json
# bucketed by analyzer, so a cleanup can be tackled one analyzer at a
# time. Unlike `lint` it exits zero even with findings — it produces
# the fix list; `lint` is the gate. Exit 2 (load/usage error) still
# fails the target.
.PHONY: lint-fix-list
lint-fix-list:
	mkdir -p results
	go run ./cmd/asiclint -json -group ./... > results/lint.json || [ $$? -eq 1 ]

# Paper-table benchmarks plus a measured bitcoin sweep; the structured
# run report (configs/sec, prune breakdown, frontier size, span timings,
# plan-cache hit/miss counters) lands in BENCH_3.json, and the
# repeated-sweep cache benchmark is merged into the same file.
# BENCH_5.json adds -benchmem so the hot-path allocation budget
# (allocs/op and B/op of the warm repeated sweep) is tracked per PR
# alongside throughput; `benchreport -trajectory` (run by `check`)
# gates on the configs/sec column.
.PHONY: bench
bench:
	go test -run '^$$' -bench . -benchtime 1x .
	go run ./cmd/asiccloud design -app bitcoin -report-json BENCH_3.json
	go test -run '^$$' -bench BenchmarkRepeatedSweep -benchtime 20x . \
		| go run ./cmd/benchreport -into BENCH_3.json
	go run ./cmd/asiccloud design -app bitcoin -report-json BENCH_4.json
	go test -run '^$$' -bench BenchmarkServiceSweep -benchtime 20x . \
		| go run ./cmd/benchreport -into BENCH_4.json
	go run ./cmd/asiccloud design -app bitcoin -report-json BENCH_5.json
	go test -run '^$$' -bench BenchmarkRepeatedSweep -benchmem -benchtime 20x . \
		| go run ./cmd/benchreport -into BENCH_5.json

# Regenerate every paper table and figure plus the ext-* study
# artifacts (geographic siting, cooling, lifetime, node, the carbon
# frontier and the carbon crossover break-evens) into results/.
.PHONY: figures
figures:
	go run ./cmd/paperfigs

.PHONY: test
test:
	go test ./...

.PHONY: build
build:
	go build ./...
