# Tier-1 gate: everything CI requires before a merge. The full suite
# runs without the race detector; the concurrency-heavy packages (the
# exploration engine, the pool server, the job service, the metrics
# registry and tracer every goroutine writes to, and the Pareto fold
# the engine's workers each own) re-run under -race, which is where
# data races would actually live. The service
# smoke test boots a real asiccloudd, runs the quickstart sweep against
# it, and diffs the daemon's answer against the CLI's; the distributed
# smoke test byte-diffs a 3-worker coordinator sweep against the
# single-process run, kills a worker mid-sweep to prove lease
# requeue recovers its chunks, and kills a coordinator mid-sweep to
# prove its workers exit non-zero. `go test ./...` compiles the benchmarks
# but never runs them, so every benchmark also runs once (-benchtime
# 1x), which catches one that fails or panics. The repo benchmark
# (_perfbench) is its own module, and ./... skips directories whose
# names start with `_`, so it is vetted, tested and built on its own:
# a public-API change that breaks `make bench` fails here.
.PHONY: check
check: build
	go vet ./...
	$(MAKE) fmt-check
	$(MAKE) lint
	go test ./...
	go test -run '^$$' -bench . -benchtime 1x ./...
	go test -race ./internal/core ./internal/cloud ./internal/service ./internal/obs ./internal/pareto
	cd _perfbench && go vet ./... && go test ./... && go build -o /dev/null .
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
# propagation, context/goroutine/lock dataflow). One run gates, prints
# and leaves the report: non-zero exit on any diagnostic, the findings
# as text on stderr, and the same findings grouped by analyzer in
# results/lint.json (CI keeps it as an artifact). See README "Static
# analysis" for the suppression syntax.
.PHONY: lint
lint:
	mkdir -p results
	go run ./cmd/asiclint -json ./... > results/lint.json

# Refresh every analyzer's golden files. Run after an intentional
# analyzer-message change; commit the diff. Only the packages whose
# tests import internal/analysis/atest define -update, so the flag goes
# to those alone (the loader, cfg and suite tests would reject it).
ATEST := asiccloud/internal/analysis/atest
GOLDEN_PKGS = $(shell go list -f '{{range .TestImports}}{{if eq . "$(ATEST)"}}{{$$.ImportPath}}{{end}}{{end}}{{range .XTestImports}}{{if eq . "$(ATEST)"}}{{$$.ImportPath}}{{end}}{{end}}' ./internal/analysis/...)
.PHONY: lint-golden
lint-golden:
	go test $(GOLDEN_PKGS) -update

# The repo benchmark: every workload BENCHMARK.json lists, in turn,
# for its run_seconds, untraced, stopping at the first failure. Each
# run checks its answers against _perfbench/golden.txt, prints every
# end-to-end metric by name and ends with one JSON line carrying
# "correct". Builds go under .bench_build/.
.PHONY: bench
bench:
	@s=$$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])') && \
	ws=$$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))') || exit 1; \
	for w in $$ws; do \
		python3 _perfbench/run.py --workload $$w --seconds $$s --trace 0 || exit 1; \
	done

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
