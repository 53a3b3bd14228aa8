# Targets mirror .github/workflows/ci.yml exactly, so local runs and CI
# cannot drift.

GO ?= go

.PHONY: all build test race bench bench-json bench-guard bench-scale profile fmt fmt-fix vet lint vulncheck cover scenario-smoke service-smoke service-bench perfbench-check ci

# The committed coverage floor (total statement coverage, percent).
# Raise it when coverage rises; CI fails below it.
COVER_FLOOR = 76

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI bench smoke run: one iteration of the two core build benches,
# the graph-level 64k micro-benchmarks (Evolve, SpectralGap, Simple)
# that pin the flat fast path, and the session epoch-repair bench.
bench:
	$(GO) test -run='^$$' -bench='BuildTreeFast_1k|BuildTreeMessageLevel_256|Evolve_64k|SpectralGap_64k|Simple_64k|SessionEpoch' -benchtime=1x -benchmem ./...

# Machine-readable per-experiment wall/alloc results; CI uploads the
# file as the perf-trajectory artifact.
bench-json:
	$(GO) run ./cmd/benchharness -quick -json BENCH_results.json

# The allocation-regression guard: re-runs quick E12 and fails when its
# mallocs exceed 2x the committed BENCH_results.json baseline (wall
# time stays informational).
bench-guard:
	$(GO) run ./cmd/benchguard

# The full scale sweep (E12, up to n=64k message-level; takes minutes).
bench-scale:
	$(GO) test -run='^$$' -bench='E12_ScaleSweep' -benchtime=1x -benchmem -v ./...

# CPU + heap profiles of the message-level hot path (quick E12).
profile:
	$(GO) run ./cmd/benchharness -quick -only E12 -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# Coverage with the committed floor: the profile is written to
# coverage.out and cmd/covguard fails the build below $(COVER_FLOOR)%.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) run ./cmd/covguard -profile coverage.out -min $(COVER_FLOOR)

# The scenario smoke: the canned fault scenarios (crash-stop churn,
# lossy delayed network, the sustained-adversary recovery ladder, and
# the correlated domain cut) at n=4096 under the race detector, plus
# the bounded random-spec fuzzer (failing seeds shrink and print).
scenario-smoke:
	SCENARIO_N=4096 $(GO) test -race -timeout 20m -run 'TestCannedScenarios|TestScenarioFuzzSmoke' -v ./internal/scenario

# The service smoke: overlayd under the race detector, closed-loop
# loadgen with a churn+fault plan applied over the wire mid-run, a
# load burst overlapping the SIGTERM drain, and a clean exit-0
# shutdown (zero hung requests, zero dropped-on-floor errors).
service-smoke:
	bash scripts/service_smoke.sh

# Regenerate the `service` section of BENCH_results.json (the
# closed-loop lookups/sec baseline cmd/benchguard fences).
service-bench:
	bash scripts/service_bench.sh

# The benchmark is a nested module (perfbench/, importing this one
# through a replace directive), so the root ./... patterns skip it.
# Vet, test and build it here so an API change that breaks it fails
# CI instead of the next benchmark run. The binary goes to /dev/null.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./... && $(GO) build -o /dev/null .

# Fail (like CI) when any file needs formatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

fmt-fix:
	gofmt -w .

vet:
	$(GO) vet ./...

# The repo's own static-analysis suite (cmd/overlayvet): determinism,
# wire-discipline, hotpath, and single-writer contracts, enforced on
# every package. Fails on any finding.
lint:
	$(GO) run ./cmd/overlayvet ./...

# Known-vulnerability scan. Informational when govulncheck cannot be
# installed or reached (offline runners); a hard failure only when it
# runs and finds a called vulnerability (exit code 3).
vulncheck:
	@if $(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...; then \
		echo "govulncheck: no known vulnerabilities"; \
	else \
		rc=$$?; \
		if [ $$rc -eq 3 ]; then echo "govulncheck: known vulnerabilities found" >&2; exit 1; fi; \
		echo "govulncheck: unavailable (rc=$$rc), skipping (informational)"; \
	fi

ci: fmt vet lint vulncheck build race bench bench-guard cover scenario-smoke service-smoke perfbench-check
