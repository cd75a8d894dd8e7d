GO ?= go

.PHONY: check build test vet race equiv faults bench bench-route bench-stash bench-harden benchall obs-smoke cache-smoke serve-smoke harden-smoke trace-smoke bench-route-smoke serve-load

## check: the full gate — vet, build, unit tests, the race-enabled
## fault-injection suite, then the observability, stage-cache, daemon,
## hardened-macro and execution-tracer smoke tests (what CI should run).
check: vet build test race obs-smoke cache-smoke serve-smoke harden-smoke trace-smoke bench-route-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## race: race-enabled run of the hardened-runner, fault-harness and
## incremental-engine packages. Includes the ddb equivalence property
## test (parallel extract/STA at GOMAXPROCS 4) and the flows
## worker-equivalence tests — default and -analytic-place — which
## audit routing's parallel net prep and overflow scan and the placers
## for data races while asserting identical PPA against the -j 1
## reference; under
## -race both run reduced configs — see the race_on_test.go files.
## internal/place rides along for the analytic placer's own
## determinism and quality tests.
race:
	$(GO) test -race ./internal/faults/ ./internal/report/ ./internal/obs/ ./internal/stash/ ./internal/serve/
	$(GO) test -race -timeout 30m ./internal/flows/ ./internal/ddb/ ./internal/opt/ ./internal/place/

## equiv: just the parallel-vs-serial equivalence proof — every flow at
## -j 1 / 4 / 0 must produce an identical PPA, run under the race
## detector. A focused subset of what `make check` already covers.
equiv:
	$(GO) test -race -timeout 30m -run TestWorkerEquivalence -v ./internal/flows/

## obs-smoke: end-to-end observability check — tiny flow with -events
## and -obs-addr, live /metrics and /debug/vars scrapes, JSONL and
## Prometheus snapshot validation. Fails on any malformed output.
obs-smoke:
	GO="$(GO)" sh scripts/obs_smoke.sh

## cache-smoke: end-to-end stage-cache check — tiny flow cold, warm and
## in -cache-verify mode, asserting hit counters and byte-identical PPA
## output, plus the -resume default directory.
cache-smoke:
	GO="$(GO)" sh scripts/cache_smoke.sh

## serve-smoke: end-to-end daemon check — start "macro3d serve" with a
## byte-capped shared cache, submit two overlapping sweep jobs, assert
## the second is served warm with an identical result, then drain
## cleanly on SIGTERM.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

## harden-smoke: end-to-end hierarchical-flow check — harden the tiny
## tile cold into the cache, reload it warm into a 3×3 parent array,
## asserting harden-cache counters, clean verification, closure at the
## tile period and a well-formed abstract LEF export.
harden-smoke:
	GO="$(GO)" sh scripts/harden_smoke.sh

## trace-smoke: end-to-end execution-tracer check — tiny flow with
## -trace, Chrome trace-event JSON validation, normalized-determinism
## comparison of two identical runs, the trace-report bottleneck table,
## and byte-identical flow output with tracing off.
trace-smoke:
	GO="$(GO)" sh scripts/trace_smoke.sh

## bench-route-smoke: benchmark-pipeline check — one cheap flat-array
## benchmark run (N=1, count 1) piped through benchjson, asserting the
## speedup pairs, their noise verdicts, stddev/CV, the analytic
## placer's HPWL quality row and the pinned environment all land in
## the JSON, and that the analytic HPWL ratio is ≤ 1.0.
bench-route-smoke:
	GO="$(GO)" sh scripts/bench_route_smoke.sh

## serve-load: the multi-tenant load driver — 8 concurrent tenants with
## overlapping specs against a small queue (exercising 429
## backpressure) plus one injected panicking job; asserts zero
## dropped/corrupted results, panic isolation, cross-tenant cache hits
## and the cache byte cap, and prints a JSON summary.
serve-load:
	$(GO) run ./cmd/serveload -tenants 8 -jobs-per-tenant 2 -workers 4 -queue 2

## faults: just the fault-injection matrix, verbosely.
faults:
	$(GO) test -race -v -run 'TestInjection|TestOffGrid|TestCleanFlows' ./internal/faults/

## bench: the incremental-optimizer comparison — TableII end to end plus
## the Optimize full-vs-incremental micro-benchmarks — recorded as
## machine-readable BENCH_opt.json.
bench:
	$(GO) test -bench 'TableII|Optimize' -count 5 -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchjson | tee BENCH_opt.json

## bench-route: the parallel-engine comparison — the large-cache tile
## and the flat BENCH_SIZE×BENCH_SIZE tile array, serial (-j 1) vs the
## default engines vs -analytic-place (electrostatics placer) at BENCH_J
## pinned workers — recorded as machine-readable BENCH_route.json with
## stddev/CV, a noise verdict per speedup pair, and the analytic
## placer's HPWL-over-default quality ratio. Knobs: BENCH_COUNT
## repetitions, BENCH_SIZE array edge, BENCH_J workers, e.g.
## `make bench-route BENCH_COUNT=3 BENCH_SIZE=2`.
BENCH_COUNT ?= 5
BENCH_SIZE  ?= 3
BENCH_J     ?= 8
bench-route:
	BENCH_ROUTE_N=$(BENCH_SIZE) BENCH_ROUTE_J=$(BENCH_J) $(GO) test -timeout 0 -bench 'BenchmarkRouteDesign|BenchmarkPlace|BenchmarkRouteFlat|BenchmarkPlaceFlat' -count $(BENCH_COUNT) -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchjson | tee BENCH_route.json

## bench-stash: the stage-cache comparison — the Table I sweep cold
## (populating the cache) vs warm (restoring every checkpoint), both
## verified against an uncached reference — recorded as BENCH_stash.json
## with the stash_cold_over_warm headline ratio.
bench-stash:
	$(GO) test -bench BenchmarkStashSweep -count 3 -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchjson -o BENCH_stash.json
	cat BENCH_stash.json

## bench-harden: the hierarchical-flow comparison — the same 4×4 tile
## array re-verified flat (full STA over every cell) vs instantiated
## from a cached hardened abstract in the parent flow — recorded as
## BENCH_harden.json with the harden_flat_over_hier headline ratio.
bench-harden:
	$(GO) test -bench BenchmarkHardenArray -count 3 -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchjson -o BENCH_harden.json
	cat BENCH_harden.json

## benchall: every benchmark, human-readable.
benchall:
	$(GO) test -bench=. -benchmem
