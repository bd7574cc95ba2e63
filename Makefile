GO ?= go

.PHONY: check build vet fmt test race race-hot bench bench-smoke bench-json bench-compare figures determinism deprecations fuzz-smoke perfbench-test

## check: the full gate — build, vet, formatting, the hot-path race
## gate, the race-enabled test suite, the facade deprecation gate, the
## parallel-harness determinism gate, and the benchmark module's tests.
check: build vet fmt race-hot race deprecations determinism perfbench-test

## deprecations: the public facade must stay free of deprecated API —
## PR 5 deleted the last // Deprecated: markers; this gate keeps new
## ones from accumulating. The second grep keeps the GFW's old
## imperative mutators (SetResetStorm, SetThrottle, SetClassBlock,
## BlockIP) from coming back outside internal/gfw: censorship behaviour
## is declarative policy applied through gfw.Apply, and a stray setter
## call would bypass the provisional-verdict bookkeeping Apply does.
deprecations:
	@if grep -n "// Deprecated:" *.go; then \
		echo "deprecation gate: remove deprecated API from the public facade instead of marking it"; exit 1; \
	else \
		echo "deprecation gate: public facade carries no deprecated API"; \
	fi
	@if grep -rnE "SetResetStorm|SetThrottle|SetClassBlock|BlockIP\(" \
		--include="*.go" . | grep -v "^\./internal/gfw/"; then \
		echo "deprecation gate: mutate the GFW only through gfw.Apply(Policy)"; exit 1; \
	else \
		echo "deprecation gate: no imperative GFW mutation outside internal/gfw"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt: fail when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

## perfbench-test: vet and test the benchmark module (perfbench/), a Go
## module of its own that `go test ./...` at the root does not see but
## that compiles against the root module's APIs.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## fuzz-smoke: run every fuzz target for a fixed short time, starting
## from its committed seed corpus (testdata/fuzz/<target>). go test
## fuzzes one target per invocation, hence one line per target.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/tlssim -run '^$$' -fuzz '^FuzzParseClientHelloSNI$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tlssim -run '^$$' -fuzz '^FuzzServerHandshake$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pac -run '^$$' -fuzz '^FuzzHash32MatchesRenderedJS$$' -fuzztime $(FUZZTIME)

race:
	$(GO) test -race ./...

## race-hot: the race detector focused on the hot-path packages the
## event-batching/pooling work touches (vclock's timer wheel and event
## freelist, netsim's packet freelist, the cache and fleet state
## machines). Runs first in `make check` so a data race in the
## simulator core fails fast; the full `race` pass then reuses these
## packages' cached results.
race-hot:
	$(GO) test -race ./internal/vclock ./internal/netsim ./internal/cache ./internal/fleet ./internal/censor

## bench: regenerate every figure's benchmark row once.
bench:
	$(GO) test -run NONE -bench . -benchtime 1x .

## bench-smoke: run every benchmark in the repo once, as a smoke test
## (includes the obs hot-path allocation benchmarks).
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

## bench-json: run the full figure sweep and record the machine-readable
## performance report. Pinned to one core and one worker so the
## committed baseline is a stable single-core number — benchcompare
## refuses to diff reports whose gomaxprocs/seeds/full metadata
## disagree, so regenerate the baseline with this target, not by hand.
## BENCH_experiments.json (via this target and bench-compare) is the
## single source of truth for throughput claims quoted in
## ROADMAP/EXPERIMENTS.
bench-json:
	GOMAXPROCS=1 $(GO) run ./cmd/scholarbench -fig all -parallel 1 -bench-out BENCH_experiments.json > /dev/null

## bench-compare: run the full figure sweep fresh (same pinning as
## bench-json) and fail when any figure's wall time regressed >50%
## against the committed baseline.
bench-compare:
	GOMAXPROCS=1 $(GO) run ./cmd/scholarbench -fig all -parallel 1 -bench-out /tmp/scholarbench-fresh.json > /dev/null
	$(GO) run ./cmd/benchcompare -baseline BENCH_experiments.json \
		-fresh /tmp/scholarbench-fresh.json -tolerance 0.5

## determinism: the parallel harness's core guarantee — the full figure
## sweep (which includes the faults figure) must be byte-identical at
## -parallel 1 and -parallel 4, and the fault-heavy figure alone at a
## third worker count to cover odd scheduling interleavings.
determinism:
	@$(GO) build -o /tmp/scholarbench-gate ./cmd/scholarbench
	@/tmp/scholarbench-gate -fig all -parallel 1 > /tmp/scholarbench-p1.txt
	@/tmp/scholarbench-gate -fig all -parallel 4 > /tmp/scholarbench-p4.txt
	@cmp /tmp/scholarbench-p1.txt /tmp/scholarbench-p4.txt && \
		echo "determinism gate: -parallel 4 output byte-identical to -parallel 1"
	@/tmp/scholarbench-gate -fig faults -parallel 3 > /tmp/scholarbench-faults-p3.txt
	@/tmp/scholarbench-gate -fig faults -parallel 1 > /tmp/scholarbench-faults-p1.txt
	@cmp /tmp/scholarbench-faults-p1.txt /tmp/scholarbench-faults-p3.txt && \
		echo "determinism gate: -fig faults byte-identical at -parallel 1 and -parallel 3"
	@/tmp/scholarbench-gate -fig transports -parallel 1 > /tmp/scholarbench-transports-p1.txt
	@/tmp/scholarbench-gate -fig transports -parallel 3 > /tmp/scholarbench-transports-p3.txt
	@cmp /tmp/scholarbench-transports-p1.txt /tmp/scholarbench-transports-p3.txt && \
		echo "determinism gate: -fig transports byte-identical at -parallel 1 and -parallel 3"
	@/tmp/scholarbench-gate -fig censor -parallel 1 > /tmp/scholarbench-censor-p1.txt
	@/tmp/scholarbench-gate -fig censor -parallel 3 > /tmp/scholarbench-censor-p3.txt
	@cmp /tmp/scholarbench-censor-p1.txt /tmp/scholarbench-censor-p3.txt && \
		echo "determinism gate: -fig censor byte-identical at -parallel 1 and -parallel 3"
	@/tmp/scholarbench-gate -fig shards -parallel 1 > /tmp/scholarbench-shards-p1.txt
	@/tmp/scholarbench-gate -fig shards -parallel 3 > /tmp/scholarbench-shards-p3.txt
	@cmp /tmp/scholarbench-shards-p1.txt /tmp/scholarbench-shards-p3.txt && \
		echo "determinism gate: -fig shards byte-identical at -parallel 1 and -parallel 3"
	@/tmp/scholarbench-gate -fig autoscale -parallel 1 > /tmp/scholarbench-autoscale-p1.txt
	@/tmp/scholarbench-gate -fig autoscale -parallel 3 > /tmp/scholarbench-autoscale-p3.txt
	@cmp /tmp/scholarbench-autoscale-p1.txt /tmp/scholarbench-autoscale-p3.txt && \
		echo "determinism gate: -fig autoscale byte-identical at -parallel 1 and -parallel 3"
	@/tmp/scholarbench-gate -fig scale -parallel 1 > /tmp/scholarbench-scale-p1.txt
	@/tmp/scholarbench-gate -fig scale -parallel 3 > /tmp/scholarbench-scale-p3.txt
	@cmp /tmp/scholarbench-scale-p1.txt /tmp/scholarbench-scale-p3.txt && \
		echo "determinism gate: -fig scale byte-identical at -parallel 1 and -parallel 3"

## figures: regenerate the paper's figures (quick sampling).
figures:
	$(GO) run ./cmd/scholarbench
