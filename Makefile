# DOEM/Chorel reproduction — common targets.

GO ?= go

.PHONY: all build test race vet lint cover bench bench-e2e examples fuzz ci fmtcheck benchmark-module clean

all: build test

# Mirrors .github/workflows/ci.yml locally: formatting gate, build, vet,
# tests, the benchmark module's vet and tests, and the race-detector run
# that gates concurrent callers sharing one engine, store or service.
# (CI additionally runs `make lint`, which needs network access to
# install its tools.)
ci: fmtcheck build test benchmark-module race

# The benchmark is a Go module of its own, which `./...` does not reach.
benchmark-module:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet plus vulnerability scanning; mirrors the CI
# lint job. Installs the tools on first use (network required).
lint:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@latest
	$(GO) install golang.org/x/vuln/cmd/govulncheck@latest
	$$($(GO) env GOPATH)/bin/staticcheck ./...
	$$($(GO) env GOPATH)/bin/govulncheck ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's end-to-end benchmark (BENCHMARK.json, benchmark/README.md):
# all four workloads, timed, each run appended to $(BENCH_REPORT). Compare
# two report files with `bash benchmark/run.sh -compare A.jsonl B.jsonl`.
BENCH_REPORT ?= .bench_build/report.jsonl
bench-e2e:
	bash benchmark/run.sh --report $(BENCH_REPORT)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/restaurants
	$(GO) run ./examples/subscription
	$(GO) run ./examples/timetravel
	$(GO) run ./examples/htmldiff
	$(GO) run ./examples/triggers

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/lorel/
	$(GO) test -fuzz='^FuzzParseUpdate$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/lorel/
	$(GO) test -fuzz='^FuzzEval$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/lorel/
	$(GO) test -fuzz='^FuzzPlanCacheKey$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/lorel/
	$(GO) test -fuzz='^FuzzToOEM$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/htmldiff/
	$(GO) test -fuzz='^FuzzMarkup$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/htmldiff/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/timestamp/
	$(GO) test -fuzz='^FuzzLabelRoundTrip$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/encoding/
	$(GO) test -fuzz='^FuzzEncodeDecode$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/encoding/
	$(GO) test -fuzz='^FuzzRead$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/oemio/
	$(GO) test -fuzz='^FuzzWALRecordDecode$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/wal/
	$(GO) test -fuzz='^FuzzFileFrame$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/wal/
	$(GO) test -fuzz='^FuzzRequestDecode$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/qss/
	$(GO) test -fuzz='^FuzzReadLine$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/qss/
	$(GO) test -fuzz='^FuzzPollDiff$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/qss/
	$(GO) test -fuzz='^FuzzAccessPaths$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/doem/
	$(GO) test -fuzz='^FuzzDOEMDecode$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/doem/
	$(GO) test -fuzz='^FuzzSegmentParity$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/segment/
	$(GO) test -fuzz='^FuzzSegmentFiles$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/segment/
	$(GO) test -fuzz='^FuzzReplFrameDecode$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/repl/
	$(GO) test -fuzz='^FuzzFilterFingerprint$$' -fuzztime=30s -fuzzminimizetime=2s -run xxx ./internal/incr/

clean:
	rm -f test_output.txt bench_output.txt htmldiff-output.html
