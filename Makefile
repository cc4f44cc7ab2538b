# botgrid build/test entry points.
#
#   make build   compile every package and command
#   make test    run the full test suite
#   make race    run the full suite under the race detector
#   make vet     static checks
#   make lint    go vet, then botlint, the in-tree analysis suite, all
#                eight rules: determinism, lock discipline, lock ordering,
#                typed atomics (vet's copylocks check backs this rule),
#                hot-path hygiene, the compiler-backed escape gate,
#                wire/JSON protocol parity and error strictness (see
#                DESIGN.md "Static guarantees")
#   make escape-gate  just the escape rule: go build -gcflags=-m over the
#                module, failing on heap escapes in //botlint:hotpath
#                functions (the CI lint job runs this even when the unit
#                tests are skipped)
#   make benchmark  the repository benchmark (BENCHMARK.json): seven
#                end-to-end workloads over the simulator and the dispatch
#                plane in one process; see bench/README.md for sizes,
#                -trace 1 and -compare
#   make check   everything the CI gate runs

GO ?= go

.PHONY: all build test race vet lint escape-gate benchmark check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint: vet
	$(GO) run ./cmd/botlint ./...

escape-gate:
	$(GO) run ./cmd/botlint -only escape ./...

benchmark:
	bash bench/run.sh

check: build vet lint test race

clean:
	$(GO) clean ./...
