# botgrid build/test entry points.
#
#   make build   compile every package and command
#   make test    run the full test suite
#   make race    run the full suite under the race detector
#   make vet     static checks
#   make lint    botlint, the in-tree analysis suite, all eight rules:
#                determinism, lock discipline, lock ordering, atomic
#                access, hot-path hygiene, the compiler-backed escape
#                gate, wire/JSON protocol parity and error strictness
#                (see DESIGN.md "Static guarantees")
#   make escape-gate  just the escape rule: go build -gcflags=-m over the
#                module, failing on heap escapes in //botlint:hotpath
#                functions (the CI lint job runs this even when the unit
#                tests are skipped)
#   make bench   dispatch-decision, DES event-loop, journal
#                (append + recovery-replay) and wire-codec
#                micro-benchmarks, recorded to BENCH_sched.json; fails if
#                any dispatch-decision or wire encode/decode benchmark —
#                including the fsync=off journaled twin
#                (BenchmarkJournaledDispatchDecision) —
#                reports a nonzero allocs/op. Then the whole-simulation
#                replication suite (ladder engine vs the pre-ladder heap
#                baseline, each engine in its own process so GC pacing
#                starts equal, 3 runs per cell, medians) recorded as
#                events/sec per configuration to BENCH_des.json, plus the
#                ladder-only scale cells (100k/250k/1M machines, 10k
#                concurrent bags, utilization at and past 1) and the
#                parallel sweep-engine scaling series (reps/sec at
#                1/2/4/8 workers; on a single-core host the series reads
#                as pool overhead-neutrality — see the "cpus" metric)
#   make bench-serve  sustained dispatch throughput of the live sharded
#                service: botload in-process at shards 1/2/4/8 over both
#                transports (JSON/HTTP and the binary wire protocol),
#                100k simulated worker identities multiplexed over 256
#                driver goroutines, recorded side by side to
#                BENCH_serve.json (dispatch/s, fetch p99, cpus). On a
#                single-core host the trajectory shows lock-contention
#                relief, not wall-clock speedup; the "cpus" metric
#                records what parallelism the numbers were measured at
#                (see DESIGN.md "Sharded dispatch" and "Wire protocol")
#   make benchmark  the repository benchmark (BENCHMARK.json): seven
#                end-to-end workloads over the simulator and the dispatch
#                plane in one process; see bench/README.md for sizes,
#                -trace 1 and -compare
#   make check   everything the CI gate runs

GO ?= go

.PHONY: all build test race vet lint escape-gate bench bench-serve benchmark check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/botlint ./...

escape-gate:
	$(GO) run ./cmd/botlint -only escape ./...

bench:
	@{ $(GO) test -bench BenchmarkDispatchDecision -benchmem -run '^$$' ./internal/core/ && \
	   $(GO) test -bench 'BenchmarkEventLoop|BenchmarkScheduleCancel' -benchmem -run '^$$' ./internal/des/ && \
	   $(GO) test -bench 'BenchmarkJournaledDispatchDecision|BenchmarkJournalAppend|BenchmarkRecoveryReplay' -benchmem -run '^$$' ./internal/journal/ && \
	   $(GO) test -bench 'BenchmarkWireEncode|BenchmarkWireDecode' -benchmem -run '^$$' ./internal/wire/ ; } \
	 | tee bench.out
	$(GO) run ./cmd/benchjson -require-zero-allocs '^(BenchmarkDispatchDecision|BenchmarkJournaledDispatchDecision|BenchmarkWireEncode|BenchmarkWireDecode)' < bench.out > BENCH_sched.json
	@rm -f bench.out
	@echo "wrote BENCH_sched.json"
	@{ $(GO) test -bench '^BenchmarkReplication$$' -benchmem -benchtime 1x -count 3 -timeout 60m -run '^$$' ./internal/core/ && \
	   $(GO) test -bench '^BenchmarkReplicationBaselineHeap$$' -benchmem -benchtime 1x -count 3 -timeout 60m -run '^$$' ./internal/core/ && \
	   $(GO) test -bench '^BenchmarkReplicationScale$$' -benchmem -benchtime 1x -count 3 -timeout 60m -run '^$$' ./internal/core/ && \
	   $(GO) test -bench '^BenchmarkSweep$$' -benchmem -benchtime 1x -count 3 -timeout 60m -run '^$$' ./internal/experiment/ ; } \
	 | tee benchdes.out
	$(GO) run ./cmd/benchjson -median < benchdes.out > BENCH_des.json
	@rm -f benchdes.out
	@echo "wrote BENCH_des.json"

bench-serve:
	@rm -f benchserve.out
	@for n in 1 2 4 8; do \
	   for t in "" "-wire"; do \
	     $(GO) run ./cmd/botload -addr "" -policy FairShare -shards $$n $$t \
	       -workers 100000 -drivers 256 -bags 16 -tasks 500 -timescale 0 \
	       -duration 10s -bench | tee -a benchserve.out ; \
	   done ; \
	 done
	$(GO) run ./cmd/benchjson < benchserve.out > BENCH_serve.json
	@rm -f benchserve.out
	@echo "wrote BENCH_serve.json"

benchmark:
	bash bench/run.sh

check: build vet lint test race

clean:
	$(GO) clean ./...
