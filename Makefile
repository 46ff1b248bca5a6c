# Verification entry points. CI (.github/workflows/ci.yml) runs `make check`;
# each target is independently useful during development.

GO ?= go

.PHONY: check build vet lint lint-effects test race fuzz-smoke soak-smoke trace-smoke serve-smoke cluster-smoke bench bench-smoke microbench-smoke profile-finegrain profile-mesh profile-serve ledger

# Everything CI runs, in CI's order.
check: vet lint build test race fuzz-smoke soak-smoke trace-smoke serve-smoke cluster-smoke bench-smoke microbench-smoke

build:
	$(GO) build ./...

# go vet, and gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# detlint: the repository's determinism-hazard analyzer (see DESIGN.md,
# "Determinism hazards and how we check them"). Non-zero exit on any
# finding; scope is detlint.conf at the repo root.
lint:
	$(GO) run ./cmd/detlint ./...

# Only the interprocedural effect passes (see DESIGN.md, "Effect analysis
# and the failsafe theorem"): failsafe-point verification, commit-handler
# purity and fingerprint taint. Useful while working on operator code,
# where these are the rules that actually move.
lint-effects:
	$(GO) run ./cmd/detlint -run failsafe,commitpure,taintfp ./...

test:
	$(GO) test ./...

# The race detector covers the runtime and the apps — the packages where
# goroutines share marks, worklists and task state. detlint's static rules
# and -race are complementary: the linter catches order hazards races
# never exhibit, the race detector catches unsynchronized access the
# linter cannot see. dt's speculative test runs ten times more: a commit
# that publishes its new triangles too early races only now and then.
race:
	$(GO) test -race ./internal/marks/... ./internal/detres/... ./internal/core/... ./internal/apps/... ./internal/serve/... ./internal/session/... ./internal/router/... ./internal/para/... ./internal/psort/... ./internal/scan/...
	$(GO) test -race -count=10 -run TestGaloisNondetMatchesSeq ./internal/apps/dt

# Native fuzzing, three seconds per target: the seed corpora run in `test`;
# this explores past them. `go test -fuzz` takes one target per run, so the
# loop runs one each. A finding fails the target, and Go names the failing
# input it writes under that package's testdata/fuzz/ — nothing lands in
# the tree otherwise.
FUZZ_TARGETS = \
	./internal/serve:FuzzSpecDecode \
	./internal/serve:FuzzInputSize \
	./internal/session:FuzzCanonEncodings \
	./internal/rescache:FuzzKeyOf \
	./internal/mesh:FuzzStarWiring \
	./internal/geom:FuzzOrientConsistency \
	./internal/geom:FuzzInCircleSymmetry
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t##*:} ($${t%%:*})"; \
		$(GO) test -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime 3s $${t%%:*}; \
	done

# What a finished job leaves behind is bounded: a kept engine, once
# scrubbed, holds nothing of its runs (weak pointers die), a speculative run
# whose operator panics leaves no worker busy and the engine reusable, and a
# server's live heap after a collection is as large after 84 never-repeated
# jobs as after 42. Riding along, the context a commit handler built once
# per loop reads its task (Ctx.Item) and its plan (PlanOf) from, under every
# scheduler at 1, 2 and 4 workers. All under the race detector, half a
# minute; `make soak` — minutes of mixed load — is still owed (ROADMAP).
soak-smoke:
	$(GO) test -race -count=1 -run 'TestScrubReleasesRunData|TestFailedRunLeavesNoClosures|TestNonDetPanicIsContained|TestCtxItem|TestPlanOf' ./internal/core
	$(GO) test -race -count=1 -run 'TestServerMemoryIsBounded' ./internal/serve

# End-to-end trace check: run one traced figure at small scale, then prove
# the emitted Chrome trace-event JSON parses and is structurally sound
# (cmd/tracecheck). Guards the whole obs pipeline — instrumentation, sink,
# export — without needing a trace viewer in CI.
trace-smoke:
	$(GO) run ./cmd/repro -fig window -scale small -threads 2 -trace trace.json > /dev/null
	$(GO) run ./cmd/tracecheck trace.json

# End-to-end serving check: galoisd on an ephemeral port, one concurrent
# curl burst (every kind × g-n/g-d/g-dnc at threads 1 and 2, each det
# receipt re-verified through POST /verify), a warm-cache check, a session
# chain, then a graceful SIGTERM drain. Fails on any determinism mismatch,
# verification failure or request error.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end cluster check: two galoisd backends behind a galoisrouter on
# ephemeral ports, the same curl burst routed across them (a det cell's two
# fingerprints agree across backends), the cross-node verify demo (a
# receipt produced on backend A verified on backend B), one sticky session,
# then a SIGTERM drain of the whole stack.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# galoisbench, the repository's benchmark (benchmark/README.md): every
# workload of BENCHMARK.json, five untraced runs and one traced pass each,
# built from this checkout into .bench_build/. Takes several minutes; one
# workload is `bash benchmark/run.sh --workload engine-finegrain --seed 42
# --seconds 15 --trace 0`.
bench:
	bash benchmark/run.sh

# The benchmark's own unit tests, including a smoke pass of all five
# workloads on tiny inputs with every output checked: under ten seconds, so
# CI runs it to keep the yardstick building against the tree it measures.
bench-smoke:
	cd benchmark && $(GO) test .

# The removal ledger: non-test Go lines outside benchmark/ and testdata/,
# the count every removal PR quotes (ROADMAP, ground rules). Not in check.
ledger:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs cat | wc -l

# Every in-tree microbenchmark of the packages EXPERIMENTS.md H14–H16 and
# H29 cite rows from, one iteration each: they keep compiling and running,
# nothing is timed.
microbench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/mesh ./internal/marks ./internal/para ./internal/core ./internal/worklist ./internal/graph

# Where a per-task cost claim starts: a CPU profile of the fine-grained hot
# loop — bfs and mis, g-d, repeated on one reused engine at two threads,
# collector off so the profile shows the scheduler and not the GC — printed
# as `pprof -top`. Binary and profile land in PROFILE_DIR (outside the
# tree by default); `go tool pprof -list <regexp>` on them goes deeper.
PROFILE_DIR ?= /tmp/galois-profile
profile-finegrain:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/repro ./cmd/repro
	GOGC=off $(PROFILE_DIR)/repro -loop bfs/g-d,mis/g-d -reps 10 -threads 2 -scale default -cpuprofile $(PROFILE_DIR)/finegrain.cpu.pprof
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/repro $(PROFILE_DIR)/finegrain.cpu.pprof

# The same for the mesh kernel: dt and dmr, g-d, with the collector ON —
# what dt/dmr leave for it to mark is part of the finding (EXPERIMENTS.md
# H16). Small scale (dt 4 000 points, dmr 2 000) is close to the sizes
# galoisbench's engine-mesh times (dt 6 000, dmr 3 000); default scale is
# 20 times that, where the collector and the input builds weigh more than
# they do in the benchmark's op (H26). Each run is tens of ms, so 300 reps
# give each cell over a thousand samples.
# The same run also writes an allocation profile, printed by objects
# allocated (EXPERIMENTS.md H23). `repro -loop` fingerprints every run, so
# each table is printed twice: whole, and without the frames under
# mesh.Fingerprint.
profile-mesh:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/repro ./cmd/repro
	$(PROFILE_DIR)/repro -loop dt/g-d,dmr/g-d -reps 300 -threads 2 -scale small -cpuprofile $(PROFILE_DIR)/mesh.cpu.pprof -memprofile $(PROFILE_DIR)/mesh.allocs.pprof
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/repro $(PROFILE_DIR)/mesh.cpu.pprof
	$(GO) tool pprof -top -nodecount=25 -ignore 'mesh\.Fingerprint' $(PROFILE_DIR)/repro $(PROFILE_DIR)/mesh.cpu.pprof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 $(PROFILE_DIR)/repro $(PROFILE_DIR)/mesh.allocs.pprof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 -ignore 'mesh\.Fingerprint' $(PROFILE_DIR)/repro $(PROFILE_DIR)/mesh.allocs.pprof

# And for the serving miss path, where the question is what finished jobs
# leave behind (EXPERIMENTS.md H17): an in-process galoisd under two
# closed-loop clients submitting never-repeated specs of every kind for 15 s.
# The CPU table shows what the collector costs (scanobject, gcAssistAlloc,
# gcBgMarkWorker); the inuse_space table is the heap when the window ends,
# after a collection, before shutdown — who still holds what.
profile-serve:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/repro ./cmd/repro
	$(PROFILE_DIR)/repro -serve 15s -cpuprofile $(PROFILE_DIR)/serve.cpu.pprof -memprofile $(PROFILE_DIR)/serve.heap.pprof
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/repro $(PROFILE_DIR)/serve.cpu.pprof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=25 $(PROFILE_DIR)/repro $(PROFILE_DIR)/serve.heap.pprof
