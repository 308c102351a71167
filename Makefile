# extremenc — build/test/reproduce targets. Everything is stdlib Go.

GO ?= go

# Packages covered by the race detector: the codec hot paths (worker pool,
# gf256 kernels, decode pipelines) plus everything that moves blocks across
# goroutines. One list, shared by `vet`'s quick pass and the `race` target,
# and mirrored by the CI workflow.
RACE_PKGS = ./internal/gf256/ ./internal/rlnc/ ./internal/netio/ ./internal/harness/ ./internal/core/ ./internal/stream/ ./internal/obs/ ./internal/obs/trace/ .

.PHONY: all build fmt-check vet test loc race fuzz-regress chaos staticcheck serve-smoke metrics-smoke xor-smoke mesh-smoke load-smoke drain-chaos soak-smoke trace-smoke loadtest bench bench-host bench-smoke bench-check ci figures figures-csv examples clean

all: build vet test

build:
	$(GO) build ./...

# Fail when any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static checks, including asmdecl over the gf256 kernels' frame layouts. The
# race pass lives in the `race` target (over RACE_PKGS) so `ci` runs it
# exactly once.
vet:
	$(GO) vet ./...

# The second and third lines keep the non-SIMD builds honest on an amd64
# runner. `purego` is a build tag — it compiles the gf256 assembly out so the
# portable kernels (the fallback on hosts without a SIMD rung, and the oracle
# the SIMD kernels are tested against) run the codec's own tests — not a runtime
# switch: a built binary picks its kernel from the CPU alone. The arm64
# cross-build (offline; stdlib only) proves the non-amd64 stubs exist. The
# last line vets and tests benchmark/: it is a nested module, so `./...`
# never reaches it, yet it imports internal/netio and internal/mesh and
# breaks when their API moves. The repeat of the rolling-restart gate (≈ 3.5 s
# green) is there because it once failed every other run on a drain that
# answered BUSY: one pass cannot show that a flake is gone.
test:
	$(GO) test ./...
	$(GO) test -count=5 -run 'TestMeshRollingRestart$$' ./internal/mesh/
	$(GO) test -tags purego ./internal/gf256/ ./internal/rlnc/
	GOARCH=arm64 $(GO) build ./...
	$(GO) vet -C benchmark . && $(GO) test -C benchmark .

# Size report: non-test Go lines per top-level directory (internal/ and cmd/
# also per package; the root package's own files are "(root)"), the serving
# set ROADMAP item 9 tracks against its target, and the number of exported
# identifiers of package extremenc and of the serving packages under it —
# the numbers a subtraction change is judged by. An exported identifier is every
# name `go doc -all` lists at top level: each const, var, type and func, and
# each member of a grouped const/var/type block (methods are not counted).
loc:
	@echo "non-test Go lines:"
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' -exec wc -l {} + | awk ' \
		$$2 == "total" { next } \
		{ n = split($$2, p, "/"); top = (n == 2) ? "(root)" : p[2]; lines[top] += $$1; \
		  if (top == "internal" || top == "cmd") lines[top "/" p[3]] += $$1; \
		  if (top == "cmd" || top == "benchmark" || p[3] == "netio" || p[3] == "mesh") tracked += $$1; \
		  if (top != "benchmark") sum += $$1 } \
		END { for (d in lines) printf "  %-24s %6d\n", d, lines[d]; \
		      printf "  %-24s %6d\n", "total outside benchmark/", sum; \
		      printf "  %-24s %6d (internal/netio + internal/mesh + cmd + benchmark; ROADMAP item 9 target <= 8900)\n", "tracked serving set", tracked }' | sort
	@for pkg in . ./internal/netio ./internal/mesh ./internal/rlnc; do \
		if [ $$pkg = . ]; then name='package extremenc'; else name=$${pkg#./}; fi; \
		printf 'exported identifiers in %s: ' "$$name"; \
		$(GO) doc -all $$pkg | awk ' \
			/^(const|var|type) \($$/ { blk = 1; next } \
			blk && /^\)/ { blk = 0; next } \
			blk && /^\t[A-Z][A-Za-z0-9_]*/ { print $$1; next } \
			/^(const|var|type) [A-Z]/ { print $$2; next } \
			/^func [A-Z]/ { n = $$2; sub(/\(.*/, "", n); print n }' | sort -u | wc -l; \
	done

# The second line repeats the credit, park and slow-reader tests ten times: a
# lost pump wake-up (a grant the pump never sees) parks a session forever, and
# one pass cannot show that none is left. It repeats the dense sweep-table
# count too: concurrent sessions race on the CAS of the table's shared
# entries, and one of them must publish each exactly once. It repeats the
# media tests: sessions read the caller's media, not a copy, concurrently with
# the pump, and a session's first flush races the table's next encode. And it
# repeats the dispatch-floor byte-identity tests: a pooled batch shares its
# encoder's or recoder's operand fields with the pool workers. And it repeats
# the relay's held-record tests: a relay's sessions sweep the upstream records
# it holds while its fetch copies in others, and a reconnect to an origin of
# another key races the downstream sessions reading the held records. And it
# repeats the counting tests of a sweep that waits for its source: a sweep
# parks on the source's next record while the source lets records in, and a
# stalled one must end on the write deadline with no goroutine left behind; a
# fetch fed only spanned rows must write one need record a grant, never spin.
race:
	$(GO) test -race -count=1 $(RACE_PKGS)
	$(GO) test -race -count=10 -run 'TestCredit|TestSatisfiedServerParks|TestDependentGrantCostsAReask|TestDenseTableOncePerServer|TestServerHoldsMediaOnce|TestColdSweepFirstRecordAfterOneEncode|TestSlowReaders$$|AcrossDispatchFloor$$|TestRelayRekeyedUpstream|TestRelayHoldsCounterRecordsOnce|TestRelayHopsCarryTheirRecords|TestCounterSessionAdmitsRecodes|TestSweepWaitsForItsSource|TestSweepStalledSourceEndsSession|TestLyingSourceAsksOncePerGrant' ./internal/netio/ ./internal/harness/ ./internal/rlnc/ ./internal/mesh/

# Replay the committed fuzz seed corpora as regression tests (every F.Add
# case plus any checked-in corpus files), then spend a short, time-boxed live
# budget on every reader of what a peer or a disk hands the code unchecked: the
# control records (handshake, need record, resume state), the one XNC1/XNC2/XNC3
# record reader (held to the one writer), and the fetcher's record loop into
# decoders and into a recoder sink. The seeds include a relay's counter
# session — XNC3 records and XNC1 recodes — and one with an XNC2 record of
# the counter size, which must be refused.
fuzz-regress:
	$(GO) test -run 'Fuzz' -count=1 ./internal/gf256/ ./internal/rlnc/ ./internal/netio/
	$(GO) test -run '^$$' -fuzz=FuzzControlRecord -fuzztime=10s ./internal/netio/
	$(GO) test -run '^$$' -fuzz=FuzzRecordDispatch -fuzztime=10s ./internal/rlnc/
	$(GO) test -run '^$$' -fuzz=FuzzFetchRecords -fuzztime=10s ./internal/netio/

# Chaos acceptance gate: a full fetch through the deterministic
# fault-injection link (corruption, stalls, repeated resets) must complete
# byte-identical under the race detector without losing decoder rank.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/netio/

# Deep static analysis. Skips gracefully when the staticcheck binary is not
# installed (we never install dependencies from a build target); CI installs
# the pinned version explicitly and runs this same target.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

# End-to-end serving gate: boot the session server against a loopback
# listener, fetch with concurrent clients, and check payloads and metrics
# accounting — once in dense mode, once in systematic mode. In both, every
# session is written one sweep and nothing else on this clean link: each
# client reads exactly n × segments records, none is shed, and the pump
# encodes nothing (a dense server's only encodes are its sweep table's, built
# once for all clients). Building the server must grow the heap by under 1/8
# of the media beside one padded last segment and 8 KiB: it serves the media,
# not a copy.
serve-smoke:
	$(GO) run ./cmd/nc smoke serve -clients 4
	$(GO) run ./cmd/nc smoke serve -clients 4 -mode systematic

# Observability end-to-end gate: serve with the metrics endpoint on, fetch
# over loopback with a registry-attached client, scrape /metrics over HTTP,
# and validate the exposition with the in-repo parser — core series nonzero,
# stage histograms populated, /metrics.json and /debug/pprof/ routed.
metrics-smoke:
	$(GO) run ./cmd/nc smoke metrics

# Systematic + XOR fast-path end-to-end gate: a systematic-mode server and a
# client fetch over loopback (clean, then through a lossy faultnet link). The
# clean fetch must read exactly one sweep with nothing encoded or shed, the
# lossy one must have sent a need record or reconnected, and the run is
# rejected unless the rlnc.xor_absorb stage histogram recorded spans — the
# observable proof that the GF(2) XOR-only decode path actually engaged.
xor-smoke:
	$(GO) run ./cmd/nc smoke xor

# Relay-mesh end-to-end gate, entirely under the race detector: origin →
# recoding relays → leaves over loopback TCP with faultnet chaos between the
# tiers, two of three relays killed mid-transfer, every leaf byte-identical
# with monotone per-segment rank, remediation counters nonzero in a scraped
# exposition, and the relay tier beating a capped origin on aggregate
# throughput. The whole package runs here (control-plane unit tests
# included), so ./internal/mesh/ needs no separate RACE_PKGS entry. The third
# line repeats the control-plane tests ten times: members and routes share one
# lock, and one race pass cannot show that no dial, reroute or remediation
# step reads a route outside it. It repeats TestSnapshotDuringAddLeaf with
# them: a metrics scrape snapshots the leaf list while leaf waves grow it. And
# it repeats the relay sweep tests: session goroutines read held frames
# without the relay's lock while the upstream absorb appends frames under it,
# and leaves dial a relay still filling (TestRelaySweepLeavesDialWhileFilling).
mesh-smoke:
	$(GO) test -race -count=1 -v -run 'TestMeshSmoke' ./internal/mesh/
	$(GO) test -race -count=1 -skip 'TestMeshSmoke|TestMeshRollingRestart' ./internal/mesh/
	$(GO) test -race -count=10 -run 'TestControl|TestSnapshotDuringAddLeaf|TestRelaySweep' ./internal/mesh/

# Graceful-degradation drain gate, under the race detector: rolling relay
# restarts while leaves fetch through faultnet chaos. Each restart must move
# the drained relay's leaves onto a survivor itself (the remediation sweep is
# too slow to do it in time) — a moved leaf reaches its survivor with rank
# carried over while the drain is held open — rejoin the rotation at a fresh
# address, and finish with zero failed leaves, byte-identical payloads, zero
# rank regressions, and exact offered == sent + shed ledgers for drained AND
# surviving relays in one scraped exposition. The TestRestartRelay cases run
# beside it: a restart that must move its leaf with no health sweep to help,
# and a drain that outlives its deadline yet still ends with the relay back in
# the rotation.
drain-chaos:
	$(GO) test -race -count=1 -v -run 'TestMeshRollingRestart|TestRestartRelay' ./internal/mesh/

# Randomized chaos soak, CI slice: a fixed-seed schedule of leaf waves,
# drain-restarts, kills, and leaf waves beside four slow readers on one relay,
# against a chaos-wrapped mesh. `nc mesh -soak` exits non-zero unless every
# transfer is byte-identical (the leaves beside the slow readers included:
# credit keeps what a slow reader is owed from starving the others), rank
# never regresses, every relay ledger balances exactly, and no goroutine
# outlives teardown.
soak-smoke:
	$(GO) run -race ./cmd/nc mesh -soak -smoke -summary soak-summary.json

# Serving-capacity CI gate: one scaled-down 1k-session saturation wave under
# the race detector. `nc load` exits non-zero unless the ramp completes, every
# canary fetch is byte-identical, the windowed p99 record latency stays under
# its bound, and offered == sent + shed holds exactly in a scraped
# Prometheus exposition.
load-smoke:
	$(GO) run -race ./cmd/nc load -smoke -summary load-summary.json

# Distributed-tracing end-to-end gate, under the race detector: a traced
# chaos mesh run (origin → relays → leaves with faultnet corruption/resets,
# a slow-reader wave, and a leaf whose damaged sweep makes it ask its relay
# for recodes), then `nc mesh -trace` reassembles the flight-recorder
# dump into per-generation latency breakdowns. Spans link across tiers
# through the trace context in each session header alone — no record carries
# a trace byte, so leaf absorbs and relay recodes parent under their
# upstream's root span. The run fails unless every
# span parents cleanly (zero orphans), the encode/absorb/recode stages all
# appear, at least one histogram exemplar links back to a recorded trace,
# the flight ring holds admission + reconnect events. (That the disabled
# tracing path allocates nothing is TestDisabledPathZeroAlloc's and
# TestSpanDisabledIsFree's to gate, in `test` and `race`; the encode-batch
# ratio is bench-check's.) On failure the raw flight dump lands in
# flight-trace.json for CI to upload.
trace-smoke:
	$(GO) run -race ./cmd/nc mesh -trace

# Full serving-capacity ladder, committed as BENCH_serve.json: ramped waves
# of 1280, 2560 and 5120 concurrent sessions (plus one systematic-wire wave at
# peak), with aggregate MB/s and windowed p50/p99 record latency per wave.
# Takes a few minutes.
loadtest:
	$(GO) run ./cmd/nc load -sessions 5120 -steps 3 \
		-window 3s -settle 1s -canaries 4 \
		| $(GO) run ./cmd/benchjson > BENCH_serve.json
	@cat BENCH_serve.json

# Regenerate every paper table and figure as aligned text tables.
figures:
	$(GO) run ./cmd/ncbench -fig all

# Regenerate the figures as CSV (for plotting).
figures-csv:
	$(GO) run ./cmd/ncbench -fig all -format csv

# Full benchmark suite: one testing.B benchmark per paper table/figure plus
# the host-codec microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Host-codec optimization-ladder benchmarks, captured as a committed JSON
# artifact: kernel rungs (scalar reference / portable wide / AVX2 / GFNI and
# the fused shapes of the dispatched rung), batch-vs-single encode, and the
# decode ladder (the progressive [C | x] reference / the two-stage decoder),
# all at n=128, k=4096.
# The kernel rungs are sub-microsecond, so they get a high iteration count;
# the macro encode/decode benches are fractions of a millisecond per op and
# keep a modest one. Every command runs BENCH_ROUNDS times, spread over the
# whole measurement, and benchjson keeps each rung's fastest run: on a shared
# host one pass can catch any single rung in a slow moment and flip a ratio.
BENCH_ROUNDS = 1 2 3 4 5
bench-host:
	{ for round in $(BENCH_ROUNDS); do \
	  $(GO) test -run '^$$' -bench 'BenchmarkMulAddLadder|BenchmarkXorLadder' \
		-benchtime 3000x -count 1 ./internal/gf256/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEncodeBatch|BenchmarkDecodeLadder' \
		-benchtime 100x -count 1 ./internal/rlnc/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkXorLadder' \
		-benchtime 200x -count 1 ./internal/rlnc/ ; done ; } \
		| $(GO) run ./cmd/benchjson > BENCH_host.json
	@cat BENCH_host.json

# One-iteration pass over the ladder benchmarks, piped through benchjson: a
# cheap CI check that every rung still runs and parses. The parsed artifact
# is kept (untracked) so CI can upload it. BenchmarkDenseRecords — a pump round
# of every record producer, per record: the dense origin, the systematic
# repair path, and the dense and XOR-recode relay — gets enough iterations to
# fill its pools, so every run also prints each producer's ns and allocations
# per record (benchjson passes the names through; nothing gates them). The BenchmarkEncodeBatch pattern also runs BenchmarkEncodeBatchSpans
# and BenchmarkEncodeBatchDispatch (serial against pooled batch multiplies,
# which sized rlnc's dispatch floor).
bench-smoke:
	{ $(GO) test -run '^$$' -bench 'BenchmarkMulAddLadder|BenchmarkXorLadder|BenchmarkEncodeBatch|BenchmarkDecodeLadder' \
		-benchtime 1x -count 1 ./internal/gf256/ ./internal/rlnc/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkDenseRecords' \
		-benchtime 2000x -count 1 ./internal/netio/ ./internal/mesh/ ; } \
		| $(GO) run ./cmd/benchjson > BENCH_smoke.json
	@cat BENCH_smoke.json

# Re-run the ladder benchmarks at moderate iteration counts and gate the
# derived speedup ratios against the committed BENCH_host.json: every
# relative key (`_x` multiple, `_pct` percentage) must stay within tolerance
# of its committed value. Absolute MB/s numbers are machine-specific and are
# never gated; the 50% default tolerance absorbs runner-to-runner noise
# while still catching an optimization rung that actually regressed.
bench-check:
	{ for round in $(BENCH_ROUNDS); do \
	  $(GO) test -run '^$$' -bench 'BenchmarkMulAddLadder|BenchmarkXorLadder' \
		-benchtime 1000x -count 1 ./internal/gf256/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEncodeBatch|BenchmarkDecodeLadder' \
		-benchtime 30x -count 1 ./internal/rlnc/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkXorLadder' \
		-benchtime 50x -count 1 ./internal/rlnc/ ; done ; } \
		| $(GO) run ./cmd/benchjson -check BENCH_host.json

# Everything the CI workflow runs, reproducible locally with one command.
ci: build fmt-check vet staticcheck test loc race fuzz-regress chaos bench-smoke bench-check serve-smoke metrics-smoke xor-smoke mesh-smoke load-smoke drain-chaos soak-smoke trace-smoke

# Run every example program.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gpusim
	$(GO) run ./examples/streaming
	$(GO) run ./examples/p2p
	$(GO) run ./examples/multisegment
	$(GO) run ./examples/filetransfer

# The captured artifacts referenced by EXPERIMENTS.md.
test_output.txt:
	$(GO) test -count=1 ./... 2>&1 | tee $@

bench_output.txt:
	$(GO) test -bench=. -benchmem -count=1 ./... 2>&1 | tee $@

clean:
	rm -f test_output.txt bench_output.txt BENCH_smoke.json \
		soak-summary.json load-summary.json flight-trace.json flight-soak.json flight-mesh.json
