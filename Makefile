# Tier-1 gate: everything CI (and every PR) must keep green.
.PHONY: ci vet gofmt build staticcheck deprecated facade test golden golden-scale1 cover bench bench-diff bench-check bench-server serve-smoke shard-smoke

ci: vet gofmt build staticcheck deprecated facade test cover bench-check serve-smoke shard-smoke

vet:
	go vet ./...

# Formatting is a gate, not a suggestion: the tree must be gofmt-clean.
gofmt:
	@out=$$(gofmt -l .) ; \
	if [ -n "$$out" ] ; then \
		echo "gofmt needed on:" ; echo "$$out" ; exit 1 ; \
	fi

build:
	go build ./...

# staticcheck is optional tooling: run it when installed, skip with a
# notice otherwise so CI works on toolchain-only machines.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" ; \
	fi

# Deprecated symbols are a one-PR migration device, not a parking lot:
# the facade's wrapper generation has been migrated and deleted, so the
# tree now carries no markers at all — a new one may appear only
# alongside its replacement and must be gone by the following PR. This
# is the grep half of staticcheck's SA1019 discipline and runs even
# where staticcheck is not installed.
deprecated:
	@if grep -rn --include='*.go' '^// Deprecated:' . ; then \
		echo "deprecated symbols found; migrate the callers and delete the wrappers instead" ; \
		exit 1 ; \
	fi

# facade ratchets the root package's exported surface: it fails when
# `go doc -short .` prints more lines than FACADE_MAX. A change that
# shrinks the facade lowers the number; raising it needs a reason in
# CHANGES.md.
FACADE_MAX = 143
facade:
	@n=$$(go doc -short . | wc -l) ; \
	echo "facade: $$n lines of go doc -short (ratchet $(FACADE_MAX))" ; \
	if [ "$$n" -gt $(FACADE_MAX) ] ; then \
		echo "the facade grew past $(FACADE_MAX) lines; delete a name for each one added" ; \
		exit 1 ; \
	fi

# The race leg skips the golden sweep (build-tag gated: byte-identity
# gains nothing from the race detector and costs ~10x); the golden leg
# reruns it without -race.
test:
	go test -race ./...
	$(MAKE) golden

golden:
	go test -count=1 -run TestGoldenExperimentOutputs .
	go test -count=1 -run '^Fuzz' ./internal/cache ./internal/texture

# golden-scale1 reruns every experiment at the paper's own resolution
# and diffs the output against results_scale1.txt, both with their
# timing lines ("--- <id> done in ..." and "=== N experiments in ...")
# stripped. Scale 1 is the only resolution whose traces are long
# enough for the stack-distance profiler to compact its Fenwick tree,
# so every replay-kernel change must pass it. It takes about 100s wall
# and 180s CPU on a 2-vCPU host, so it is not a ci leg.
golden-scale1:
	@set -e; \
	tmp=$$(mktemp -d) ; \
	trap 'rm -rf "$$tmp"' EXIT ; \
	go build -o "$$tmp/texsim" ./cmd/texsim ; \
	"$$tmp/texsim" -exp all -scale 1 > "$$tmp/out.txt" 2> "$$tmp/err.txt" || { \
		cat "$$tmp/err.txt" ; exit 1 ; } ; \
	strip='/^--- .* done in .* ---$$/d; /^=== [0-9]+ experiments in .* ===$$/d' ; \
	sed -E "$$strip" results_scale1.txt > "$$tmp/want.txt" ; \
	sed -E "$$strip" "$$tmp/out.txt" > "$$tmp/got.txt" ; \
	diff -u "$$tmp/want.txt" "$$tmp/got.txt" || { \
		echo "scale-1 output differs from results_scale1.txt" ; exit 1 ; } ; \
	echo "golden-scale1 ok"

# cover enforces ratcheted coverage floors on the simulator-core
# packages: raise a floor when coverage improves, never lower it.
cover:
	@set -e; \
	for pf in ./internal/cache:92.0 ./internal/texture:90.0 ./internal/trace:90.0 ./internal/pipeline:85.0 ./internal/parallel:85.0 ./internal/cost:95.0 ./internal/shard:85.0 ./internal/engine:85.0 ; do \
		pkg=$${pf%:*} ; floor=$${pf#*:} ; \
		pct=$$(go test -count=1 -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p') ; \
		echo "coverage $$pkg: $$pct% (floor $$floor%)" ; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p+0 >= f+0) }' || { \
			echo "coverage of $$pkg fell below the $$floor% floor" ; exit 1 ; } ; \
	done

# bench runs the engine-focused benchmark set and writes the parsed
# results to BENCH_engine.json for regression tracking. The TraceGen
# pair measures the tile-parallel render path against the serial scan;
# the TraceEncode/TraceDecode pair and the TraceStore cold/warm pair
# track the compact trace codec and the persistent store.
BENCH_REGEX = BenchmarkSerialSweep|BenchmarkGroupedSweep|BenchmarkEngineSweep|BenchmarkEngineBatch|BenchmarkCacheAccess|BenchmarkStackDist|BenchmarkTraceGen|BenchmarkTraceEncode|BenchmarkTraceDecode|BenchmarkTraceStore|BenchmarkArch|BenchmarkShardedGrid|BenchmarkResultCache

bench:
	go test -run '^$$' -bench '$(BENCH_REGEX)' \
		-benchmem -count 1 . | go run ./cmd/benchjson -o BENCH_engine.json

# bench-diff reruns the recorded benchmark set and compares it against
# the committed BENCH_engine.json baseline: a gated hot-path benchmark
# more than 15% slower than its recorded ns/op fails. Timing is
# host-sensitive, so this is not a ci leg — run it on the baseline's
# host when touching the simulator's hot paths, and `make bench` to
# re-baseline when a slowdown is intended.
BENCH_DIFF_OUT ?= /tmp/texcache-bench-new.json
BENCH_SERVER_DIFF_OUT ?= /tmp/texcache-bench-server-new.json
bench-diff:
	go test -run '^$$' -bench '$(BENCH_REGEX)' \
		-benchmem -count 1 . | go run ./cmd/benchjson -o $(BENCH_DIFF_OUT)
	go run ./cmd/benchdiff BENCH_engine.json $(BENCH_DIFF_OUT)
	rm -f $(BENCH_SERVER_DIFF_OUT)
	TEXSERVE_BENCH_OUT=$(BENCH_SERVER_DIFF_OUT) \
		go test -count=1 -run 'TestServerWarmSpeedup' ./cmd/texserve
	@if [ -s $(BENCH_SERVER_DIFF_OUT) ] ; then \
		go run ./cmd/benchdiff -server BENCH_server.json $(BENCH_SERVER_DIFF_OUT) ; \
	else \
		echo "server gate skipped (no new BENCH_server metrics); server diff not run" ; \
	fi

# bench-check gates the performance claims: the grouped simulator must
# beat per-configuration serial simulation by at least 2x on the
# acceptance sweep, a warm trace store must run the acceptance batch at
# least 2x faster than the cold run that populated it, a warm result
# cache must serve the acceptance batch at least 10x faster than a
# trace-warm replay, a warm texserve must absorb the saturation burst at
# least 2x faster than a cold one (renders coalesced to the distinct-key
# count either way), and the prefetching texture-unit pipeline must beat
# the blocking baseline by at least 1.5x in simulated cycles at 100
# cycles of memory latency on every benchmark scene, and n=NumCPU
# coordinated shard workers must beat one worker process by at least
# 1.5x on a warm trace store. The timing gates are plain tests (skipped
# under -short and under -race); the cycle gate is exact and runs
# everywhere.
bench-check:
	go test -count=1 -run 'TestGroupedSweepSpeedup|TestTraceStoreWarmSpeedup|TestResultCacheWarmSpeedup|TestArchLatencyTolerance|TestTraceGenParallelSpeedup|TestBatchReplaySpeedup|TestShardScaling' .
	go test -count=1 -run 'TestServerWarmSpeedup' ./cmd/texserve

# bench-server reruns the texserve saturation gate and records its
# requests/s and latency percentiles (cold vs warm) in BENCH_server.json.
bench-server:
	TEXSERVE_BENCH_OUT=$(CURDIR)/BENCH_server.json \
		go test -count=1 -run 'TestServerWarmSpeedup' -v ./cmd/texserve

# serve-smoke boots a real texserve on a random port, bursts it with
# texload (mixed registered-experiment requests) and fails on zero
# completed requests or any 5xx — the end-to-end liveness check for the
# server binaries, with the trace store exercised via a temp dir. It
# then posts the same request twice under different tenants and demands
# byte-identical bodies plus a result-cache hit on /metrics: the repeat
# must be served from the result store, not re-simulated.
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d) ; \
	trap 'kill $$srv 2>/dev/null; rm -rf "$$tmp"' EXIT ; \
	go build -o "$$tmp/texserve" ./cmd/texserve ; \
	go build -o "$$tmp/texload" ./cmd/texload ; \
	"$$tmp/texserve" -addr 127.0.0.1:0 -addr-file "$$tmp/addr" \
		-trace-dir "$$tmp/traces" -result-dir "$$tmp/results" \
		-workers 2 2>"$$tmp/server.log" & \
	srv=$$! ; \
	for i in $$(seq 1 50); do [ -s "$$tmp/addr" ] && break ; sleep 0.1 ; done ; \
	[ -s "$$tmp/addr" ] || { echo "texserve did not come up:"; cat "$$tmp/server.log"; exit 1 ; } ; \
	addr=$$(cat "$$tmp/addr") ; \
	"$$tmp/texload" -url "http://$$addr" -clients 4 -n 12 -tenant smoke \
		-exp fig5.2 -scenes goblet -scale 8 || { cat "$$tmp/server.log"; exit 1 ; } ; \
	"$$tmp/texload" -url "http://$$addr" -clients 2 -n 4 -tenant smoke-arch \
		-scene goblet -arch both -scale 8 || { cat "$$tmp/server.log"; exit 1 ; } ; \
	"$$tmp/texload" -url "http://$$addr" -tenant smoke -capture "$$tmp/first.ndjson" \
		-exp table2.1 -scenes goblet -scale 8 || { cat "$$tmp/server.log"; exit 1 ; } ; \
	"$$tmp/texload" -url "http://$$addr" -tenant smoke2 -capture "$$tmp/second.ndjson" \
		-exp table2.1 -scenes goblet -scale 8 || { cat "$$tmp/server.log"; exit 1 ; } ; \
	cmp "$$tmp/first.ndjson" "$$tmp/second.ndjson" || { \
		echo "repeat response body differs from the first" ; exit 1 ; } ; \
	"$$tmp/texload" -url "http://$$addr" -get /metrics > "$$tmp/metrics.json" ; \
	grep -Eq '"engine\.result_cache\.hits": *[1-9]' "$$tmp/metrics.json" || { \
		echo "repeat request did not hit the result cache:" ; \
		cat "$$tmp/metrics.json" ; exit 1 ; } ; \
	echo "serve-smoke ok"

# shard-smoke is the multi-process end-to-end check for the sweep
# coordinator: a tiny grid runs once unsharded and once as two real
# worker processes sharing a temp trace store, and the merged stream
# must be byte-identical to the single-process run.
shard-smoke:
	@set -e; \
	tmp=$$(mktemp -d) ; \
	trap 'rm -rf "$$tmp"' EXIT ; \
	go build -o "$$tmp/texsim" ./cmd/texsim ; \
	printf '%s' '{"scenes":["flight","town"],"scales":[8],"configs":[{"size_bytes":2048,"ways":1,"line_bytes":64},{"size_bytes":8192,"ways":2,"line_bytes":64}]}' \
		> "$$tmp/grid.json" ; \
	"$$tmp/texsim" -grid "$$tmp/grid.json" -scale 8 -trace-dir "$$tmp/traces" \
		> "$$tmp/plain.ndjson" 2>/dev/null ; \
	"$$tmp/texsim" -grid "$$tmp/grid.json" -scale 8 -coordinate 2 -trace-dir "$$tmp/traces" \
		> "$$tmp/merged.ndjson" 2>/dev/null ; \
	cmp "$$tmp/plain.ndjson" "$$tmp/merged.ndjson" || { \
		echo "coordinated output differs from single-process run" ; exit 1 ; } ; \
	echo "shard-smoke ok"
