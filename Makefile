# Developer entry points.  `make verify` is the tier-1 gate every PR must
# keep green: a full type-check of every target, the repo invariant
# linter (tools/lint/, zero unannotated findings), the test suite (plus
# a multi-domain smoke pass — results must be bit-identical, see
# lib/par/ — and a pass with a live stderr tracing sink, which must not
# move any numeric either), the view-driven paper experiments Table I,
# Fig. 2 and Fig. 9 (about 1 s; bench/main.exe exits 1 when Table I's
# score-decay check fails), `sider convergence three_d` (its table must
# hold exactly one row per sweep its two update lines report, numbered
# from 1 in each update), the end-to-end benchmark's smoke run (every
# workload at quarter size through a real `sider api`, with all its
# correctness checks: bit-identical replay, converged updates, expected
# statuses; after the tests, not beside them, because it keeps both CPUs
# of a 2-vCPU machine busy), and a smoke run of the micro-benchmark
# harness (sub-10-seconds; proves the harness itself still works, not
# performance).

.PHONY: all build check test lint lint-fixtures lint-sarif verify clean \
        bench bench-smoke bench-diff bench-scaling service-smoke \
        bench-service convergence-smoke

all: build

build:
	dune build

check:
	dune build @check

test:
	dune runtest

# sider-lint over the typed AST of every library/executable (see
# DESIGN.md §10); exits non-zero on any unannotated finding.
lint:
	dune build @lint

# The linter's own expected-output suite (also part of `dune runtest`).
lint-fixtures:
	dune build @lint-fixtures

# Same scan as `make lint`, plus a SARIF 2.1.0 report for code-scanning
# UIs (CI uploads it via codeql-action/upload-sarif, which checks the
# file itself; the emitter's bytes are pinned by the fixture suite's
# SARIF golden).  The SARIF file is written even when findings fail the
# scan, and the target exits with the scan's own status.
lint-sarif:
	dune build @check tools/lint/sider_lint.exe
	mkdir -p _artifacts
	cd _build/default && \
	  ./tools/lint/sider_lint.exe \
	    --sarif ../../_artifacts/sider-lint.sarif \
	    lib bin bench test examples

verify:
	dune build @check && $(MAKE) lint && dune runtest \
	  && SIDER_DOMAINS=2 dune runtest --force \
	  && SIDER_TRACE=stderr dune runtest --force \
	  && dune exec bench/main.exe -- -e table1 fig2 fig9 \
	  && $(MAKE) convergence-smoke \
	  && dune build @bench/e2e/smoke && $(MAKE) bench-smoke \
	  && $(MAKE) service-smoke

# `sider convergence three_d` prints one table row per completed sweep of
# its two solves (margin, then 1-cluster).  Fails unless the table's
# sweep column is exactly 1..a then 1..b for the a and b sweeps the two
# update lines report.
convergence-smoke:
	out="$$(dune exec bin/sider_cli.exe -- convergence three_d)" \
	  || exit 1; \
	echo "$$out"; \
	echo "$$out" | awk ' \
	  $$2 == "update:" { n++; for (i = 1; i <= $$3; i++) want = want " " i } \
	  table { got = got " " $$1 } \
	  $$1 == "sweep" && $$2 == "max|dl|" { table = 1 } \
	  END { if (n != 2 || got != want) { \
	    print "convergence-smoke: table sweeps [" got " ] for reported [" \
	      want " ]" > "/dev/stderr"; exit 1 } }'

# End-to-end smoke of the session service: boot it in-process with
# write-ahead journaling on, the compaction threshold forced low (so
# the smoke exercises snapshot+journal recovery, not just journals), a
# short TTL (so eviction/rehydration runs under real load), drive a
# small concurrent mixed-persona load through the full HTTP loop
# (create → constrain → update → projection), then doctor-verify one
# of the journals it wrote (exit 2 on corruption) — the journal picked
# has a sibling snapshot, so this also proves snapshot-aware replay.
# The run writes the structured JSON access log next to the flight
# dumps; the final leg pulls a trace id back out of it and greps the
# whole _artifacts/flight/ directory with `doctor --trace`, proving the
# id round-trips from generator to log to the correlation tool.  Last,
# one `sider serve` round on an ephemeral port must exit 0 after
# printing its /metrics banner (the command starts and stops a session
# service around its feedback loop).
# stderr — including any crash-forensics flight-recorder dumps — lands
# in _artifacts/flight/, which CI uploads as an artifact on failure.
service-smoke:
	mkdir -p _artifacts/flight
	rm -rf _artifacts/service-smoke-wal
	dune exec bin/sider_cli.exe -- load --sessions 24 --concurrency 8 \
	  --rows 32 --persona mixed --compact-threshold 4 --ttl 0.2 \
	  --data-dir _artifacts/service-smoke-wal \
	  --access-log _artifacts/flight/service-smoke-access.jsonl \
	  --baseline BENCH_pr6.json \
	  --out _artifacts/BENCH_service_smoke.json \
	  2> _artifacts/flight/service-smoke.stderr
	J="$$(ls _artifacts/service-smoke-wal/*.snapshot 2>/dev/null | head -n 1 \
	      | sed 's/\.snapshot$$/.journal/')"; \
	[ -n "$$J" ] || J="$$(ls _artifacts/service-smoke-wal/*.journal | head -n 1)"; \
	dune exec bin/sider_cli.exe -- doctor --snapshot "$$J" \
	  2>> _artifacts/flight/service-smoke.stderr
	T="$$(sed -n 's/.*"trace":"\([^"]*\)".*/\1/p' \
	      _artifacts/flight/service-smoke-access.jsonl | head -n 1)"; \
	[ -n "$$T" ] || { echo "service-smoke: empty access log" >&2; exit 1; }; \
	dune exec bin/sider_cli.exe -- doctor --trace "$$T" _artifacts/flight
	out="$$(dune exec bin/sider_cli.exe -- serve three_d --metrics-port 0 \
	        --rounds 1 2>> _artifacts/flight/service-smoke.stderr)" \
	  || exit 1; \
	echo "$$out"; \
	echo "$$out" | grep -q '^serving http://127\.0\.0\.1:[0-9][0-9]*/metrics '

# Full service load benchmark: 1000 analysts through the journaled
# session service over keep-alive connections, with TTL eviction and
# journal compaction live; rewrites the committed BENCH_pr7.json and
# embeds the delta against the committed keep-alive-less BENCH_pr6.json
# baseline.  The TTL is shorter than the run's wall clock on purpose:
# sessions that finish their request burst go idle and are evicted
# while later analysts are still loading, so the committed result also
# pins the resident-session bound under eviction.
bench-service:
	rm -rf _artifacts/service-bench-wal
	dune exec bin/sider_cli.exe -- load --sessions 1000 --concurrency 32 \
	  --ttl 0.8 --compact-threshold 64 \
	  --data-dir _artifacts/service-bench-wal \
	  --baseline BENCH_pr6.json --label pr7 --out BENCH_pr7.json

# Full machine-readable benchmark run; rewrites the committed result,
# including the domain-scaling table, the incremental-update sweep gate
# and the labeled-metrics overhead gate, and embeds the delta against the
# newest committed baseline with a scenario table (BENCH_pr8.json).
bench:
	dune exec bench/bench_regress.exe -- --out BENCH_pr9.json --label pr9 \
	  --scaling --baseline BENCH_pr8.json --baseline BENCH_pr4.json

# Fast sanity pass over every scenario (reduced sizes, 1 run each),
# checked to still cover the incremental-update and warm-ICA scenarios,
# the labeled-metrics scenario and the create-path scenarios named after
# the end-to-end benchmark's per-layer metrics.
bench-smoke:
	dune exec bench/bench_regress.exe -- --smoke --out _artifacts/BENCH_smoke.json
	grep -q session_update_warm_synthetic _artifacts/BENCH_smoke.json
	grep -q ica_projection_warm _artifacts/BENCH_smoke.json
	grep -q obs_labels_overhead _artifacts/BENCH_smoke.json
	grep -q json_parse_create _artifacts/BENCH_smoke.json
	grep -q json_serialise_projection _artifacts/BENCH_smoke.json
	grep -q persist_journal_start _artifacts/BENCH_smoke.json

# Re-measure and compare against the committed baseline; exits non-zero
# when any scenario regresses by more than 25% wall time.
bench-diff:
	dune exec bench/bench_regress.exe -- --out _artifacts/BENCH_head.json \
	  --baseline BENCH_pr9.json

# Wall clock of the Sider_par-enabled scenarios at 1, 2 and 4 domains
# (results are bit-identical at every size; only the time may change).
bench-scaling:
	dune exec bench/bench_regress.exe -- --scaling \
	  --out _artifacts/BENCH_scaling.json

clean:
	dune clean
