# Developer entry points.  `make verify` is the tier-1 gate every PR must
# keep green: a full type-check of every target, the repo invariant
# linter (tools/lint/, zero unannotated findings), the test suite (plus
# a multi-domain smoke pass — results must be bit-identical, see
# lib/par/ — and a pass with a live stderr tracing sink, which must not
# move any numeric either), the view-driven paper experiments Table I,
# Fig. 2 and Fig. 9 (about 1 s; bench/main.exe exits 1 when Table I's
# score-decay check fails; then every tracked file they rewrite under
# _artifacts/bench/ must come out byte for byte as committed, a check
# skipped outside a git checkout), `sider convergence three_d` (its table must
# hold exactly one row per sweep its two update lines report, numbered
# from 1 in each update), the end-to-end benchmark's smoke run (every
# workload at quarter size through a real `sider api`, with all its
# correctness checks: bit-identical replay, converged updates, expected
# statuses; after the tests, not beside them, because it keeps both CPUs
# of a 2-vCPU machine busy), the in-process harness's count gate against
# the committed bench/baseline.json with its incremental-update,
# null-sink and labeled-metrics gates (`make bench-diff`, under a
# second), and the service smoke run.

.PHONY: all build check test lint lint-fixtures lint-sarif verify clean \
        bench bench-diff bench-scaling service-smoke convergence-smoke \
        artifacts-unchanged

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
	  && $(MAKE) artifacts-unchanged \
	  && $(MAKE) convergence-smoke \
	  && dune build @bench/e2e/smoke && $(MAKE) bench-diff \
	  && $(MAKE) service-smoke

# Fails when a tracked paper artifact under _artifacts/bench/ differs
# from the index, as it does after `-e table1 fig2 fig9` when a change
# moved a view.  Outside a git checkout (a source tarball) there is
# nothing to compare against, so it says so and passes.
artifacts-unchanged:
	@if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then \
	  git diff --exit-code --stat -- _artifacts/bench \
	    || { echo "artifacts-unchanged: _artifacts/bench/ moved" >&2; \
	         exit 1; }; \
	else echo "artifacts-unchanged: not a git checkout, skipped"; fi

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

# Re-measure every in-process scenario and rewrite the committed
# baseline, bench/baseline.json: walls, exact work counts and the
# environment the counts depend on (domain count, OCaml version, AVX2
# ICA kernel).  Commit it with a change that moves a count on purpose.
bench:
	dune exec bench/bench_regress.exe -- --out bench/baseline.json

# The count gate: re-measure and fail when any count differs from the
# committed baseline (counts whose environment differs are skipped by
# name), or when the incremental-update, null-sink or labeled-metrics
# gate fails.  Walls are reported, not compared.
bench-diff:
	dune exec bench/bench_regress.exe -- --baseline bench/baseline.json

# Wall clock of the Sider_par-enabled scenarios at 1, 2 and 4 domains
# (results are bit-identical at every size; only the time may change).
bench-scaling:
	dune exec bench/bench_regress.exe -- --scaling \
	  --out _artifacts/BENCH_scaling.json

clean:
	dune clean
