# Convenience targets for the Measures-in-SQL reproduction.

.PHONY: test test-slow bench bench-selftest report snapshot compare shell tpch serve server-smoke replay-smoke examples lint validate loc all

# The committed perf baseline the regression gate compares against.
BASELINE ?= benchmarks/BENCH_2026-09-27.json

test:
	pytest tests/

# The opt-in slow tier: TPC-H at SF >= 0.05 (excluded from `make test`).
test-slow:
	pytest tests/ -m slow

bench:
	pytest benchmarks/ --benchmark-only

# The repo's benchmark (python -m bench, BENCHMARK.json) checking itself:
# the contract, the oracles, exact call counts, trace coverage.
bench-selftest:
	python -m bench --selftest

report:
	python -m benchmarks.report

snapshot:
	python -m benchmarks.report --snapshot --out benchmarks/

compare:
	rm -rf .bench-compare && mkdir -p .bench-compare
	python -m benchmarks.report --snapshot --out .bench-compare/ --repeats 5
	python -m benchmarks.report --compare $(BASELINE) .bench-compare/BENCH_*.json

shell:
	python -m repro

# Interactive shell over the generated TPC-H tables + measure layer.
tpch:
	python -m repro.workloads --tpch --summaries --sf 0.01

serve:
	python -m repro.server --listings

server-smoke:
	python scripts/server_smoke.py

# Record the paper listings through the server, replay the journal, and
# require a byte-identical --diff (plus a rejected injected mismatch).
replay-smoke:
	python scripts/replay_smoke.py replay/journal.jsonl

# Run every example; any one that fails fails the target.
examples:
	@failed=0; for f in examples/*.py; do echo "== $$f =="; \
		if python $$f > /dev/null; then echo ok; else echo FAILED; failed=1; fi; \
	done; exit $$failed

lint:
	python -m repro.analysis --self-check
	python -m repro.analysis --flip-check
	python -m repro.analysis --lock-check

validate:
	REPRO_VALIDATE=1 pytest tests/

# Physical lines of src/**/*.py, per package, of the four packages that only
# watch (``observers``), and in total.  The one way a
# PR's size is measured: CHANGES.md quotes this at the parent and at the
# change, CI appends it to the job summary.
loc:
	@find src -name '*.py' -print0 | xargs -0 wc -l | awk '$$2 != "total" { \
		n = split($$2, part, "/"); pkg = (n > 3) ? part[3] "/" : "(top level)"; \
		lines[pkg] += $$1 } END { for (pkg in lines) printf "%7d  %s\n", lines[pkg], pkg }' | sort -k2
	@find src/repro/telemetry src/repro/introspect src/repro/profile src/repro/history -name '*.py' -print0 \
		| xargs -0 cat | wc -l | awk '{ printf "%7d  observers (telemetry/ + introspect/ + profile/ + history/)\n", $$1 }'
	@find src -name '*.py' -print0 | xargs -0 cat | wc -l | awk '{ printf "%7d  total\n", $$1 }'

all: test lint bench report examples
