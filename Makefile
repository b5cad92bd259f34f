PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast bench bench-full bench-repo validate validate-fast profile faults

test: test-fast validate-fast  ## full tier-1 suite + quick conformance gate

test-fast:       ## tier-1 alone, without the conformance gate
	$(PYTHON) -m pytest -x -q

validate:        ## plan-conformance gate: 50 seeded instances x every registered scheme; a run in ./runs/ to `report`
	$(PYTHON) -m repro.experiments run gate --quiet --set instances_per_size=50

validate-fast:   ## quick gate (the `make test` configuration) into a temporary store, removed afterwards
	runs=$$(mktemp -d) && trap 'rm -rf "$$runs"' EXIT && \
	$(PYTHON) -m repro.experiments run gate --quiet --runs-dir "$$runs" --set instances_per_size=8

bench:           ## quick perf harness; appends to BENCH_sweep.json, gates on parallel slowdown
	$(PYTHON) scripts/bench.py --quick

bench-full:      ## full-size perf harness (minutes)
	$(PYTHON) scripts/bench.py

bench-repo:      ## the repo benchmark (BENCHMARK.json): quick pass over all five workloads + its tests
	$(PYTHON) -m compileall -q src
	$(PYTHON) bench/run.py --quick
	$(PYTHON) -m pytest bench/test_bench.py -q

profile:         ## the greedy engine at 6000 switches: span tree, counters and derived views of an in-memory trace
	$(PYTHON) scripts/profile.py

faults:          ## fault-severity ablation: chronus/or/tp under an imperfect control plane; a run in ./runs/ to `report`
	$(PYTHON) -m repro.experiments run faults --quiet
