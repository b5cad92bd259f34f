PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast bench bench-full bench-repo validate validate-fast profile faults pipeline-smoke trace-smoke service-smoke planner-smoke

test:            ## full tier-1 suite + quick conformance gate
	$(PYTHON) -m pytest -x -q
	$(PYTHON) scripts/validate.py --quick --quiet

test-fast:       ## tier-1 without the slow markers
	$(PYTHON) -m pytest -x -q -m "not slow"

validate:        ## plan-conformance gate: 50 seeded instances x every registered scheme
	$(PYTHON) scripts/validate.py

validate-fast:   ## quick gate (the `make test` configuration)
	$(PYTHON) scripts/validate.py --quick

bench:           ## quick perf harness; appends to BENCH_sweep.json, gates on parallel slowdown
	$(PYTHON) scripts/bench.py --quick

bench-full:      ## full-size perf harness (minutes)
	$(PYTHON) scripts/bench.py

bench-repo:      ## the repo benchmark (BENCHMARK.json): quick pass over all five workloads + its tests
	$(PYTHON) bench/run.py --quick
	$(PYTHON) -m pytest bench/test_bench.py -q

profile:         ## phase breakdown of the greedy engine at 6000 switches (aggregate view of an in-memory trace)
	$(PYTHON) scripts/profile.py

faults:          ## fault-severity ablation: chronus/or/tp under an imperfect control plane
	$(PYTHON) scripts/faults.py

pipeline-smoke:  ## kill-and-resume a tiny scenario; gate on byte-identical records
	$(PYTHON) scripts/pipeline_smoke.py

trace-smoke:     ## pool run with a SQLite sink + a traced service cell; gate on worker spans and per-request nesting
	$(PYTHON) scripts/trace_smoke.py

service-smoke:   ## burst through the update service; gate on terminal+conformant+lockstep
	$(PYTHON) scripts/service_smoke.py

planner-smoke:   ## planner registry gate: all five schemes register, dispatch and verify
	$(PYTHON) scripts/planner_smoke.py
