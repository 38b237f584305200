PYTHON ?= python
SCALE ?= medium

.PHONY: install test bench experiments examples clean

install:
	pip install -e . --no-build-isolation

# Mirrors the tier-1 CI command; pyproject's pythonpath=["src"] makes a
# bare pytest work without an editable install.
test:
	$(PYTHON) -m pytest -x -q

bench:
	REPRO_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PYTHON) -m repro suite --scale $(SCALE)

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/structural_analysis.py
	$(PYTHON) examples/mapping_study.py
	$(PYTHON) examples/pde_scaling.py
	$(PYTHON) examples/solver_api.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
