# Convenience targets; see CONTRIBUTING.md.

.PHONY: install test lint bench experiments examples all clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

lint:
	PYTHONPATH=src python -m repro.lint src/repro

bench:
	pytest benchmarks/ --benchmark-only

experiments:
	python -m repro.bench

examples:
	@for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f > /dev/null || exit 1; done
	@echo "all examples OK"

all: lint test bench experiments examples

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
