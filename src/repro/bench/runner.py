"""Experiment registry, the result container and the shared timer.

Every table/figure module registers its experiment functions here via the
:func:`experiment` decorator; the CLI (:mod:`repro.bench.cli`) and the
pytest-benchmark suite both dispatch through :func:`get_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

from repro.bench.report import render_table

__all__ = ["ExperimentResult", "experiment", "get_experiment", "all_experiments",
           "best_of"]


def best_of(fns: dict[str, Callable[[], object]], rounds: int) -> dict[str, float]:
    """Each callable's minimum wall-clock seconds over ``rounds`` rounds.

    Every round calls each callable once, in ``fns`` order (A, B, A, B,
    ...), so a slow spell of a shared host hits every configuration alike
    instead of all the rounds of one.  This is the one timer behind every
    measured figure and benchmark guard.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(rounds):
        for name, fn in fns.items():
            start = perf_counter()
            fn()
            best[name] = min(best[name], perf_counter() - start)
    return best


@dataclass
class ExperimentResult:
    """One regenerated table or figure.

    Attributes
    ----------
    exp_id:
        Short id (``table3``, ``fig4``, ``sec5e``, ``headline``).
    title:
        Human-readable description (the paper's caption, abbreviated).
    headers / rows:
        The regenerated table: for figures, one row per task count with one
        column per series — exactly the data the paper plots.
    notes:
        Shape criteria, paper anchor values, caveats.
    """

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        out = [render_table(self.headers, self.rows, title=f"[{self.exp_id}] {self.title}")]
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)

    def column(self, header: str) -> list:
        """Extract one column by header name (assertion helper)."""
        try:
            idx = list(self.headers).index(header)
        except ValueError:
            raise KeyError(f"no column {header!r}; have {list(self.headers)}") from None
        return [row[idx] for row in self.rows]

    def chart(self, *, height: int = 12) -> str | None:
        """ASCII chart of this experiment's series, if it is figure-shaped.

        Figure-shaped means: first column is the sweep axis (tasks/threads)
        and at least one later column is numeric across all rows.  Returns
        ``None`` for table-shaped experiments.
        """
        from repro.bench.plot import render_chart

        headers = list(self.headers)
        if len(self.rows) < 2 or not headers:
            return None
        x = self.column(headers[0])
        if not all(isinstance(v, (int, float)) for v in x):
            return None
        series: dict[str, list[float]] = {}
        for h in headers[1:]:
            col = self.column(h)
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in col):
                series[h] = [float(v) for v in col]
        if not series:
            return None
        return render_chart(x, series, title=f"[{self.exp_id}] {self.title}",
                            height=height)


_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def experiment(exp_id: str):
    """Register an experiment function under ``exp_id``."""

    def deco(fn: Callable[..., ExperimentResult]):
        if exp_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        _REGISTRY[exp_id] = fn
        fn.exp_id = exp_id
        return fn

    return deco


def get_experiment(exp_id: str) -> Callable[..., ExperimentResult]:
    """Look up a registered experiment, importing the defining modules."""
    _ensure_loaded()
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_experiments() -> dict[str, Callable[..., ExperimentResult]]:
    """All registered experiments, keyed by id."""
    _ensure_loaded()
    return dict(_REGISTRY)


def _ensure_loaded() -> None:
    # Import for registration side effects.
    from repro.bench import extensions, figures, tables  # noqa: F401
