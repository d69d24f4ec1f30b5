"""The instrumentation seam: one slot, four independent installs."""

from __future__ import annotations

import ast
import contextlib
import itertools
import sys
import threading
from pathlib import Path

import pytest

from repro import probe
from repro.observe import active_recorder, tracing
from repro.resilience import FaultPlan, RetryPolicy, inject_faults, retrying
from repro.resilience.fault import active_plan
from repro.resilience.retry import active_policy
from repro.sanitize import sanitizing
from repro.sanitize.detector import active_sanitizer

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: install name -> (context-manager factory, public accessor)
INSTALLS = {
    "tracing": (lambda: tracing(), active_recorder),
    "sanitizing": (lambda: sanitizing(), active_sanitizer),
    "inject_faults": (lambda: inject_faults(FaultPlan()), active_plan),
    "retrying": (lambda: retrying(RetryPolicy()), active_policy),
}


def _assert_nothing_installed() -> None:
    for name, (_, accessor) in INSTALLS.items():
        assert accessor() is None, name
    assert probe.current is None


@pytest.mark.parametrize("raise_in_b", [False, True], ids=["clean", "raise-in-b"])
@pytest.mark.parametrize("a,b", list(itertools.permutations(INSTALLS, 2)))
def test_installs_stay_independent(a, b, raise_in_b):
    """Enter A, enter B, exit A, exit B: each exit removes only its own
    tool, so nothing comes back once both are gone (a whole-slot snapshot
    restore would bring A back when B exits)."""
    _assert_nothing_installed()
    make_a, get_a = INSTALLS[a]
    make_b, get_b = INSTALLS[b]
    cm_a = make_a()
    tool_a = cm_a.__enter__()
    try:
        with pytest.raises(RuntimeError) if raise_in_b else contextlib.nullcontext():
            with make_b() as tool_b:
                assert get_a() is tool_a
                assert get_b() is tool_b
                cm_a.__exit__(None, None, None)
                cm_a = None
                assert get_a() is None
                assert get_b() is tool_b
                if raise_in_b:
                    raise RuntimeError("inside B")
    finally:
        if cm_a is not None:
            cm_a.__exit__(None, None, None)
    _assert_nothing_installed()


def test_install_returns_previous_field_only():
    assert probe.install("plan", "p1") is None
    assert probe.install("policy", "r1") is None
    assert probe.current == probe.Probe(plan="p1", policy="r1")
    assert probe.install("plan", None) == "p1"
    assert probe.current == probe.Probe(policy="r1")
    assert probe.install("policy", None) == "r1"
    assert probe.current is None


def test_concurrent_installs_lose_no_update():
    """One thread per field installs and removes its own tool in a tight
    loop; a lost read-modify-write of the slot would drop another
    thread's tool while it is installed."""
    fields = ("recorder", "sanitizer", "plan", "policy")
    errors: list[str] = []

    def churn(field: str) -> None:
        tool = object()
        for _ in range(2000):
            probe.install(field, tool)
            current = probe.current
            if current is None or getattr(current, field) is not tool:
                errors.append(field)
                return
            probe.install(field, None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(f,)) for f in fields]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert probe.current is None


def test_global_statements_live_only_in_probe():
    """The probe slot is the program's only process-global install: no
    other module in src/repro rebinds a module global."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                offenders.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert offenders, "probe.py must hold the slot's global statement"
    assert all(o.startswith("repro/probe.py:") for o in offenders), offenders
