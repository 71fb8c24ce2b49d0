"""The end-to-end benchmark's patch surface, guarded in tier-1.

``benchmarks/e2e`` times the program from outside by swapping proxies
over the callables ``workloads.patch_points`` names.
``SpanRecorder.install`` reads ``vars(owner)[attr]``, so a method that
becomes *inherited* (say, a shared loop-batch mixin) or moves to
another module is a ``KeyError`` in the traced run and a failed
benchmark -- which only the harness's own self-tests
(``benchmarks/e2e/tests``, not part of tier-1) would otherwise see.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))

import workloads  # noqa: E402


def test_every_patch_point_is_defined_on_its_owner():
    points = workloads.patch_points(types.SimpleNamespace())
    assert points
    missing = [
        f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
        for p in points
        if p.attr not in vars(p.owner)
    ]
    assert not missing, f"not in their owner's own __dict__: {missing}"
