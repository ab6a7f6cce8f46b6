"""The benchmark traces the library by rebinding names at its call sites
(``perfbench/spans.py``).  A renamed or removed name would only show up in
the benchmark's self-test, so check here that every one still exists."""

from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # Executed from its source text, so nothing is written next to it.
    namespace = {"__name__": "perfbench_spans", "__file__": str(SPANS)}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace


def test_every_call_site_exists(spans):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
               for owner, attr, span in spans["CALL_SITES"]
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"benchmark call sites no longer exist: {missing}"


def test_every_direct_call_exists(spans):
    missing = [f"{module.__name__}.{attr} ({span})"
               for span, (module, attr) in spans["DIRECT"].items()
               if not callable(getattr(module, attr, None))]
    assert not missing, f"benchmark entry points no longer exist: {missing}"
