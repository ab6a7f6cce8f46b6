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


def test_gaussian_sweep_refits_once_per_seed(monkeypatch):
    # The benchmark's gaussian.pooled_mle and gaussian.kl_gaussian spans
    # fire for budget 0 alone: one refit per seed, with its two divergences,
    # shared by every rule; every other budget refits from sums.
    from distunlearn import sweep

    calls = {"pooled_mle": 0, "kl_gaussian": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(sweep, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(sweep, name, counted)
    config = sweep.SweepConfig(rules=("random", "selective-gaussian"),
                               budget_fractions=(0.0, 0.25, 0.5, 1.0), seeds=(0, 1, 2))
    result = sweep.run_gaussian_sweep(0.5, 5000, 300, config)
    assert len(result.rows) == 24 and not result.n_failed()
    assert calls == {"pooled_mle": 3, "kl_gaussian": 6}
