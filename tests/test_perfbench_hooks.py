"""The benchmark in perfbench/ wraps and calls names of the program from
outside it. Dropping or renaming one of them fails here, and not only in the
benchmark's own smoke run."""
import importlib
import sys
from pathlib import Path

from orchestra import autodiff, hop

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_finds_every_name_it_hooks_into(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    originals = (autodiff.backward, hop.expand_joined)
    try:
        tracer = importlib.import_module("spans").Tracer("t")
        try:
            tracer.install()        # a missing target raises
        finally:
            tracer.uninstall()
        for name in ("rep", "checks", "inputs"):
            importlib.import_module(name)
    finally:
        for path in PERFBENCH.glob("*.py"):
            sys.modules.pop(path.stem, None)
    assert (autodiff.backward, hop.expand_joined) == originals
