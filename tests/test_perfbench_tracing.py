"""The benchmark's traced run (`perfbench/run.py --trace 1`) patches program
functions by name; each of them must still exist and be put back."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_finds_and_restores_every_patched_name(monkeypatch):
    # importing run.py sets these; monkeypatch restores them at teardown
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = {path.stem for path in PERFBENCH.glob("*.py")} - set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)
        spec.loader.exec_module(run)
        import spans

        class RecordingTracer(spans.Tracer):
            def __init__(self):
                super().__init__()
                self.originals = []

            def patch(self, owner, attr, replacement):
                self.originals.append((owner, attr, vars(owner)[attr]))
                super().patch(owner, attr, replacement)

        tracer = RecordingTracer()
        run.install_tracing(tracer)
        assert tracer.originals
        for owner, attr, original in tracer.originals:
            assert vars(owner)[attr] is not original, attr
        tracer.restore()
        for owner, attr, original in tracer.originals:
            assert vars(owner)[attr] is original, attr
    finally:
        for name in own:
            sys.modules.pop(name, None)
