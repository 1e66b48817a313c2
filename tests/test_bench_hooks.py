"""The benchmark's trace hooks still find what they time.

``perfbench/tracing.py`` binds coopbc functions, and the parameters it
counts, by module and attribute name.  One tiny operation of every kind the
benchmark runs goes through under a single root span with the hooks
installed, so a renamed hooked function or counted parameter fails here and
not only in the benchmark's own minute-long check.  The benchmark files are
only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from coopbc import cli, oracle
from coopbc.becbsc import BecBscBC
from coopbc.numerics import LogBase

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# the numpy oracle has no separate corner-scan kernel
ABSENT = {"coopbc._accel.corner_scan"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_hook_resolves_and_counts(tracing, tmp_path):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"u_size": 2, "p_u": [0.5, 0.5],
                               "p_x_given_u": [[0.8, 0.2], [0.2, 0.8]]}))
    simulate = ["simulate", "--n", "8", "--r1", "0.2", "--r2", "0.2", "--c12", "0.2",
                "--trials", "20"]
    argvs = [
        ["region", "becbsc", "0.1", "0.2", "--c12", "0.1", "--grid", "11"],
        ["region", "gaussian", "5", "0.5", "--c12", "0.2", "--grid", "11", "--format", "json"],
        ["sweep", "becbsc", "0.1", "0.2", "--points", "3"],
        ["check-mc", "becbsc", "0.1", "0.2", "--resolution", "100"],
        simulate + ["--channel", "becbsc", "--params", "0.1", "0.2", "--input-law", str(law)],
        simulate + ["--channel", "gaussian", "--params", "5", "0.5", "--power-split", "0.35"],
    ]
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        with tracer.span(tracing.ROOT):
            for i, argv in enumerate(argvs):
                assert cli.main(argv + ["--out", str(tmp_path / str(i))]) == 0
            oracle.oracle_both(
                BecBscBC(0.1, 0.2).pair(), 0.2, oracle.GridSpec(steps=4), LogBase.BITS
            )
    assert hooks.absent == ABSENT
    ran = {span["name"] for span in tracer.as_records()}
    assert ran >= {h.span for h in tracing.HOOKS if h.where not in ABSENT}
