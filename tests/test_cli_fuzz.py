"""Any argument vector exits 0, 1 or 2 and never ends in a traceback.

Argument vectors are drawn from a fixed table of subcommands, positionals,
flags and values: numbers, non-finite and negative values, words that are not
numbers, and malformed input files.  Each runs through ``main`` in this
process, so an uncaught exception fails the test.  Values that make a command
expensive (grid sizes, oracle steps, trials, blocklength, scan resolution)
are bounded so that the whole test takes a few seconds.
"""

import contextlib
import io
import json
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopbc.channel import make_bec
from coopbc.cli import main


@dataclass(frozen=True)
class Tokens:
    """Values for one slot; a draw is malformed one time in ``odds``."""

    plausible: list
    malformed: list
    odds: int = 6


NUMBER = Tokens(["0.1", "0.2", "0.5", "5"], ["nan", "inf", "-inf", "-1", "0", "abc", ""])
RATE = Tokens(["0", "0.1", "0.2"], ["nan", "inf", "-1", "5", "abc"])
RATE_LIST = Tokens(["0,0.2", "0.1", ""], ["0.2,nan", "inf", ",", "abc", "5"])
RATE_LIST_COMMANDS = ("fig2", "fig3", "sweep")  # their --c12 is a comma-separated list

# input files the fuzzer may name: name -> text, or None for a directory
FILES = {
    "law.json": json.dumps({"u_size": 2, "p_u": [0.5, 0.5],
                            "p_x_given_u": [[0.8, 0.2], [0.2, 0.8]]}),
    "law_list.json": "[0.5, 0.5]",
    "law_missing.json": json.dumps({"u_size": 2, "p_u": [0.5, 0.5]}),
    "law_nan.json": '{"u_size": 1, "p_u": [NaN], "p_x_given_u": [[0.5, 0.5]]}',
    "channel.json": make_bec(0.2).to_json(),
    "channel_list.json": "[[1.0, 0.0], [0.0, 1.0]]",
    "channel_missing.json": json.dumps({"rows": [[1.0, 0.0], [0.0, 1.0]], "output_size": 2}),
    "not_json.json": "rows = 1",
    "directory": None,
}
BAD_FILES = sorted(set(FILES) - {"law.json", "channel.json"}) + ["absent.json"]
LAW_FILE = Tokens(["law.json"], BAD_FILES, odds=2)
CHANNEL_FILE = Tokens(["channel.json"], BAD_FILES, odds=2)
FAMILY = Tokens(["gaussian", "becbsc"], ["json"])
BECBSC = Tokens(["becbsc"], ["gaussian"])

# (subcommand, leading tokens, flags every draw carries); a leading token is
# fixed text or drawn from Tokens, and the carried flags keep defaults cheap
# (oracle-compare scans 200 steps by default)
SIMULATE = ["--params", "--n", "--r1", "--r2", "--c12", "--trials"]
VARIANTS = [
    ("region", [FAMILY, NUMBER, NUMBER], ["--c12"]),
    ("fig2", [], []),
    ("fig3", [], []),
    ("check-mc", [BECBSC, NUMBER, NUMBER], []),
    ("check-mc", [Tokens(["json"], ["becbsc"]), CHANNEL_FILE, CHANNEL_FILE], []),
    ("oracle-compare", [BECBSC, NUMBER, NUMBER], ["--c12", "--steps"]),
    ("sweep", [FAMILY, NUMBER, NUMBER], []),
    ("simulate", ["--channel", BECBSC, "--input-law", LAW_FILE], SIMULATE),
    ("simulate", ["--channel", Tokens(["gaussian"], ["becbsc"]), "--power-split",
                  Tokens(["0", "0.35", "1"], ["nan", "-1", "2", "abc"])], SIMULATE),
]
FLAGS = {
    "--c12": RATE,
    "--which": Tokens(["inner", "outer", "both"], ["none"]),
    "--grid": Tokens(["2", "11", "201"], ["-1", "0", "1", "abc"]),
    "--format": Tokens(["csv", "json"], ["xml"]),
    "--tol": Tokens(["1e-6", "1e-10"], ["nan", "inf", "0", "-1", "abc", "1e-300"]),
    "--base": Tokens(["bits", "nats"], ["e"]),
    "--threads": Tokens(["1", "2"], ["0", "-1", "abc"]),
    "--seed": Tokens(["0", "7"], ["-1", "abc"]),
    "--resolution": Tokens(["1", "1000"], ["0", "-1", "abc"]),
    "--steps": Tokens(["2", "12"], ["0", "-1", "abc"]),
    "--u-size": Tokens(["1", "2", "3"], ["0", "-1", "abc"]),
    "--budget": Tokens(["0", "5e-3", "0.5"], ["nan", "inf", "-1", "abc"]),
    "--points": Tokens(["1", "3"], ["0", "-1", "abc"]),
    "--params": NUMBER,
    "--n": Tokens(["1", "8", "12"], ["0", "-1", "abc"]),
    "--r1": Tokens(["0", "0.1", "0.3"], RATE.malformed),
    "--r2": Tokens(["0", "0.1", "0.3"], RATE.malformed),
    "--trials": Tokens(["1", "50"], ["0", "-1", "abc"]),
    "--input-law": LAW_FILE,
    "--codeword-budget": Tokens(["64", "65536"], ["0", "-1", "abc"]),
    "--help": None,
}
# the flags each subcommand registers besides the carried ones
OPTIONAL = {
    "region": ["--which", "--grid", "--format", "--tol", "--base"],
    "fig2": ["--c12", "--grid", "--format", "--base"],
    "fig3": ["--c12", "--grid", "--format", "--tol", "--base"],
    "check-mc": ["--resolution", "--tol", "--base"],
    "oracle-compare": ["--u-size", "--budget", "--grid", "--format", "--threads", "--base"],
    "sweep": ["--c12", "--points", "--tol", "--base"],
    "simulate": ["--codeword-budget", "--threads", "--seed"],
}


def token(draw, slot):
    if isinstance(slot, str):
        return slot
    malformed = draw(st.integers(1, slot.odds)) == slot.odds
    return draw(st.sampled_from(slot.malformed if malformed else slot.plausible))


@st.composite
def argvs(draw):
    command, leading, carried = draw(st.sampled_from(VARIANTS))
    argv = [command] + [token(draw, slot) for slot in leading]
    # a flag of any subcommand one time in eight
    pool = sorted(FLAGS) if draw(st.integers(0, 7)) == 7 else OPTIONAL[command]
    for flag in carried + draw(st.lists(st.sampled_from(pool), max_size=4)):
        argv.append(flag)
        values = RATE_LIST if flag == "--c12" and command in RATE_LIST_COMMANDS else FLAGS[flag]
        if values is not None:
            argv += [token(draw, values) for _ in range(2 if flag == "--params" else 1)]
    # a token dropped one time in eight: missing values and positionals
    if len(argv) > 1 and draw(st.integers(0, 7)) == 7:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        if text is None:
            (root / name).mkdir()
        else:
            (root / name).write_text(text)
    return root


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(argv=argvs())
def test_any_argv_exits_0_1_or_2_without_a_traceback(workdir, argv):
    argv = [str(workdir / a) if a in FILES or a == "absent.json" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--out", str(workdir / "out")])
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
