"""tools/same_behaviour.py: its number, value and JSON comparisons, its
error line, and its replay, which steps a saved stream through two copies
of the package and replays the inserts it makes."""

import importlib.util
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from driftwatch import cli, load_tensor_csv

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "same_behaviour", ROOT / "tools" / "same_behaviour.py")
same_behaviour = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_behaviour)
_spec = importlib.util.spec_from_file_location(
    "pipeline", ROOT / "streambench" / "pipeline.py")
pipeline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pipeline)

GAMMA = "gamma = k_drive + k_s @ beta[1:] + beta[0]"
# the same sum re-associated: equal in exact arithmetic, not in floats
GAMMA_REASSOCIATED = "gamma = k_drive + (k_s @ beta[1:] + beta[0])"
ACCEPT = """    if g_raw >= 0.0:
        return g_raw, Action.ACCEPT
"""
# every negative score is reported, so the model never updates
REPORT_EVERY_NEGATIVE = ACCEPT + "    return g_raw, Action.REPORT_ANOMALY\n"
RETURN_VERDICT = ("    return state, Verdict(t_idx, g_raw, p_env, g_adv, "
                  "action)\n")
# a step's displacement eta*vel, and the same with eta one ulp larger
STEP = "np.multiply(g, eta, out=w_new)"
STEP_ONE_ULP_LONGER = "np.multiply(g, np.nextafter(eta, 1.0), out=w_new)"
# an error that is no DriftwatchError, after the event has changed the state
RAISE_AT_EVENT_10 = """    if t_idx == 10:
        raise RuntimeError("boom")
"""


def change_copy(root, module, old, new):
    """A checkout under ``root`` whose package has ``old`` replaced by
    ``new`` in ``module``."""
    change = root / "src" / "driftwatch"
    shutil.copytree(ROOT / "src" / "driftwatch", change,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (change / module).read_text()
    assert old in source
    (change / module).write_text(source.replace(old, new))
    return root


class TestNumericDiff:
    def test_decodes_hex_floats(self):
        assert same_behaviour.numeric_diff(
            '{"a": "0x1.0000000000000p+0"}',
            '{"a": "0x1.8000000000000p+0"}') == 0.5

    def test_equal_texts(self):
        assert same_behaviour.numeric_diff("t,1.5,-2e-3\n",
                                           "t,1.5,-2e-3\n") == 0.0

    def test_other_text_between_numbers_is_inf(self):
        assert same_behaviour.numeric_diff('{"a": 1}',
                                           '{"b": 1}') == math.inf
        assert same_behaviour.numeric_diff("1,2", "1,2,3") == math.inf


class TestExact:
    def test_signed_zeros_differ(self):
        assert same_behaviour.exact(-0.0) != same_behaviour.exact(0.0)

    def test_int_and_float_differ(self):
        assert same_behaviour.exact(1) != same_behaviour.exact(1.0)

    def test_equal_values_agree(self):
        assert same_behaviour.exact(0.1 + 0.2) == same_behaviour.exact(
            0.30000000000000004)


def test_failed_subprocess_is_one_error_line():
    with pytest.raises(same_behaviour.CheckoutError) as err:
        same_behaviour.run([sys.executable, "-c", "raise RuntimeError('x')"],
                           None, None, "probe")
    assert str(err.value) == "probe failed: RuntimeError: x"


class TestLeafDiff:
    OLD = {"a.b": "1", "a.c": '"0x1.0000000000000p+0"', "d": "[1, 2]"}

    def test_names_added_removed_and_changed_paths(self):
        new = {"a.b": "1", "a.c": '"0x1.8000000000000p+0"', "e": "true"}
        assert same_behaviour.leaf_diff("b.json", self.OLD, new) == [
            "    b.json added: e",
            "    b.json removed: d",
            "    b.json changed: a.c" + " " * 22 + "max|dnumber| 5.0e-01",
        ]

    def test_equal_leaves_give_no_lines(self):
        assert same_behaviour.leaf_diff("b.json", self.OLD,
                                        dict(self.OLD)) == []


def test_bundles_must_be_byte_identical_while_cli_files_may_round(capsys):
    old = {"b.json": b'{"x": "0x1.0000000000000p+0"}'}
    new = {"b.json": b'{"x": "0x1.0000000000001p+0"}'}
    assert same_behaviour.compare_files("cli", old, new,
                                        same_behaviour.G_RAW_TOL) == 0
    assert same_behaviour.compare_files("bundle", old, new) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "bundle b.json MISMATCH max|dnumber| 2.2e-16",
        "    b.json changed: x" + " " * 24 + "max|dnumber| 2.2e-16"]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A set-up directory holding one run, "small": the bundle of A6's
    train command for both sides, and its input tensor, window length and
    the window-fit settings as the parent's set-up saves them for seed 1.
    Its stream makes 5 inserts."""
    work = tmp_path_factory.mktemp("work")
    tmp = tmp_path_factory.mktemp("cli")
    for argv in same_behaviour.CLI_COMMANDS[0], same_behaviour.CLI_COMMANDS[2]:
        assert cli.main([str(tmp / arg) if arg in ("t.csv", "b.json")
                         else arg for arg in argv]) == 0
    for side in same_behaviour.SIDES:
        (work / side).mkdir()
        shutil.copyfile(tmp / "b.json", work / side / "small.json")
    np.savez(work / "parent" / "small.npz",
             data=load_tensor_csv(str(tmp / "t.csv")).data, window=30,
             **{key: getattr(pipeline, key) for key in same_behaviour.FIT})
    return work


def replay(change, work, capsys):
    """The small run replayed through this checkout and ``change``: the
    numbers of runs and of inserts that differ, and the printed lines."""
    runs, inserts = same_behaviour.compare_replay(ROOT, change, work,
                                                  ["small"])
    return runs, inserts, capsys.readouterr().out


def test_replay_through_two_copies_is_identical(small_run, capsys):
    runs, inserts, out = replay(ROOT, small_run, capsys)
    verdicts = 30 * same_behaviour.ROUNDS
    assert runs == inserts == 0
    assert (f"small                  match                    verdicts "
            f"{verdicts}, bit-identical {verdicts}; max|dg_raw| 0.0e+00  "
            f"max|dmodel| 0.0e+00  inserts 5  ") in out
    assert "inserts 5, identical 5, differ 0" in out
    assert "small                  fit match; CPU ms parent " in out


def test_replay_flags_a_window_fit_that_moves_by_one_ulp(small_run, capsys,
                                                          tmp_path):
    change = change_copy(tmp_path, "decomp.py", STEP, STEP_ONE_ULP_LONGER)
    runs, _, out = replay(change, small_run, capsys)
    assert runs == 1
    assert "small                  fit MISMATCH; CPU ms parent " in out
    assert re.search(r"small +MISMATCH \S*fit ", out)


def test_replay_names_the_inserts_a_one_ulp_change_moves(small_run, capsys,
                                                         tmp_path):
    change = change_copy(tmp_path, "incremental.py", GAMMA,
                         GAMMA_REASSOCIATED)
    _, inserts, out = replay(change, small_run, capsys)
    assert inserts > 0
    assert out.count("small insert") == out.count("DIFFERS") == inserts


def test_replay_flags_a_change_that_reports_every_negative_score(
        small_run, capsys, tmp_path):
    change = change_copy(tmp_path, "advisor.py", ACCEPT,
                         REPORT_EVERY_NEGATIVE)
    runs, _, out = replay(change, small_run, capsys)
    assert runs == 1
    assert "small                  MISMATCH actions," in out


def test_replay_counts_an_exception_as_a_mismatch(small_run, capsys,
                                                  tmp_path):
    change = change_copy(tmp_path, "advisor.py", RETURN_VERDICT,
                         RAISE_AT_EVENT_10 + RETURN_VERDICT)
    runs, inserts, out = replay(change, small_run, capsys)
    assert (runs, inserts) == (1, 0)
    assert "small                  MISMATCH actions,errors " in out
