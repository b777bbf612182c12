"""tools/same_behaviour.py: its number and value comparisons, its error
line, and its insert and event legs, replaying recorded inserts and saved
streams through two copies of the package."""

import importlib.util
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from driftwatch import cli, incremental, load_tensor_csv
from driftwatch.ocsvm import KernelSpec, train_batch

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "same_behaviour", ROOT / "tools" / "same_behaviour.py")
same_behaviour = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_behaviour)

GAMMA = "gamma = k_drive + k_s @ beta[1:] + beta[0]"
# the same sum re-associated: equal in exact arithmetic, not in floats
GAMMA_REASSOCIATED = "gamma = k_drive + (k_s @ beta[1:] + beta[0])"
ACCEPT = """    if g_raw >= 0.0:
        return g_raw, Action.ACCEPT
"""
# every negative score is reported, so the model never updates
REPORT_EVERY_NEGATIVE = ACCEPT + "    return g_raw, Action.REPORT_ANOMALY\n"


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


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A few inserts into a small batch model, saved the way the tool's
    workload runs save theirs."""
    rng = np.random.default_rng(4)
    model = train_batch(rng.normal(size=(40, 3)), 0.2, KernelSpec("rbf", 1.5))
    recorder = same_behaviour.InsertRecorder(incremental.add_sample)
    for x_c in 2.0 * rng.normal(size=(30, 3)):
        model, _ = recorder(model, x_c)
    path = tmp_path_factory.mktemp("corpus") / "small.npz"
    recorder.save(path)
    return path


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    """The bundle of A6's train command, with its input tensor and window
    length saved next to it the way the tool's seed-1 runs save theirs."""
    tmp = tmp_path_factory.mktemp("events")
    for argv in same_behaviour.CLI_COMMANDS[0], same_behaviour.CLI_COMMANDS[2]:
        assert cli.main([str(tmp / arg) if arg in ("t.csv", "b.json")
                         else arg for arg in argv]) == 0
    np.savez(tmp / "small.npz", data=load_tensor_csv(str(tmp / "t.csv")).data,
             window=30)
    return (tmp / "b.json").rename(tmp / "small.json")


def test_replay_through_two_copies_is_identical(corpus, capsys):
    assert same_behaviour.compare_replay(ROOT, ROOT, [corpus]) == 0
    assert "inserts 30, identical 30, differ 0" in capsys.readouterr().out


def test_replay_names_the_inserts_a_one_ulp_change_moves(corpus, capsys,
                                                         tmp_path):
    change = change_copy(tmp_path, "incremental.py", GAMMA,
                         GAMMA_REASSOCIATED)
    differ = same_behaviour.compare_replay(ROOT, change, [corpus])
    out = capsys.readouterr().out
    assert differ > 0
    assert out.count("small insert") == out.count("DIFFERS") == differ


def test_event_replay_through_two_copies_is_identical(small_bundle, capsys):
    assert same_behaviour.compare_replay(ROOT, ROOT, [small_bundle]) == 0
    verdicts = 30 * same_behaviour.ROUNDS
    assert (f"events small            verdicts {verdicts}, bit-identical "
            f"{verdicts}, actions differ 0;") in capsys.readouterr().out


def test_event_replay_flags_a_change_that_reports_every_negative_score(
        small_bundle, capsys, tmp_path):
    change = change_copy(tmp_path, "advisor.py", ACCEPT,
                         REPORT_EVERY_NEGATIVE)
    differ = same_behaviour.compare_replay(ROOT, change, [small_bundle])
    out = capsys.readouterr().out
    assert differ > 0
    assert f"actions differ {differ};" in out
