import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pickseq import repro
from pickseq.methods import TRADITIONAL

EXPECTED_IDS = {
    "p42-weightmon-adams",
    "p42-weightmon-jefferson",
    "p42-weightmon-webster",
    "p42-weightmon-hill",
    "p42-weightmon-dean",
    "p52-quota-popmon",
    "p52-quota-weightmon",
    "p61-mnw-resmon",
    "p61-mnw-popmon",
    "p63-mwnw-wprop1",
    "pa1-ecycle-resmon",
    "pa2-aw-resmon",
    "pb1-quota-weightconsistency",
    "mwnw-wef1",
    "table1-matrix",
}


def test_catalog_ids_complete():
    ids = {c.id for c in repro.catalog()}
    assert ids == EXPECTED_IDS


@pytest.mark.parametrize("case_id", sorted(EXPECTED_IDS - {"table1-matrix"}))
def test_counterexample_case_passes(case_id):
    result = repro.run_case(case_id)
    assert result.passed, f"{case_id} diverged on {result.diff}: {result.actual}"


def test_unknown_case_id_rejected():
    with pytest.raises(ValueError):
        repro.run_case("p99-unknown")


def test_weightmon_weights_sit_inside_their_intervals():
    # each stored tuple must satisfy the strict inequalities that force the
    # base order (1,2,1,3,1) and the boosted order (1,1,2,3,1)
    for method, (weights, boosted, extended) in repro.WEIGHTMON_WEIGHTS.items():
        f = TRADITIONAL[method]
        s = 1 if extended else 0

        def fv(t: int) -> Fraction:
            value = f.rational_value(t)
            if value is not None:
                return value
            # hill: compare through squared values instead
            return None

        w1, w2, w3 = weights
        assert boosted > w1 > w2 > w3 > 0
        if method == "hill":
            # squared forms of the same inequalities
            def sq(t):
                return Fraction(t * (t + 1))

            assert w2 * w2 < sq(s + 2) / sq(s + 1)
            assert w1 * w1 * sq(s + 1) > w2 * w2 * sq(s + 2)
            assert w1 * w1 * sq(s) < w2 * w2 * sq(s + 1)
            assert boosted * boosted * sq(s) > w2 * w2 * sq(s + 1)
            assert boosted * boosted * sq(s) < sq(s + 2)
            assert w1 * w1 * sq(s) > sq(s + 1)
        else:
            assert 1 < w2 < fv(s + 2) / fv(s + 1)
            assert max(w2 * fv(s + 2) / fv(s + 1), fv(s + 1) / fv(s)) < w1
            assert w1 < w2 * fv(s + 1) / fv(s)
            assert w2 * fv(s + 1) / fv(s) < boosted < fv(s + 2) / fv(s)


def test_table_expected_matches_documented_matrix():
    t = repro.TABLE_EXPECTED
    assert all(t[r]["resource_monotone"] for r in ("adams", "jefferson", "webster", "hill", "dean", "quota"))
    assert not t["mwnw"]["resource_monotone"]
    assert not t["quota"]["population_monotone"]
    assert all(not t[r]["weight_monotone"] for r in ("adams", "jefferson", "webster", "hill", "dean", "quota"))
    assert t["mwnw"]["weight_monotone"]
    assert t["adams"]["wef1"] and not t["jefferson"]["wef1"]
    assert all(t[r]["wwef1"] for r in t)
    assert t["jefferson"]["wprop1"] and t["quota"]["wprop1"] and not t["adams"]["wprop1"]


GOLDEN_REPRO_ALL = Path(__file__).resolve().parent / "golden" / "repro_all.json"


def test_repro_all_json_matches_golden_file():
    # `pickseq repro --all --json` stdout, byte for byte, as recorded in the
    # committed file (sha256 e325779b..., Python 3.11.7): results must stay
    # identical across changes, not only across two runs of one build
    golden = GOLDEN_REPRO_ALL.read_bytes()
    assert hashlib.sha256(golden).hexdigest().startswith("e325779b")
    env = dict(os.environ, PYTHONPATH=str(GOLDEN_REPRO_ALL.parents[2] / "src"))
    done = subprocess.run([sys.executable, "-m", "pickseq", "repro", "--all", "--json"],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == b""
    assert done.stdout == golden
