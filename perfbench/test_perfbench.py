"""The benchmark's checks are not vacuous: a wrong result planted in each
workload is counted as failed, and the known faults fail as described.

    python3 -m pytest perfbench -q
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from harness import CALIBRATION_S, Recorder, Speed, per_op_medians  # noqa: E402
from layers import Calls, fresh_import  # noqa: E402
from workloads import GENS, WORKLOADS, CactusTables, CliRequests, HeckeIdentities, OracleCrosscheck  # noqa: E402


@pytest.fixture
def m():
    return fresh_import()


def cactus_round(m, x, fam=None):
    wl = WORKLOADS["cactus_tables"]
    fam = fam or wl.setup(m, Calls(m), seed=1).families[0]
    rec = Recorder()
    table = {g: [None] * len(fam.words) for g in GENS}
    wl.word_round(Calls(m), rec, fam, x, table)
    return rec


def test_cactus_counts_the_wall_crossing_fault(m):
    rec = cactus_round(m, 0)
    assert (rec.attempted, rec.failed, rec.correct) == (len(GENS), 1, True)
    assert [k.split(":")[0] for k in rec.errors] == ["IndexError"]


def test_cactus_counts_a_corrupted_corner(m):
    fam = CactusTables().setup(m, Calls(m), seed=1).families[0]
    real_act = m.growth.act
    s24 = m.cactus.CactusWord(6, (m.cactus.CactusGen(2, 4),))
    # a word whose true s(2,4) image has a valid neighbour differing in one inner corner
    for x, w in enumerate(fam.words):
        good = real_act(s24, w)
        bad = [v for v in fam.words if v.corners[-1] == good.corners[-1]
               and sum(a != b for a, b in zip(v.corners, good.corners)) == 1]
        if bad:
            break

    def act(g, word):
        return bad[0] if word == w and g == s24 else real_act(g, word)

    m.growth.act = act
    rec = cactus_round(m, x)
    assert rec.failed == 2 and not rec.correct
    assert any("s(2,4)" in line and "wall crossing" in line for line in rec.wrong)


def test_cactus_checks_later_rounds_against_the_verified_result(m):
    fam = CactusTables().setup(m, Calls(m), seed=1).families[2]
    assert cactus_round(m, 0, fam).failed == 1
    rec = cactus_round(m, 0, fam)
    assert (rec.attempted, rec.failed, rec.correct) == (len(GENS), 1, True)

    real_act = m.growth.act
    s16 = m.cactus.CactusWord(6, (m.cactus.CactusGen(1, 6),))
    other = fam.words[1]
    m.growth.act = lambda g, word: other if word == fam.words[0] and g == s16 else real_act(g, word)
    rec = cactus_round(m, 0, fam)
    assert rec.failed == 2 and not rec.correct
    assert any("s(1,6)" in line and "verified" in line for line in rec.wrong)


def test_speed_factors_follow_the_local_calibration_time():
    speed = Speed(period=0.0)
    speed.times = [0.1 * k for k in range(100)]
    speed.durations = [CALIBRATION_S * (2 if 3.0 <= t < 6.0 else 1) for t in speed.times]
    assert speed.factors([1.0, 4.5, 8.0, 100.0]) == [1.0, 2.0, 1.0, 1.0]


def test_an_operation_is_timed_by_its_median_over_the_passes():
    # two operations, three passes; one stall in pass 2
    assert per_op_medians([1.0, 10.0, 9.0, 11.0, 2.0, 12.0], passes=3) == [2.0, 11.0]
    with pytest.raises(RuntimeError):
        per_op_medians([1.0, 2.0, 3.0], passes=2)


def test_oracle_counts_a_wrong_promotion(m):
    wl = OracleCrosscheck()
    st = wl.setup(m, Calls(m), seed=1)
    tabs = [t for t in st.syts if t.n == 5 and len(t.rows) == 2]
    rec = Recorder()
    for t in tabs:
        rec.op(wl.syt_op, Calls(m), st, t)
    assert (rec.failed, rec.correct) == (0, True)

    real = m.growth.promotion
    words = [m.words.syt_to_word(t.rows, rank=2) for t in tabs]
    k = next(k for k, w in enumerate(words) if real(w) != m.growth.evacuation(w))
    m.growth.promotion = lambda w: m.growth.evacuation(w) if w == words[k] else real(w)
    rec = Recorder()
    for t in tabs:
        rec.op(wl.syt_op, Calls(m), st, t)
    assert rec.failed == 1 and rec.wrong == [f"promotion mismatch at {tabs[k]}"]


def test_hecke_counts_a_changed_matrix_entry(m):
    wl = HeckeIdentities()
    st = wl.setup(m, Calls(m), seed=1)
    rec = Recorder()
    wl.battery(Calls(m), st, rec, (2, 1))
    assert rec.attempted > 20 and (rec.failed, rec.correct) == (0, True)

    real = m.hecke.u_matrix

    def u_matrix(rep, i):
        mat = real(rep, i)
        if rep.shape != (2, 1) or i != 1:
            return mat
        rows = [list(r) for r in mat.entries]
        rows[0][0] = rows[0][0] + m.qalgebra.RationalFunction.one()
        return m.qalgebra.QMatrix(rows)

    m.hecke.u_matrix = u_matrix
    rec = Recorder()
    wl.battery(Calls(m), st, rec, (2, 1))
    assert rec.failed >= 1 and not rec.correct
    assert any("u_1^2" in line for line in rec.wrong)


def cli_pass(m, tmp_path, requests=None):
    wl = CliRequests()
    st = wl.setup(m, Calls(m), seed=1, workdir=str(tmp_path))
    if requests is not None:
        st.requests = requests(st.requests)
    rec = Recorder()
    wl.run_pass(st, Calls(m), rec)
    return st, rec


def test_cli_fails_exactly_the_named_malformed_requests(m, tmp_path):
    st, rec = cli_pass(m, tmp_path)
    assert rec.correct, rec.wrong
    assert rec.failed == 5
    assert sorted(k.split(":")[0] for k in rec.errors) == ["Fault", "KeyError", "KeyError", "TypeError"]
    assert rec.errors["Fault: malformed request exited 0"] == 2


def test_cli_counts_a_wrong_exit_code(m, tmp_path):
    real = m.cli.main
    target = []

    def main(argv):
        return 3 if argv == target[0] else real(argv)

    def pick(requests):
        target.append(next(r[1] for r in requests if r[0] == "promote"))
        return requests

    m.cli.main = main
    _, rec = cli_pass(m, tmp_path, pick)
    assert rec.failed == 6
    assert any(k.startswith("Fault: exit 3") for k in rec.errors)


def test_cli_counts_a_wrong_answer(m, tmp_path):
    real = m.growth.evacuation
    m.growth.evacuation = lambda w: m.growth.promotion(w) if real(w) != m.growth.promotion(w) else real(w)
    _, rec = cli_pass(m, tmp_path, lambda reqs: [r for r in reqs if r[0] == "evacuate"])
    assert rec.failed >= 1 and not rec.correct
    assert len(rec.wrong) == rec.failed and all("tableau oracle" in line for line in rec.wrong)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_one_run_prints_the_result_line():
    proc = run_bench(ROOT, "--workload", "cli_requests", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] * 213 == out["attempted"] * 5
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {x["name"] for x in json.load(fh)["end_to_end"]}
    assert set(out["metrics"]) == names


def test_without_the_program_it_exits_nonzero(tmp_path):
    proc = run_bench(str(tmp_path), "--workload", "cli_requests", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
