"""Tests of the benchmark itself: seeded generators, verifiers, tracer, runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import islice

import pytest

import run

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hjtoric import blowup, homology  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
IN_PROCESS = ("blowup-sweep", "circle-sim", "lattice-read")


@pytest.fixture
def cli():
    wl = workloads.make("cli", run.OUT / "work-test", run.child_env())
    yield wl
    wl.close()


def first_jobs(wl, seed, n=12):
    return list(islice(wl.jobs(seed), n))


def fingerprint(job):
    data = job.data
    if isinstance(data, tuple) and isinstance(data[0], workloads.Action):
        data = data[0]
    if isinstance(data, workloads.CliCase):
        data = data.name
    if isinstance(data, tuple) and isinstance(data[0], workloads.LatticeText):
        data = (hash(data[0].text), data[1])
    return job.kind, repr(data)


@pytest.mark.parametrize("name", IN_PROCESS + ("cli",))
def test_generators_are_deterministic_per_seed(name, cli):
    wl = cli if name == "cli" else workloads.make(name, None, {})
    a = [fingerprint(j) for j in first_jobs(wl, 7, 40)]
    b = [fingerprint(j) for j in first_jobs(wl, 7, 40)]
    c = [fingerprint(j) for j in first_jobs(wl, 8, 40)]
    assert a == b
    assert a != c


def test_blowup_sweep_mix():
    wl = workloads.BlowupSweep(20)
    sweep = first_jobs(wl, 3, wl.count)
    long = sorted(j.data for j in sweep if j.kind == "long")
    assert len(long) == wl.long == len(sweep) // 4
    assert {q for _, q in long} >= {1, 2} and any(q == p - 1 for p, q in long)
    assert long[-1][0] > 250
    assert long == sorted(j.data for j in first_jobs(wl, 4, wl.count) if j.kind == "long")
    uniform = [j for j in sweep if j.kind == "uniform"]
    assert all(len(oracle.euclid_multiplicities(*j.data)) <= 30 for j in uniform)
    # the same cut counts for every seed, from different pairs
    other = [j for j in first_jobs(wl, 4, wl.count) if j.kind == "uniform"]
    assert sorted(j.needs_cuts for j in uniform) == sorted(j.needs_cuts for j in other)
    assert sorted(j.data for j in uniform) != sorted(j.data for j in other)


def test_circle_sim_mix_is_the_same_for_every_seed():
    wl = workloads.CircleSim(2)

    def mix(seed):
        jobs = first_jobs(wl, seed, wl.count)
        return sorted((j.kind, len(j.data[0].levels), j.data[0].bound) for j in jobs if j.kind != "long")

    assert mix(3) == mix(4)
    assert [fingerprint(j) for j in first_jobs(wl, 3)] != [fingerprint(j) for j in first_jobs(wl, 4)]


def run_one(wl, kind, seed=5):
    job = next(j for j in wl.jobs(seed) if j.kind == kind)
    out = wl.run(job)
    assert wl.verify(job, out) == workloads.OK
    return job, out


def test_blowup_verifier_rejects_wrong_results():
    wl = workloads.BlowupSweep()
    job, (cfg, seq, agree, lat, sig, rest) = run_one(wl, "long")
    b_plus, b_minus, b_zero = sig
    assert wl.verify(job, (cfg, seq, agree, lat, (b_plus + 1, b_minus, b_zero), rest)) != workloads.OK
    assert wl.verify(job, (cfg, seq, False, lat, sig, rest)) != workloads.OK
    short = dataclasses.replace(seq, cut_directions=seq.cut_directions[:-1])
    assert wl.verify(job, (cfg, short, agree, lat, sig, rest)) != workloads.OK
    assert wl.verify(job, (cfg, seq, agree, lat, sig, lat)) != workloads.OK


@pytest.mark.parametrize("kind", ["plain", "long", "eps"])
def test_circle_verifier_rejects_missing_ledger_step(kind):
    wl = workloads.CircleSim()
    job, (res, cover) = run_one(wl, kind)
    gap = res.ledger[:1] + res.ledger[2:]
    assert wl.verify(job, (dataclasses.replace(res, ledger=gap), cover)) != workloads.OK
    late = dataclasses.replace(res, loop_of_contradiction=res.loop_of_contradiction + 1)
    assert wl.verify(job, (late, cover)) != workloads.OK


def test_circle_verifier_checks_untracked_verdict_and_cover():
    wl = workloads.CircleSim()
    job, (res, cover) = run_one(wl, "untracked")
    assert wl.verify(job, (dataclasses.replace(res, verdict="HAMILTONIAN"), cover)) != workloads.OK
    job, (res, cover) = run_one(wl, "eps")
    wide = dataclasses.replace(cover, i_arcs=tuple((a - cover.eps, b + cover.eps) for a, b in cover.i_arcs))
    assert wl.verify(job, (res, wide)) != workloads.OK


def test_lattice_signature_is_sum_of_blocks():
    import random
    for seed in range(5):
        lat = workloads.make_lattice(random.Random(seed), 80)
        parsed = homology.IntersectionLattice.from_json(lat.text)
        assert homology.signature(parsed) == lat.signature
        assert len(parsed) == 80


def test_lattice_read_verifier_rejects_wrong_results():
    wl = workloads.LatticeRead(1)
    job, (chains, same, equiv, size, sig) = run_one(wl, "lattice")
    assert chains, "the job has chain blocks"
    b_plus, b_minus, b_zero = sig
    assert wl.verify(job, (chains, same, equiv, size, (b_plus + 1, b_minus, b_zero))) != workloads.OK
    assert wl.verify(job, (chains, same, equiv, size - 1, sig)) != workloads.OK
    assert wl.verify(job, (chains[::-1] + [chains[0].reversed()], same, equiv, size, sig)) != workloads.OK
    assert wl.verify(job, (chains, [not s for s in same], equiv, size, sig)) != workloads.OK
    assert wl.verify(job, (chains, same, [not e for e in equiv], size, sig)) != workloads.OK
    assert wl.verify(job, (chains[1:], same[1:], equiv[1:], size, sig)) != workloads.OK


def test_lattice_read_sizes_are_the_same_for_every_seed():
    wl = workloads.LatticeRead(2)
    sizes = lambda seed: sorted(j.data[0].size for j in first_jobs(wl, seed, wl.count))
    assert sizes(1) == sizes(2)
    assert sizes(1)[0] >= 50 and sizes(1)[-1] <= 400


def test_speed_scale():
    ref = speed.REF_S
    assert speed.scale([1.0, 2.0], [ref, ref, ref]) == [1.0, 2.0]
    assert speed.scale([1.0, 1.0], [2 * ref] * 3) == [0.5, 0.5]
    # one slow calibration among steady ones moves nothing
    assert speed.scale([1.0] * 4, [ref, ref, 9 * ref, ref, ref]) == [1.0] * 4
    assert speed.scale([1.0], [1.0, 3.0], ref=2.0) == [1.0]
    assert 0 < speed.calibrate() < 1
    assert 0 < speed.calibrate_start() < 10


def test_cli_verifier(cli):
    case = {c.name: c for c in cli.cases}
    job = workloads.Job("x", case["hj-7-3"])
    good = cli.run_in_process(job)
    assert good[0] == 0 and cli.verify(job, good) == workloads.OK
    assert cli.verify(job, (2, "")) != workloads.OK
    assert cli.verify(job, (0, good[1].replace('"k_prime": 5', '"k_prime": 4'))) != workloads.OK
    defect = workloads.Job("x", case["defect-simulate-bound-str"])
    assert cli.verify(defect, (1, "")) == workloads.KNOWN_DEFECT
    assert cli.verify(defect, (2, "")) == workloads.OK
    assert cli.verify(defect, (0, "{}")) != workloads.OK
    svg = workloads.Job("x", case["blowup-7-4-svg"])
    out = cli.run_in_process(svg)
    assert cli.verify(svg, out) == workloads.OK
    assert cli.verify(svg, (0, out[1].replace('class="cut"', 'class="edge"', 1))) != workloads.OK


def test_cli_corpus_in_process_matches_documented_or_known_codes(cli):
    statuses = [cli.verify(j, cli.run_in_process(j)) for j in islice(cli.jobs(1), len(cli.cases))]
    assert statuses.count(workloads.OK) == len(cli.cases) - 8
    assert statuses.count(workloads.KNOWN_DEFECT) == 8


def test_tracer_self_time_and_restore():
    import hjtoric
    tracer = tracing.Tracer()
    original = hjtoric.cross_check
    with tracer:
        assert hjtoric.cross_check is not original
        assert blowup.cross_check is hjtoric.cross_check
        hjtoric.cross_check(7, 4)  # outside a job span: not recorded
        assert tracer.spans == []
        tracer.run_job(0, hjtoric.cross_check, 7, 4)
        parsed = tracer.run_job(1, homology.IntersectionLattice.from_json, '{"pairing": [[-2]]}')
    assert hjtoric.cross_check is original and blowup.cross_check is original
    assert len(parsed) == 1
    jobs = [workloads.Job("a", None, 1, 5), workloads.Job("b", None)]
    m = tracer.layer_metrics(jobs)
    assert m["blowup.cross_check.calls"][0] == 1
    assert m["blowup.fulton_config.calls"][0] == 1
    assert m["lattice2d.corner_cut.calls"][0] == 5
    assert m["homology.from_json.calls"][0] == 1
    assert m["blowup.replay_useful_ratio"][0] == 1.0
    assert m["blowup.config_useful_ratio"][0] == 1.0
    cc = m["blowup.cross_check.self_s"][0]
    assert 0 < cc < m["blowup.cross_check.busy_s"][0]
    assert 0.8 < sum(m[f"{l}.share"][0] for l in tracing.LAYERS) <= 1.0


def test_tail_percentile():
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (94.0, 90.0)
    assert run.tail([1.0, 2.0]) == (1.5, 100.0)


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", IN_PROCESS + ("cli",))
def test_tiny_runs(name, cli, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    seconds = "0.3"
    count = len(cli.cases) if name == "cli" else workloads.make(name, None, {}, float(seconds)).count
    assert run.main(["--workload", name, "--seed", "3", "--seconds", seconds, "--trace", "0"]) == 0
    res = last_json(capsys)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == count
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in res["metrics"].values())
    # the 8 roadmap defect inputs of the 32-input cli corpus are not verified
    assert res["metrics"]["verified_frac"]["value"] == (0.75 if name == "cli" else 1.0)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", seconds, "--trace", "1"]) == 0
    res = last_json(capsys)
    assert res["correct"] and res["attempted"] == 2 * count
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    calls = {k[:-len(".calls")]: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls")}
    bypassed = {
        "circle-sim": ["lattice2d.corner_cut", "homology.signature"],
        "blowup-sweep": [n for n in calls if n.startswith("circle.")],
        "lattice-read": ["homology.blow_down", "homology.blow_up_at"],
        "cli": [],
    }[name]
    assert all(calls[n] == 0 for n in bypassed)


def test_fails_without_source_tree():
    bare = run.OUT / "bare-test"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(SPEC["command"] + ["--workload", "cli", "--seed", "1", "--seconds", "1",
                                                 "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
