import io
import json

import pytest

from hjtoric.cli import main
from hjtoric.errors import DomainError
from hjtoric.rationals import parse_rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestResolve:
    def test_chain(self, capsys):
        code, obj = run_json(capsys, "resolve", "--r", "5", "--p", "3", "--q", "2")
        assert code == 0
        assert obj["chain"] == [-2, -2, -2, -2]
        assert obj["k"] == 4 and obj["alpha"] == 2

    def test_smooth(self, capsys):
        code, obj = run_json(capsys, "resolve", "--r", "1", "--p", "1", "--q", "1")
        assert code == 0
        assert obj["chain"] == [] and "smooth" in obj["note"]

    def test_gcd_violation_exits_2(self, capsys):
        code = main(["resolve", "--r", "4", "--p", "2", "--q", "1"])
        assert code == 2


class TestBlowup:
    def test_seven_four(self, capsys):
        code, obj = run_json(capsys, "blowup", "--p", "7", "--q", "4")
        assert code == 0
        assert obj["mcduff"] == [4, 3, 1, 1, 1]
        assert obj["cuts"] == [[1, 1], [1, 2], [2, 3], [3, 5], [4, 7]]
        assert obj["chain_p"] == [-3, -2, -2]
        assert obj["chain_q"] == [-4]
        assert obj["cross_check"] is True

    def test_svg(self, capsys):
        code, out = run_cli(capsys, "blowup", "--p", "2", "--q", "1", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and "</svg>" in out

    def test_needs_p_greater(self, capsys):
        assert main(["blowup", "--p", "4", "--q", "7"]) == 2

    def test_svg_scale_below_one_exits_2(self, capsys):
        assert run_cli(capsys, "blowup", "--p", "7", "--q", "4", "--format", "svg",
                       "--scale", "0") == (2, "")

    def test_rational_size(self, capsys):
        code, obj = run_json(capsys, "blowup", "--p", "2", "--q", "1", "--size", "3/7")
        assert code == 0 and obj["size"] == "3/7"


class TestEquiv:
    def test_inverse_pair(self, capsys):
        code, obj = run_json(
            capsys, "equiv", "--r", "5", "--q1", "2", "--q2", "3", "--oriented"
        )
        assert code == 0
        assert obj["type_equivalent"] is True and obj["same_resolution"] is True

    def test_same_type(self, capsys):
        code, obj = run_json(capsys, "equiv", "--r", "7", "--q1", "2", "--q2", "2")
        assert code == 0 and obj["type_equivalent"] is True

    def test_distinct(self, capsys):
        code, obj = run_json(
            capsys, "equiv", "--r", "7", "--q1", "2", "--q2", "3", "--oriented"
        )
        assert code == 0
        assert obj["type_equivalent"] is False and obj["same_resolution"] is False


class TestSignature:
    def test_from_file(self, capsys, tmp_path):
        f = tmp_path / "lat.json"
        f.write_text(json.dumps({"pairing": [[0, 1], [1, 0]]}))
        code, obj = run_json(capsys, "signature", str(f))
        assert code == 0
        assert (obj["b_plus"], obj["b_minus"], obj["b_zero"]) == (1, 1, 0)

    def test_full_lattice_json(self, capsys, tmp_path):
        f = tmp_path / "lat.json"
        f.write_text(
            json.dumps(
                {"classes": ["A", "B"], "pairing": [[-2, 1], [1, -2]], "c1": [0, 0]}
            )
        )
        code, obj = run_json(capsys, "signature", str(f))
        assert code == 0 and obj["b_minus"] == 2

    def test_missing_file(self, capsys):
        assert main(["signature", "/nonexistent/lat.json"]) == 2

    @pytest.mark.parametrize("text", [
        '{"pairing": [[1.5, 0], [0, -1]]}',
        '{"pairing": [[true, 0], [0, -1]]}',
        '{"pairing": [[-2]], "c1": [0.5]}',
        '{"pairing": [[0,1],[1,0]]',
        '{"pairing": [[0,1],[1]]}',
        '{"pairing": [[0]], "classes": [["A"]]}',
        '{"pairing": [[0]], "classes": "A"}',
    ], ids=["float", "bool", "float-c1", "truncated-json", "ragged", "list-label", "str-classes"])
    def test_malformed_lattice_exits_2(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(capsys, "signature", "-") == (2, "")


class TestSimulate:
    def input_obj(self, **extra):
        obj = {
            "fixed_points": [
                {"level": "0", "sign": 1, "p": 2, "q": 1},
                {"level": "1/2", "sign": -1, "p": 2, "q": 1},
            ],
            "eps": "1/8",
            "loops": 5,
            "bound": 3,
        }
        obj.update(extra)
        return obj

    def test_matched_pair(self, capsys, tmp_path):
        f = tmp_path / "sim.json"
        f.write_text(json.dumps(self.input_obj()))
        code, obj = run_json(capsys, "simulate", str(f))
        assert code == 0
        assert obj["verdict"] == "HAMILTONIAN"
        assert obj["loop_of_contradiction"] == 4
        assert obj["ledger"] == ["1/8", "5/8", "9/8", "13/8"]
        assert "classes" in obj["final_lattice"]
        assert obj["cover"]["relations"] == [
            ["I1", "U1"], ["I2", "U2"], ["I2", "U1"], ["I1", "U2"],
        ]

    def test_empty_fixed_points(self, capsys, tmp_path):
        f = tmp_path / "sim.json"
        f.write_text(json.dumps({"fixed_points": []}))
        code, obj = run_json(capsys, "simulate", str(f))
        assert code == 0 and obj["verdict"] == "NO_OBSTRUCTION"

    def test_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "sim.json"
        f.write_text("{nope")
        assert main(["simulate", str(f)]) == 2

    def test_validation_errors_structured(self, capsys, tmp_path):
        f = tmp_path / "sim.json"
        obj = self.input_obj()
        obj["fixed_points"][1]["p"] = 3
        f.write_text(json.dumps(obj))
        code, out = run_cli(capsys, "simulate", str(f))
        assert code == 2
        assert "errors" in json.loads(out)

    def test_output_file(self, capsys, tmp_path):
        f = tmp_path / "sim.json"
        f.write_text(json.dumps(self.input_obj()))
        out = tmp_path / "result.json"
        code, _ = run_cli(capsys, "simulate", str(f), "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "HAMILTONIAN"


def _two_points(**extra):
    obj = {
        "fixed_points": [
            {"level": "0", "sign": 1, "p": 2, "q": 1},
            {"level": "1/2", "sign": -1, "p": 2, "q": 1},
        ],
        "loops": 5,
        "bound": 3,
    }
    obj.update(extra)
    return obj


def _point_with(**fields):
    obj = _two_points()
    obj["fixed_points"][0].update(fields)
    return obj


def _point_without(key):
    obj = _two_points()
    del obj["fixed_points"][0][key]
    return obj


@pytest.mark.parametrize("obj", [
    {"fixed_points": {"level": "0"}},
    {"fixed_points": [1, 2]},
    _point_without("level"),
    _point_without("sign"),
    _point_without("p"),
    _point_without("q"),
    _point_with(p=2.7),
    _point_with(q=True),
    _point_with(sign="1"),
    _point_with(level=False),
    dict(_two_points(), fixed_points=[
        {"level": "0", "sign": 1, "p": 2, "q": 1, "match": "1"},
        {"level": "1/2", "sign": -1, "p": 2, "q": 1, "match": "0"},
    ]),
    _two_points(loops=True),
    _two_points(loops=2.0),
    _two_points(bound="3"),
    _two_points(bound=False),
    _two_points(bound=-1),
    _two_points(tracked_independent="false"),
    _two_points(eps=True),
    _two_points(base=True),
], ids=[
    "fixed-points-not-list", "fixed-point-not-object", "no-level", "no-sign",
    "no-p", "no-q", "float-p", "bool-q", "str-sign", "bool-level", "str-match",
    "bool-loops", "float-loops", "str-bound", "bool-bound", "negative-bound",
    "str-tracked", "bool-eps", "bool-base",
])
def test_malformed_simulation_exits_2(capsys, monkeypatch, obj):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    assert run_cli(capsys, "simulate", "-") == (2, "")


@pytest.mark.parametrize("value", [True, False])
def test_parse_rational_rejects_bool(value):
    with pytest.raises(DomainError):
        parse_rational(value)


def test_bound_zero_and_null_are_accepted(capsys, monkeypatch):
    for bound in (0, None):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_two_points(bound=bound))))
        code, obj = run_json(capsys, "simulate", "-")
        assert code == 0 and obj["verdict"] == "HAMILTONIAN"


class TestHj:
    def test_expansion(self, capsys):
        code, obj = run_json(capsys, "hj", "--m", "7", "--k", "3")
        assert code == 0
        assert obj["terms"] == [3, 2, 2]
        assert obj["reversed_terms"] == [2, 2, 3]
        assert obj["k_prime"] == 5

    def test_bad_residue(self, capsys):
        assert main(["hj", "--m", "6", "--k", "3"]) == 2


def test_log_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HJTORIC_LOG", "debug")
    code, _ = run_cli(capsys, "hj", "--m", "5", "--k", "2")
    assert code == 0


def test_equiv_gcd_violation_exits_2():
    assert main(["equiv", "--r", "6", "--q1", "2", "--q2", "1"]) == 2


def test_hj_smooth_case(capsys):
    code, obj = run_json(capsys, "hj", "--m", "1", "--k", "0")
    assert code == 0 and obj["terms"] == []


def test_blowup_lattice_feeds_signature(capsys, tmp_path):
    """The lattice block of the blowup output round-trips into signature."""
    code, obj = run_json(capsys, "blowup", "--p", "7", "--q", "5")
    assert code == 0
    f = tmp_path / "lat.json"
    f.write_text(json.dumps(obj["lattice"]))
    code, sig = run_json(capsys, "signature", str(f))
    assert code == 0
    assert (sig["b_plus"], sig["b_minus"], sig["b_zero"]) == (0, 5, 0)


def test_simulate_message_present(capsys, tmp_path):
    f = tmp_path / "sim.json"
    f.write_text(json.dumps({
        "fixed_points": [
            {"level": "0", "sign": 1, "p": 2, "q": 1},
            {"level": "1/2", "sign": -1, "p": 2, "q": 1},
        ],
        "loops": 4, "bound": 3,
    }))
    code, obj = run_json(capsys, "simulate", str(f))
    assert code == 0
    assert obj["verdict"] == "HAMILTONIAN"
    assert "b2+" in obj["message"]
