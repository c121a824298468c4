import io
import json
import sys
import time
from fractions import Fraction
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hjtoric import circle, cli
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

    def test_validates_once(self, capsys, tmp_path, monkeypatch):
        """The run validates once and the cover needs no validation."""
        calls, validate = [], circle.validate

        def counting(data):
            calls.append(data)
            return validate(data)

        monkeypatch.setattr(circle, "validate", counting)
        monkeypatch.setattr(cli, "validate", counting, raising=False)
        f = tmp_path / "sim.json"
        f.write_text(json.dumps(self.input_obj()))
        code, obj = run_json(capsys, "simulate", str(f))
        assert code == 0 and "cover" in obj and obj["verdict"] == "HAMILTONIAN"
        assert len(calls) == 1

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

    @pytest.mark.parametrize("eps", ["1/8", "1/2"])
    def test_validation_errors_with_eps(self, capsys, tmp_path, eps):
        """An unbalanced pairing prints only its errors, also when eps is
        too large for a cover (1/2): the cover comes after the run."""
        f = tmp_path / "sim.json"
        obj = self.input_obj(eps=eps)
        obj["fixed_points"][1]["p"] = 3
        f.write_text(json.dumps(obj))
        code, out = run_cli(capsys, "simulate", str(f))
        assert code == 2
        assert json.loads(out) == {
            "errors": ["unmatched weights (2, 1): blowups and blowdowns do not balance"]}

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
    {"fixed_points": [], "eps": True},
    {"fixed_points": [], "eps": "1/8"},
], ids=[
    "fixed-points-not-list", "fixed-point-not-object", "no-level", "no-sign",
    "no-p", "no-q", "float-p", "bool-q", "str-sign", "bool-level", "str-match",
    "bool-loops", "float-loops", "str-bound", "bool-bound", "negative-bound",
    "str-tracked", "bool-eps", "bool-base", "no-points-bool-eps", "no-points-eps",
])
def test_malformed_simulation_exits_2(capsys, monkeypatch, obj):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    assert run_cli(capsys, "simulate", "-") == (2, "")


@pytest.mark.parametrize("command", ["signature", "simulate"])
def test_directory_input_exits_2(capsys, tmp_path, command):
    code = main([command, str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["signature", "simulate"])
def test_non_utf8_input_exits_2(capsys, tmp_path, command):
    f = tmp_path / "in.json"
    f.write_bytes(b'{"pairing": [[-1]], "classes": ["\xff"]}')
    code = main([command, str(f)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error:") and "UTF-8" in captured.err


@pytest.mark.parametrize("value", [True, False])
def test_parse_rational_rejects_bool(value):
    with pytest.raises(DomainError):
        parse_rational(value)


def test_parse_rational_keeps_exact_forms():
    assert [parse_rational(v) for v in ("3", "-7/2", " 3 ", "1.5")] == [
        3, Fraction(-7, 2), 3, Fraction(3, 2)]


_HUGE = "1e-99999999"  # 11 characters for a 332-million-bit denominator


def _huge_level():
    obj = _two_points()
    obj["fixed_points"][0]["level"] = _HUGE
    return obj


@pytest.mark.parametrize("argv,obj", [
    (("blowup", "--p", "7", "--q", "4", "--size", _HUGE), None),
    (("simulate", "-"), _huge_level()),
    (("simulate", "-"), _two_points(eps=_HUGE)),
    (("simulate", "-"), _two_points(base=_HUGE)),
    (("simulate", "-"), _two_points(delta=_HUGE)),
], ids=["size", "level", "eps", "base", "delta"])
def test_exponent_notation_exits_2_at_once(capsys, monkeypatch, argv, obj):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    t0 = time.perf_counter()
    code = main(list(argv))
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "exponent notation" in captured.err


def test_a_fixed_point_error_names_the_point(capsys, monkeypatch):
    obj = _two_points()
    obj["fixed_points"][1]["level"] = "3/2"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    assert main(["simulate", "-"]) == 2
    assert capsys.readouterr().err == "error: fixed point 1: level must lie in [0, 1), got 3/2\n"


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


@pytest.mark.parametrize("level", ["INFO", "Critical", "error"])
def test_log_env_var_any_case(capsys, monkeypatch, level):
    monkeypatch.setenv("HJTORIC_LOG", level)
    code, _ = run_cli(capsys, "hj", "--m", "5", "--k", "2")
    assert code == 0


@pytest.mark.parametrize("level", ["basic_format", "root", "", "notset", "10"])
def test_log_env_var_unknown_level_exits_2(capsys, monkeypatch, level):
    """A name that is not a level (a logging attribute, a logger, a number)
    is an input error, not a traceback or a silently ignored setting."""
    monkeypatch.setenv("HJTORIC_LOG", level)
    code = main(["hj", "--m", "5", "--k", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: HJTORIC_LOG") and "Traceback" not in err


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


# -- fuzz: random argv and stdin JSON, with integers bounded so no run is long

def _mostly(valid, junk):
    """Draws from ``valid`` three times as often as from ``junk``."""
    return st.one_of(valid, valid, valid, junk)


_JUNK = ("x", "1.5", "", "-0", "1/2", "1e3", " 7", "--p")
_INT_ARG = st.integers(-3, 40 + len(_JUNK)).map(lambda n: _JUNK[n - 41] if n > 40 else str(n))
_NUMBER = st.one_of(st.integers(-3, 40), st.booleans(), st.none(),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from(["0", "1/2", "-3/4", "7/8", "1/0", "x", "", "2.5"]))
_JSON = st.recursive(
    _NUMBER | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_LEVELS = ["0", "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "7/8"]


@st.composite
def _balanced_points(draw):
    """Valid fixed points: matched pairs at distinct levels, FIFO or explicit."""
    k = draw(st.integers(1, 4))
    levels = draw(st.permutations(_LEVELS))[:2 * k]
    weights = draw(st.lists(st.sampled_from([(1, 1), (2, 1), (3, 2), (7, 4)]), min_size=k, max_size=k))
    explicit = draw(st.booleans())
    points = []
    for i, (p, q) in enumerate(weights):
        for j, sign in ((2 * i, 1), (2 * i + 1, -1)):
            point = {"level": levels[j], "sign": sign, "p": p, "q": q}
            if explicit:
                point["match"] = j ^ 1
            points.append(point)
    return points


_FIXED_POINT = st.fixed_dictionaries(
    {"level": st.sampled_from(_LEVELS) | _NUMBER},
    optional={"sign": st.sampled_from([1, -1, 0, "1", True]),
              "p": st.integers(0, 8), "q": st.integers(0, 8), "match": st.integers(-1, 6)},
)
_SIMULATION = st.fixed_dictionaries(
    {"fixed_points": _balanced_points() | st.lists(_FIXED_POINT, max_size=6)},
    optional={"loops": _mostly(st.integers(1, 6), st.integers(-1, 0) | _NUMBER),
              "bound": _mostly(st.integers(-1, 6) | st.none(), _NUMBER),
              "tracked_independent": _mostly(st.booleans(), _NUMBER),
              "eps": _mostly(st.sampled_from(["1/100", "1/16", "1/4"]), _NUMBER),
              "base": _mostly(st.sampled_from(["1/16", "9/16"]), _NUMBER),
              "delta": _mostly(st.sampled_from(["1/1000", "1"]), _NUMBER)},
)


@st.composite
def _symmetric_lattice(draw):
    n = draw(st.integers(0, 6))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(n) for j in range(i, n)}
    pairing = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    return {"pairing": pairing, "classes": [f"C{i}" for i in range(n)],
            "c1": draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))}


_LATTICE = _symmetric_lattice() | st.fixed_dictionaries(
    {"pairing": st.lists(st.lists(_NUMBER | st.integers(-3, 3), max_size=3), max_size=3)},
    optional={"classes": _JSON, "c1": _JSON},
)
_STDIN_JUNK = _JSON.map(json.dumps) | st.text(max_size=20)


def _args(*parts):
    """(argv, no stdin) from words, word lists and strategies of either."""
    strategies = [p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts]
    flat = lambda words: [w for x in words for w in (x if isinstance(x, list) else [x])]
    return st.tuples(*strategies).map(lambda words: (flat(words), ""))


_CASE = st.one_of(
    _args("resolve", "--r", _INT_ARG, "--p", _INT_ARG, "--q", _INT_ARG),
    _args("blowup", "--p", _INT_ARG, "--q", _mostly(st.integers(1, 4).map(str), _INT_ARG),
          "--size", _mostly(st.sampled_from(["1", "1/3"]), st.sampled_from(["0", "-1", "x"])),
          "--format", st.sampled_from(["json", "svg", "png"]), "--scale", _INT_ARG),
    _args("equiv", "--r", _INT_ARG, "--q1", _INT_ARG, "--q2", _INT_ARG,
          st.sampled_from([[], ["--oriented"]])),
    _args("hj", "--m", _INT_ARG, "--k", _INT_ARG),
    _args(st.lists(st.sampled_from(["hj", "blowup", "--p", "3", "-", "--bogus", "nope"]),
                   max_size=4)),
    st.tuples(st.just(["signature", "-"]), _mostly(_LATTICE.map(json.dumps), _STDIN_JUNK)),
    st.tuples(st.just(["simulate", "-"]), _mostly(_SIMULATION.map(json.dumps), _STDIN_JUNK)),
)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_CASE)
def _fuzz_main(case):
    argv, stdin = case
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 2), (argv, stdin, code, err.getvalue())
    if code == 0:
        text = out.getvalue()
        if text.startswith("<svg"):
            ET.fromstring(text)
        else:
            json.loads(text)


def test_fuzz_main_exits_0_or_2_with_parseable_output():
    t0 = time.perf_counter()
    _fuzz_main()
    assert time.perf_counter() - t0 < 5.0
