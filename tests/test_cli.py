import io
import json
import re
import sys
import time
from fractions import Fraction
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import closed_form
import dense
import fresh
from hjtoric import FixedPointDatum, circle
from hjtoric.cli import main
from hjtoric.errors import DomainError
from hjtoric.rationals import parse_rational


# JSON that json.loads refuses with RecursionError and with ValueError (an
# int literal over the 4300-digit limit of int("..."))
_DEEP = "[" * 100_000
_LONG_INT = "9" * 5000

# compact, ", " and indented text: the first two take the sparse text read,
# the third json.loads
_SPACINGS = ({"separators": (",", ":")}, {}, {"indent": 2})


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
        for p, q in (("1", "1"), ("3", "2")):
            code, obj = run_json(capsys, "resolve", "--r", "1", "--p", p, "--q", q)
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

    def test_each_route_is_built_once(self, capsys, monkeypatch):
        """The JSON output checks the routes on the config and the replay it
        reports, and the SVG output draws the replay it checked, so each
        constructor runs once per run; the drawing is the one
        ``cut_diagram_svg`` makes."""
        import hjtoric.blowup
        import hjtoric.svg

        svg = hjtoric.svg.cut_diagram_svg(7, 4)
        calls = []
        for module in (hjtoric.blowup, hjtoric.svg):
            for name in ("fulton_config", "mcduff_sequence"):
                if hasattr(module, name):
                    def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(module, name, counted)
        code, obj = run_json(capsys, "blowup", "--p", "7", "--q", "4")
        assert code == 0 and obj["cross_check"] is True
        assert sorted(calls) == ["fulton_config", "mcduff_sequence"]
        calls.clear()
        assert run_cli(capsys, "blowup", "--p", "7", "--q", "4", "--format", "svg") == (0, svg)
        assert sorted(calls) == ["fulton_config", "mcduff_sequence"]
        ET.fromstring(svg)

    def test_svg(self, capsys):
        code, out = run_cli(capsys, "blowup", "--p", "2", "--q", "1", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and "</svg>" in out

    def test_needs_p_greater(self, capsys):
        assert main(["blowup", "--p", "4", "--q", "7"]) == 2

    def test_svg_scale_below_one_exits_2(self, capsys):
        assert run_cli(capsys, "blowup", "--p", "7", "--q", "4", "--format", "svg",
                       "--scale", "0") == (2, "")

    @pytest.mark.parametrize("zeros", [308, 400])
    def test_svg_scale_beyond_a_float_canvas_exits_2(self, capsys, zeros):
        """A canvas of 9.5e308 units is an infinite float and one of 9.5e400
        units overflows the conversion to float: both are refused with a
        one-line error, where they printed ``width="inf"`` or a traceback."""
        code = main(["blowup", "--p", "7", "--q", "4", "--format", "svg",
                     "--scale", "1" + "0" * zeros])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: scale too large") and err.count("\n") == 1

    def test_rational_size(self, capsys):
        code, obj = run_json(capsys, "blowup", "--p", "2", "--q", "1", "--size", "3/7")
        assert code == 0 and obj["size"] == "3/7"


class TestEquiv:
    def test_inverse_pair(self, capsys):
        for r, q1, q2 in (("5", "2", "3"), ("7", "3", "5")):
            code, obj = run_json(capsys, "equiv", "--r", r, "--q1", q1, "--q2", q2, "--oriented")
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
        '{"pairing": [[1]], "classes": 0}',
        '{"pairing": [[1]], "classes": ""}',
        '{"pairing": [[1]], "classes": false}',
        '{"pairing": [[1]], "classes": {}}',
        '{"pairing": [[1]], "classes": []}',
        _DEEP,
        '{"pairing": [[%s]]}' % _LONG_INT,
    ], ids=["float", "bool", "float-c1", "truncated-json", "ragged", "list-label", "str-classes",
            "zero-classes", "empty-str-classes", "false-classes", "dict-classes",
            "empty-list-classes", "deep-nesting", "5000-digit-entry"])
    def test_malformed_lattice_exits_2(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(capsys, "signature", "-") == (2, "")

    @pytest.mark.parametrize("text, want", [
        ('{"pairing": [[0, 1], [1, 0]], "classes": null}', (1, 1, 0)),
        ('{"pairing": [], "classes": []}', (0, 0, 0)),
    ], ids=["null-classes", "empty-lattice"])
    def test_null_or_empty_classes_read(self, capsys, monkeypatch, text, want):
        """Only an absent or null ``classes`` takes the default labels; an
        empty list is valid beside an empty pairing."""
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, obj = run_json(capsys, "signature", "-")
        assert code == 0 and (obj["b_plus"], obj["b_minus"], obj["b_zero"]) == want

    @pytest.mark.parametrize("text, want", [
        ('{"pairing": [[0,1,0,0,1],[1,-2,1,0,0],[0,1,-2,1,0],[0,0,1,-2,1],[1,0,0,1,-2]]}',
         (1, 4, 0)),
        ('{"pairing": [[-2,1,1,0,0],[1,-2,1,0,1],[1,1,-2,1,0],[0,0,1,0,0],[0,1,0,0,-2]]}',
         (1, 4, 0)),
        ('{"pairing": [[-10,1,0,0],[1,-100,1000,0],[0,1000,-10,1],[0,0,1,-100]]}', (1, 3, 0)),
        ('{"pairing": [[0,1,0],[1,-2,1],[0,1,-2]], "classes": ["false", "b", "c"], "note": 0.5}',
         (1, 2, 0)),
    ], ids=["zero-diagonal-5-cycle", "triangle-with-zero-leaf", "inner-and-trailing-zeros",
            "false-label-and-ignored-float"])
    def test_each_text_form_reads_the_dense_oracles_signature(self, capsys, monkeypatch, text,
                                                              want):
        """A 5-cycle with a zero diagonal (a 2x2 pivot at a class of degree
        2, then fill-in), a triangle a zero leaf breaks, entries with inner
        and trailing zeros, and a class label "false" beside a float under an
        ignored key: the text and its compact, ", " and indented forms each
        read the signature of ``tests/dense.py``."""
        obj = json.loads(text)
        assert dense.signature(obj["pairing"]) == want
        for form in (text, *(json.dumps(obj, **spacing) for spacing in _SPACINGS)):
            monkeypatch.setattr("sys.stdin", io.StringIO(form))
            code, sig = run_json(capsys, "signature", "-")
            assert (code, (sig["b_plus"], sig["b_minus"], sig["b_zero"])) == (0, want)

    @pytest.mark.parametrize("text, message", [
        ('{"pairing": [[-2,-0,1],[0,-2,0],[0,0,-2]]}', "pairing not symmetric at (0, 2)"),
        ('{"pairing": [[-2, -0, 1], [0, -2, 0], [0, 0, -2]]}', "pairing not symmetric at (0, 2)"),
        (json.dumps({"pairing": [[-2], [0, -2, 0], [0, True, -2]]}, indent=2),
         "each pairing row must be a list of integers, got [0, True, -2]"),
    ], ids=["negative-zero-compact", "negative-zero-spaced", "indented-short-row-with-true"])
    def test_a_malformed_pairing_exits_2_with_one_error_line(self, capsys, monkeypatch, text,
                                                             message):
        """An asymmetric pairing with a -0 entry, which the sparse read
        leaves to json.loads, in compact and ", " text; and a true in a
        row, which the type pass meets before the square test."""
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(["signature", "-"])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("token", ["1_0", "\u0661"])
    def test_a_compact_token_json_loads_refuses_reads_as_in_indented_text(self, capsys,
                                                                         monkeypatch, token):
        """The message is the indented form's, but for the position that
        json.loads names."""
        errors = []
        for spacing in ({"separators": (",", ":")}, {"indent": 2}):
            text = json.dumps({"pairing": [[-2, 7], [7, -2]]}, **spacing).replace("7", token)
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code = main(["signature", "-"])
            out, err = capsys.readouterr()
            assert (code, out) == (2, "") and err.startswith("error: malformed JSON input: ")
            errors.append(re.sub(r": line \d+ column \d+ \(char \d+\)$", "", err))
        assert errors[0] == errors[1]


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
        """The run validates once and the cover needs no validation.  The
        run checks its data on the level grid it reads its defaults off, by
        ``_validate``."""
        calls, kernel = [], circle._validate

        def counting(data, grid):
            calls.append(data)
            return kernel(data, grid)

        monkeypatch.setattr(circle, "_validate", counting)
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


_HOSTILE_SIMULATIONS = {
    "deep-nesting": _DEEP,
    "5000-digit-p": '{"fixed_points": [{"level": "0", "sign": 1, "p": %s, "q": 1}]}' % _LONG_INT,
}


@pytest.mark.parametrize("text", _HOSTILE_SIMULATIONS.values(), ids=_HOSTILE_SIMULATIONS.keys())
def test_hostile_simulation_json_exits_2(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["simulate", "-"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: malformed JSON input:")


@pytest.mark.parametrize("key", ["base", "eps"])
def test_5000_digit_rational_option_exits_2(capsys, monkeypatch, key):
    """The rational options, like the levels, are read under Python's
    int <-> str digit limit, which the run lifts only after reading them."""
    text = json.dumps(_two_points(**{key: "1/" + _LONG_INT}))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["simulate", "-"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: not an exact rational, got '1/999")


def test_ledger_entries_over_the_digit_limit_are_written_in_full(capsys, monkeypatch):
    """Levels a = 1/A and b = 1/B with 2501-digit A and B are valid input;
    the ledger entries have denominators of about 5000 digits, over Python's
    default int <-> str limit of 4300.  The run writes them in full and
    restores the limit.  The base is the midpoint (1 + a + b)/2 of the long
    arc and the tracked class is born at a, so loop n reads
    (base - a + n - 1)/2, and a bound of 1 ends the run at loop 2."""
    big_a, big_b = 10**2500 + 1, 10**2500 + 3
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"fixed_points": [
        {"level": f"1/{big_a}", "sign": 1, "p": 2, "q": 1},
        {"level": f"1/{big_b}", "sign": -1, "p": 2, "q": 1}], "loops": 2, "bound": 1})))
    limit = sys.get_int_max_str_digits()
    code, obj = run_json(capsys, "simulate", "-")
    assert sys.get_int_max_str_digits() == limit
    a, b = Fraction(1, big_a), Fraction(1, big_b)
    born = (1 + a + b) / 2 - a
    sys.set_int_max_str_digits(0)
    try:
        want = [f"{x.numerator}/{x.denominator}" for x in (born / 2, (born + 1) / 2)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, obj["verdict"], obj["loop_of_contradiction"]) == (0, "HAMILTONIAN", 2)
    assert obj["ledger"] == want and min(map(len, want)) > 2 * limit


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


@pytest.mark.parametrize("value", ["1_0/3", "1 / 2", "1/ 2", "1\t/2"])
def test_parse_rational_refuses_forms_only_newer_pythons_read(value):
    # Fraction reads underscores from Python 3.11 and spaces around "/" from 3.12
    message = f"not an exact rational, got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        parse_rational(value)


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
], ids=["size", "level", "eps", "base"])
def test_exponent_notation_exits_2_at_once(capsys, monkeypatch, argv, obj):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    t0 = time.process_time()
    code = main(list(argv))
    assert time.process_time() - t0 < 1.0
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


@pytest.mark.parametrize("key", ["loops", "bound", "tracked_independent", "eps", "base", "delta"])
def test_a_null_option_prints_what_the_option_left_out_prints(capsys, monkeypatch, key):
    """An optional field set to ``null`` takes its default, as the README
    says: the exit code and stdout are those of the input without it."""
    obj = _two_points(eps="1/8", base="1/4", delta="1/1000", tracked_independent=True)
    runs = []
    for case in ({k: v for k, v in obj.items() if k != key}, {**obj, key: None}):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(case)))
        runs.append(run_cli(capsys, "simulate", "-"))
    assert runs[0] == runs[1] and runs[0][0] == 0


@pytest.mark.parametrize("extra", [{"delta": "1/1000"}, {"delta": "7/3"}, {"delta": "-1"},
                                   {"delta": "1e-99999999"}, {"delta": None}, {"foo": [1.5]}],
                         ids=["delta", "delta-over-1", "negative-delta", "exponent-delta",
                              "null-delta", "unknown-key"])
def test_keys_outside_the_schema_are_ignored(capsys, monkeypatch, extra):
    """A key the schema does not list, ``delta`` included, changes neither
    the exit code nor a byte of stdout."""
    runs = []
    for case in (_two_points(eps="1/8"), _two_points(eps="1/8", **extra)):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(case)))
        runs.append(run_cli(capsys, "simulate", "-"))
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_two_runs_in_one_process_print_the_bytes_a_fresh_process_prints(capsys, monkeypatch):
    """The second run reads the configs the first cached."""
    text = json.dumps(_two_points(eps="1/8"))
    proc = fresh.python("-m", "hjtoric.cli", "simulate", "-", stdin=text)
    assert proc.returncode == 0
    circle._config.cache_clear()
    for _ in range(2):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(capsys, "simulate", "-") == (0, proc.stdout)


@pytest.mark.parametrize("pairs, loops, bound, loop", [
    ([("0", "1/2", 7, 4), ("1/8", "5/8", 3, 2), ("1/4", "3/4", 1, 1)], 200, 199, 200),
    ([("0", "1/2", 255, 1), ("1/4", "3/4", 55, 34)], 30, 20, 21),
], ids=["200-loop-ray", "255-and-10-class-paths"])
def test_simulate_prints_the_closed_form_run(capsys, monkeypatch, pairs, loops, bound, loop):
    """Verdict, ledger, contradiction loop and bound are those of
    ``tests/closed_form.py``: a ledger on the ray of slope 1/(pq) that
    ends HAMILTONIAN at loop 200 under the bound 199, and a run whose -1
    crossings each walk a 255- or a 10-class path."""
    points = [{"level": level, "sign": sign, "p": p, "q": q}
              for up, down, p, q in pairs for level, sign in ((up, 1), (down, -1))]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"fixed_points": points, "loops": loops, "bound": bound})))
    code, out = run_json(capsys, "simulate", "-")
    want = closed_form.run([FixedPointDatum(**point) for point in points], loops, bound)
    assert (want[0], want[2]) == ("HAMILTONIAN", loop)
    assert (code, out["verdict"], tuple(map(Fraction, out["ledger"])),
            out["loop_of_contradiction"], out["bound"]) == (0, *want)


class TestHj:
    def test_expansion(self, capsys):
        code, obj = run_json(capsys, "hj", "--m", "7", "--k", "3")
        assert code == 0
        assert obj["terms"] == [3, 2, 2]
        assert obj["reversed_terms"] == [2, 2, 3]
        assert obj["k_prime"] == 5

    def test_bad_residue(self, capsys):
        assert main(["hj", "--m", "6", "--k", "3"]) == 2


# runs ``python -m hjtoric.cli`` with the arguments after -c in an address
# space capped at 1 GiB, so an unbounded expansion ends in a MemoryError there
_CAPPED = """\
import resource, runpy
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
runpy.run_module("hjtoric.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, stdin", [
    (["hj", "--m", "1000000000000", "--k", "999999999999"], ""),
    (["resolve", "--r", "1000000000001", "--p", "1", "--q", "1000000000000"], ""),
    (["blowup", "--p", "1000000000000", "--q", "1"], ""),
    (["blowup", "--p", "1000000000000", "--q", "1", "--format", "svg"], ""),
    (["simulate", "-"], json.dumps({"fixed_points": [
        {"level": level, "sign": sign, "p": 10 ** 12, "q": 1}
        for level, sign in (("0", 1), ("1/2", -1))]})),
], ids=["hj", "resolve", "blowup", "blowup-svg", "simulate"])
def test_an_expansion_over_the_cap_exits_2(argv, stdin):
    """Inputs whose expansion or cut replay would fill memory exit 2 with a
    one-line error naming the cap, before any loop runs."""
    proc = fresh.python("-c", _CAPPED, *argv, stdin=stdin)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"error: the expansion of \d+/\d+ has \d+ terms, more than 1000000\n",
                        proc.stderr)


@pytest.mark.parametrize("p, q, points", [(1000, 999, 1003002),
                                          (1134903170, 701408733, 1134903172 * 701408735)],
                         ids=["1000-999", "fibonacci-44-cuts"])
def test_a_diagram_grid_over_the_cap_exits_2(p, q, points):
    """An SVG whose (p + 2)(q + 2) grid points pass the cap exits 2 with one
    line and no traceback; (1134903170, 701408733) is a 44-cut replay whose
    grid filled memory."""
    proc = fresh.python("-c", _CAPPED, "blowup", "--p", str(p), "--q", str(q), "--format", "svg")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: the ({p},{q}) diagram has {points} grid points, "
                           "more than 1000000\n")


MATH_MODULES = {f"hjtoric.{m}" for m in (
    "blowup", "circle", "hj", "homology", "lattice2d", "rationals", "resolution", "svg")}

# runs ``python -m hjtoric.cli`` with the arguments after -c, then writes the
# exit code and the modules the command loaded as the last line of stderr
_LOADED = """\
import json, runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("hjtoric.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    sys.stderr.write("\\n" + json.dumps([exc.code, sorted(set(sys.modules) - before)]))
"""


def loaded_by(*argv, stdin: str = "") -> tuple[int, set[str]]:
    """Exit code of ``hjtoric <argv>`` run by a new interpreter, and the
    modules it loaded beyond those loaded at start-up."""
    proc = fresh.python("-c", _LOADED, *argv, stdin=stdin)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return code, set(loaded)


def test_hj_loads_only_its_module():
    code, loaded = loaded_by("hj", "--m", "7", "--k", "3")
    assert code == 0
    assert "hjtoric.hj" in loaded
    assert not {"hjtoric.circle", "hjtoric.blowup", "logging"} & loaded


@pytest.mark.parametrize("argv, stdin", [
    (["resolve", "--r", "5", "--p", "3", "--q", "2"], ""),
    (["blowup", "--p", "7", "--q", "4"], ""),
    (["blowup", "--p", "7", "--q", "4", "--format", "svg"], ""),
    (["equiv", "--r", "7", "--q1", "3", "--q2", "5", "--oriented"], ""),
    (["signature", "-"], '{"pairing": [[0, 1], [1, 0]]}'),
    (["simulate", "-"], json.dumps(_two_points(bound=3))),
], ids=["resolve", "blowup", "blowup-svg", "equiv", "signature", "simulate"])
def test_only_simulate_loads_logging_unasked(argv, stdin):
    """With HJTORIC_LOG unset no subcommand imports ``logging``, as ``hj``
    imports none: the simulator, which logs its debug trail, looks the
    module up instead, and a process that never loaded it cannot have
    turned the trail on.  (``simulate`` was once the one exception.)"""
    code, loaded = loaded_by(*argv, stdin=stdin)
    assert code == 0 and "logging" not in loaded
    if argv[0] == "simulate":
        assert "hjtoric.circle" in loaded


def test_usage_error_loads_no_math_module():
    code, loaded = loaded_by("blowup", "--p", "7")
    assert code == 2
    assert "hjtoric.errors" in loaded and not MATH_MODULES & loaded


def test_simulate_loads_the_simulator_only_for_well_formed_json():
    for text in ('{"fixed_points": [', *_HOSTILE_SIMULATIONS.values()):
        code, loaded = loaded_by("simulate", "-", stdin=text)
        assert code == 2 and not MATH_MODULES & loaded
    code, loaded = loaded_by("simulate", "-", stdin=json.dumps(_two_points(bound=3)))
    assert code == 0 and "hjtoric.circle" in loaded


_HEAVY_IMPORTS = """\
import sys
sys.path.insert(0, sys.argv.pop(1))
from hjtoric.cli import main
code = main(sys.argv[1:])
sys.stderr.write("\\n" + repr([code, sorted({"dataclasses", "inspect", "typing"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("argv, stdin", [
    (["hj", "--m", "7", "--k", "3"], ""),
    (["resolve", "--r", "5", "--p", "3", "--q", "2"], ""),
    (["blowup", "--p", "7", "--q", "4"], ""),
    (["blowup", "--p", "7", "--q", "4", "--format", "svg"], ""),
    (["equiv", "--r", "7", "--q1", "3", "--q2", "5", "--oriented"], ""),
    (["signature", "-"], '{"pairing": [[0, 1], [1, 0]]}'),
    (["simulate", "-"], json.dumps(_two_points(eps="1/8"))),
], ids=["hj", "resolve", "blowup", "blowup-svg", "equiv", "signature", "simulate"])
def test_no_subcommand_loads_dataclasses_inspect_or_typing(argv, stdin):
    """Run bare (``-I -S``: no site hooks, which may preload modules), each
    subcommand leaves ``dataclasses``, ``inspect`` and ``typing`` unloaded."""
    proc = fresh.python("-I", "-S", "-c", _HEAVY_IMPORTS, fresh.PACKAGE_ROOT, *argv, stdin=stdin)
    assert proc.stderr.splitlines()[-1] == "[0, []]", proc.stderr


_FAILED_CROSS_CHECK = """\
import sys
import hjtoric.blowup
hjtoric.blowup.lattices_isomorphic_as_chains = lambda a, b: False
from hjtoric.cli import main
code = main(sys.argv[1:])
sys.stdout.write("\\n" + repr("logging" in sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("log", [None, "debug"])
def test_failed_cross_check_logs_one_error_line(log, capsys):
    """A failed cross-check of ``blowup`` is an internal inconsistency: its
    JSON or SVG is written as for a passed one, then one stderr line and
    exit 1, whether or not HJTORIC_LOG configured logging first.  Only
    HJTORIC_LOG loads ``logging``."""
    for fmt in ("json", "svg"):
        argv = ["blowup", "--p", "7", "--q", "4", "--format", fmt]
        code, want = run_cli(capsys, *argv)
        assert code == 0
        proc = fresh.python("-c", _FAILED_CROSS_CHECK, *argv, log=log)
        out, loaded = proc.stdout.rsplit("\n", 1)
        assert proc.returncode == 1 and loaded == repr(log is not None)
        assert out == want.replace('"cross_check": true', '"cross_check": false')
        assert ('"cross_check": false' in out) == (fmt == "json")
        assert proc.stderr == ("internal inconsistency: cross_check(7, 4) failed: the 5 replayed "
                               "classes do not match the 5 vertex-route classes\n")


_SHARED_CONFIG = {"fixed_points": [
    {"level": level, "sign": sign, "p": p, "q": q} for level, sign, p, q in (
        ("0", 1, 3, 2), ("1/6", 1, 3, 2), ("1/3", 1, 2, 1),
        ("1/2", -1, 3, 2), ("5/7", -1, 3, 2), ("4/5", -1, 2, 1))], "loops": 5}


@pytest.mark.parametrize("obj, lines", [
    (_two_points(eps="1/8"), ["blowup B1", "blowup B2", "blowup T", "blowdown B1"]),
    (_SHARED_CONFIG, ["blowup B1 at position 70/420: weights (3, 2)",
                      "blowup B3 at position 420/420: weights (3, 2)",
                      "blowdown B1 at position 300/420", "blowdown B3 at position 630/420"]),
], ids=["readme", "shared-config"])
def test_the_debug_trail_names_each_instance_by_its_uid(obj, lines):
    """B1, primed at the base level, logs its blowup before the first
    crossing.  Two (3, 2) pairs share one config: with the default base
    17/28 on the grid of 420ths, B1 (1/6 -> 5/7) is primed and B3 (0 ->
    1/2) is installed at the first crossing of level 0; each is blown
    down."""
    proc = fresh.python("-m", "hjtoric.cli", "simulate", "-", stdin=json.dumps(obj), log="debug")
    assert proc.returncode == 0
    for line in lines:
        assert line in proc.stderr


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
    """The lattice block of the blowup output round-trips into signature,
    as compact, ", " and indented text.  The 255-class lattice is a tree,
    so the leaf peel alone reads it."""
    f = tmp_path / "lat.json"
    for p, q, want in (("7", "5", (0, 5, 0)), ("255", "1", (0, 255, 0))):
        code, obj = run_json(capsys, "blowup", "--p", p, "--q", q)
        assert code == 0
        for spacing in _SPACINGS:
            f.write_text(json.dumps(obj["lattice"], **spacing))
            code, sig = run_json(capsys, "signature", str(f))
            assert code == 0
            assert (sig["b_plus"], sig["b_minus"], sig["b_zero"]) == want


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


def test_the_example_script_exits_0():
    proc = fresh.python(str(Path(__file__).parents[1] / "scripts" / "run_simulation.py"))
    assert proc.returncode == 0, proc.stderr


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
              "base": _mostly(st.sampled_from(["1/16", "9/16"]), _NUMBER)},
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
    t0 = time.process_time()
    _fuzz_main()
    assert time.process_time() - t0 < 5.0
