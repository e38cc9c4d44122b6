"""The CLI contract as a property: whatever argv, `main` returns 0, 1 or 2.

Arguments are drawn from the argparse tree itself, so a new flag is covered
as soon as it exists.  Every value set is small: generators of at most 40
zeros (above the bound of 32, which is refused before anything is built),
symbols of Laurent degree at most 3, at most one trial per check and a
quadrature cap of at most 4096 nodes, so that no example allocates a large
array, and nothing here starts a thread or a process.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from truncops import CHECKS, errors, generate_instance
from truncops.blaschke import InnerFunction
from truncops.cli import build_parser, main
from truncops.modelspace import ModelSpaceBasis, OperatorMatrix, tm_basis

TYPED = {name for name, obj in vars(errors).items()
         if isinstance(obj, type) and issubclass(obj, errors.TruncOpsError)}

JUNK = st.sampled_from(["", "x", "{", "[]", "{}", "null", "1e999", "-1", "nan", "inf"])

VALID_INNERS = st.one_of(
    st.sampled_from(["z1", "z^2", "z3"]),
    st.lists(st.complex_numbers(max_magnitude=0.9), min_size=1, max_size=4).map(
        lambda zs: json.dumps({"zeros": [[z.real, z.imag] for z in zs]})))
INNERS = st.one_of(
    VALID_INNERS,
    st.sampled_from(["z0", "z33", "z99999"]),
    st.lists(st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)), max_size=40).map(
        lambda zs: json.dumps({"zeros": [list(z) for z in zs]})),
    st.sampled_from(['{"zeros": [[0.5, 0.0]], "constant": [0.0, 1.0]}',
                     '{"zeros": [[0.5, 0.0]], "constant": [2.0, 0.0]}',
                     '{"zeros": [[0.5]]}', '{"zeros": "z2"}']),
    JUNK)

VALID_SYMBOLS = st.one_of(
    st.dictionaries(st.integers(-3, 3).map(str),
                    st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(list),
                    min_size=1, max_size=4).map(lambda c: json.dumps({"laurent": c})),
    st.just('{"num": [[1, 0]], "den": [[1, 0], [-0.5, 0]]}'))
SYMBOLS = st.one_of(
    VALID_SYMBOLS,
    st.sampled_from(['{"num": [[1, 0]], "den": [[1, 0], [-1, 0]]}',
                     '{"num": [[1, 0]], "den": [[0, 0]]}', '{"laurent": [1]}',
                     '{"nu": [[1, 0]]}']),
    JUNK)

VALID_SCALARS = st.sampled_from(["1,0", "0,1", "0.6,0.8", "-1", "0.5", "inf"])
SCALARS = st.one_of(VALID_SCALARS, st.sampled_from(["0", "nan", "1,nan", "1,0,5"]),
                    st.floats(allow_nan=True, allow_infinity=True, width=32).map(repr), JUNK)

# a few small specs and operators, written once; `files` maps each name to its path
SPECS = {
    "spec-one": lambda: generate_instance(1, (2, 3), (1, 2), {"spaces": 1}).to_json(),
    "spec-three": lambda: generate_instance(2, (2, 3), (1, 2), {"spaces": 3}).to_json(),
    "spec-symmetric": lambda: generate_instance(
        3, (2, 3), (1, 2), {"spaces": 2, "real_symmetric": True}).to_json(),
    "spec-empty": lambda: {},
    "spec-big": lambda: dict(generate_instance(4, (2, 3), (1, 2), {"spaces": 1}).to_json(),
                             u={"zeros": [[0.1, 0.0]] * 40}),
    "operator": lambda: OperatorMatrix.identity(tm_basis(InnerFunction((0.3, -0.2j)))).to_json(),
    "operator-antilinear": lambda: OperatorMatrix(
        [[1, 0], [0, 1]], tm_basis(InnerFunction((0.3, 0.1))),
        tm_basis(InnerFunction((0.3, 0.1))), antilinear=True).to_json(),
    "operator-big": lambda: {
        "domain": {"zeros": [[0.1, 0.0]] * 33}, "codomain": {"zeros": [[0.1, 0.0]] * 33},
        "antilinear": False,
        "matrix": [[[float(i == j), 0.0] for j in range(33)] for i in range(33)]},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = {}
    for name, make in SPECS.items():
        out[name] = root / f"{name}.json"
        out[name].write_text(json.dumps(make()))
    out["not-json"] = root / "not.json"
    out["not-json"].write_text("{")
    out["missing"] = root / "missing.json"
    return {name: str(path) for name, path in out.items()}


def _values(files, clean: bool):
    """The strategy of the value of each flag, by its dest: valid values alone
    when clean, else valid ones mixed with junk; any other flag gets junk."""
    specs = st.sampled_from([files[k] for k in ("spec-one", "spec-three", "spec-symmetric")])
    operators = st.sampled_from([files["operator"], files["operator-antilinear"]])
    theorems = st.sampled_from(["kernel-core", "clark-unitary", "displacement-roundtrip"])
    valid = {
        "u": VALID_INNERS, "v": VALID_INNERS, "symbol": VALID_SYMBOLS,
        "alpha": VALID_SCALARS, "c": VALID_SCALARS, "input": operators, "spec": specs,
        "tol": st.just("1e-9"), "theorem": theorems, "seed": st.integers(0, 5).map(str),
        "trials": st.integers(0, 1).map(str), "quad_tol": st.just("1e-12"),
        "quad_cap": st.sampled_from(["64", "4096"]),
    }
    if clean:
        return valid
    paths = st.sampled_from(sorted(files.values()))
    mixed = {
        "u": INNERS, "v": INNERS, "symbol": SYMBOLS, "alpha": SCALARS, "c": SCALARS,
        "input": paths, "spec": paths,
        "tol": st.sampled_from(["1e-300", "0", "-1", "nan", "inf"]),
        "theorem": st.sampled_from(sorted(CHECKS) + ["no-such-check"]),
        "seed": st.integers(-2, 5).map(str), "trials": st.just("-1"),
        "quad_tol": st.sampled_from(["1e-15", "1e-300", "0", "nan"]),
        "quad_cap": st.sampled_from(["1", "16", "0", "-8"]),
    }
    return {dest: st.one_of(valid[dest], mixed[dest], JUNK) for dest in valid}


def _subcommands():
    (group,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    return group.choices


@st.composite
def argvs(draw, files):
    clean = draw(st.booleans())
    values = _values(files, clean)
    subs = _subcommands()
    name = draw(st.sampled_from(sorted(subs)))
    argv = [name]
    for action in subs[name]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if action.required and draw(st.integers(0, 19)) == 0:
            continue        # a missing required flag is a usage error
        if not action.required and draw(st.integers(0, 3)) < (1 if clean else 2):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices is not None:
            argv += [flag, draw(st.sampled_from(list(action.choices)) if draw(st.booleans())
                                else JUNK)]
        else:
            argv += [flag, draw(values.get(action.dest, JUNK))]
    if name == "verify-suite" and "--theorem" not in argv:
        argv += ["--theorem", "kernel-core"]       # one cheap check per example
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-h"])))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_returns_a_code_and_never_a_traceback(files, data):
    argv = data.draw(argvs(files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse: 2 on a usage error, 0 after --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    event(f"{argv[0]} exit {code}")
    text = err.getvalue()
    if code == 1 and text.startswith("error: "):
        assert text.split(":")[1].strip() in TYPED, (argv, text)
    assert "Traceback" not in text, (argv, text)


def test_classify_refuses_a_generator_above_the_bound_before_building(files, monkeypatch,
                                                                     capsys):
    built = []
    init = ModelSpaceBasis.__init__
    monkeypatch.setattr(ModelSpaceBasis, "__init__",
                        lambda self, generator: built.append(generator) or init(self, generator))
    assert main(["classify", "--input", files["operator-big"]]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidRange: degree 33")
    assert built == []
