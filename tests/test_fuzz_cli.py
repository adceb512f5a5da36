"""The command line fuzzed in process: short expressions over the tokens of
the three grammars, and mutated presentation, matrix and structure-constant
files.  Whatever the input, ``cli.main`` returns 0, 1 or 2 and raises
nothing; a 2 prints one ``error:`` line and nothing on stdout."""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from liediff.cli import main  # noqa: E402
from conftest import DATA  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None)

P1, P_NC = str(DATA / "p1.json"), str(DATA / "p_nc.json")
DEEP = "(" * 1000 + "x" + ")" * 1000

# single digits, joined by spaces, so that no number exceeds 5 and no power
# runs long: ((D1+D2)^5)^5 over p_nc, 11 tokens, takes seconds
FIELD = [str(d) for d in range(6)] + ["x", "y", "z", "+", "-", "*", "/", "^", "(", ")", "#"]
OPERATOR = FIELD + ["D0", "D1", "D2", "D3"]
NORMALPOLY = FIELD + ["X", "[", "]", ",", "s1", "s2", "X[1,0]", "X[0,2]"]


def texts(tokens):
    return st.lists(st.sampled_from(tokens), max_size=8).map(" ".join)


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


@st.composite
def commands(draw):
    # every expression follows "--" or "=", so that one starting with '-'
    # reaches the parser rather than the option parser
    p = ["-p", draw(st.sampled_from([P1, P_NC]))]
    op, npoly, field = texts(OPERATOR), texts(NORMALPOLY), texts(FIELD)
    index = st.integers(-1, 4).map(str)
    return draw(st.one_of(
        st.builds(lambda e: ["normalize", *p, "--", e], op),
        st.builds(lambda a, b: ["commutator", *p, "--", a, b], op, op),
        st.builds(lambda a, f: ["apply", *p, "--", a, f], op, field),
        st.builds(lambda e, w: ["eval", *p, f"--witness={w}", "--", e], npoly, field),
        st.builds(lambda i, e: ["derive-normal", *p, "--", i, e], index, npoly),
        st.builds(
            lambda k, i, e: ["derive-normal", *p, f"--order={k}", "--", i, e], index, index, npoly
        ),
        st.builds(
            lambda e, w, s: ["check-axiom1", *p, f"--witness={w}", *(f"--slot={v}" for v in s), "--", e],
            npoly, field, st.lists(field, max_size=2),
        ),
    ))


@FUZZ
@given(commands())
@example(["normalize", "-p", P1, "--", DEEP])
@example(["eval", "-p", P1, f"--witness={DEEP}", "--", "X[1,0]"])
@example(["eval", "-p", P1, "--witness=x", "--", DEEP])
@example(["eval", "-p", P1, "--witness=x", "--", "X[1,0]^1000000"])
@example(["eval", "-p", P1, "--witness=x", "--", "3^200000 - 3^200000"])
def test_expressions(argv):
    run(argv)


KEYS = ["vars", "derivations", "name", "action", "alpha", "k", "l", "m", "value", "n", "entries", "x", "y"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | texts(FIELD) | st.sampled_from(KEYS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)
DELETE = object()


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated(draw, name):
    # the JSON text of a data file with up to three items replaced or removed
    obj = json.loads((DATA / name).read_text())
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        value = draw(JSON | st.just(DELETE))
        if not path:
            obj = {} if value is DELETE else value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(obj)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    return d / "p.json", d / "a.json", d / "b.json"


VARS_LIST = json.dumps({"vars": [["x"], "y"], "derivations": [{"action": {"y": "1"}}]})


@FUZZ
@given(
    st.one_of(mutated("p1.json"), mutated("p_nc.json")),
    st.one_of(mutated("basisA.json"), mutated("identity.json")),
    mutated("beta_p1.json"),
    st.sampled_from([
        ["validate"], ["frobenius"], ["normalize", "D2*D1"], ["eval", "X[1,0]", "--witness=x"],
        ["check-commuting", "-A", "A"], ["check-axiom2", "-A", "A"], ["check-basis", "-A", "A", "--beta", "B"],
    ]),
)
@example("[" * 100_000 + "]" * 100_000, "{}", "{}", ["validate"])
@example(VARS_LIST, "{}", "{}", ["validate"])
def test_json_files(files, presentation, matrix, beta, command):
    for path, text in zip(files, (presentation, matrix, beta)):
        path.write_text(text)
    pfile, afile, bfile = files
    argv = [command[0], "-p", pfile, *({"A": afile, "B": bfile}.get(a, a) for a in command[1:])]
    run(argv)
