"""Fuzzing of the command line: matrix documents and flag sets for every
subcommand.  Whatever the input, ``main`` returns a documented exit code,
prints no warning and lets no exception escape; a success writes nothing
to stderr, and a failure writes exactly one ``error:`` line there and
nothing to stdout, except the failing-order report of exit 6.

Inputs stay small: N <= 4, at most 20 scan points and ``--order`` <= 4.
Every argument that names a path spells its directory ``{dir}``, which the
test replaces by a fresh temporary directory holding ``f0.json`` to
``f2.json``.
"""

import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptoherm.cli import main

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6, 7, 8}

H = json.dumps({"dim": 2, "data": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}).encode()
W10 = json.dumps({"dim": 2, "data": [[[0, 0], [10, 0]], [[10, 0], [0, 0]]]}).encode()
H_HUGE = json.dumps({"dim": 2, "data": [[[1.6e308, 0], [0, 0]], [[0, 0], [0, 0]]]}).encode()
W_ROT = json.dumps({"dim": 2, "data": [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]}).encode()
# eigenvector condition number past the float range
H_COND_OVERFLOW = json.dumps({"dim": 2, "data": [[[1, 0], [1.7e308, 0]],
                                                 [[0, 0], [2, 0]]]}).encode()


def one_by_one(value):
    return json.dumps({"dim": 1, "data": [[[value, 0.0]]]}).encode()


# ---------------------------------------------------------------------------
# matrix documents
# ---------------------------------------------------------------------------

moderate = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5]),
                     st.floats(-10.0, 10.0, allow_nan=False))
extreme = st.one_of(
    st.sampled_from([1e-300, 5e-324, 1e300, 1.7e308, -1.7e308, 2**1023, 10**308, 10**309]),
    st.floats(),  # NaN and infinities are written as NaN / Infinity tokens
    st.integers(-(10**400), 10**400),
)
junk = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just([]), st.just({}))
near_limit = st.floats(1e300, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x]))


def pairs(value, n):
    pair = st.lists(value, min_size=2, max_size=2)
    return st.lists(st.lists(pair, min_size=n, max_size=n), min_size=n, max_size=n)


def document(n):
    """One matrix file, mostly an N x N document."""
    distinct = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=n, max_size=n,
                        unique=True)
    diagonal = distinct.map(lambda d: {"dim": n, "data": [
        [[d[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]})
    # ill-conditioned but finite: upper triangular, one entry near the float limit
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)] or [(0, 0)]
    triangular = st.tuples(pairs(moderate, n), near_limit, st.sampled_from(upper)).map(
        lambda t: {"dim": n, "data": [
            [[t[1], 0.0] if (i, j) == t[2] else t[0][i][j] if j >= i else [0.0, 0.0]
             for j in range(n)] for i in range(n)]})
    docs = st.one_of(
        diagonal,
        triangular,
        st.fixed_dictionaries({"dim": st.just(n), "data": pairs(moderate, n)}),
        st.fixed_dictionaries({"dim": st.just(n), "data": pairs(st.one_of(moderate, extreme), n)}),
        st.fixed_dictionaries({"dim": st.just(n), "data": pairs(st.one_of(moderate, junk), n)}),
        st.fixed_dictionaries({"dim": st.one_of(st.integers(-1, 5), junk),
                               "data": st.one_of(pairs(moderate, n), pairs(moderate, n + 1),
                                                 st.lists(st.lists(moderate, max_size=3),
                                                          max_size=3), junk)}),
        st.one_of(junk, st.lists(moderate, max_size=3)),
    )
    raw = st.sampled_from([
        b"", b"{", b"null", b'{"dim": 1}', b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"dim": 1, "data": [[[' + b"1" * 5000 + b", 0]]]}",
    ])
    return st.one_of(docs.map(lambda d: json.dumps(d).encode()), raw)


files = st.integers(1, 4).flatmap(lambda n: st.lists(document(n), min_size=3, max_size=3))

# ---------------------------------------------------------------------------
# flag sets
# ---------------------------------------------------------------------------

number = st.one_of(
    st.sampled_from(["0", "0.3", "-1", "0.25", "1e-300", "400", "800", "nan", "inf", "-inf",
                     "1e308"]),
    st.floats().map(repr),
)
path = st.sampled_from(["{dir}/f0.json", "{dir}/f1.json", "{dir}/f2.json",
                        "{dir}/missing.json", "{dir}", ""])
out = st.sampled_from(["{dir}/out.txt", "{dir}/missing/out.txt", "{dir}", ""])
tol = st.sampled_from(["1e-10", "1e-6", "1e-3", "0", "-1", "0.5", "1e-200", "nan"])


def grid(most):
    """A grid flag of at most ``most`` points, or a malformed one."""
    return st.one_of(
        st.lists(number, min_size=1, max_size=most).map(",".join),
        st.tuples(number, number, st.integers(0, most)).map(lambda t: "%s:%s:%d" % t),
        st.sampled_from(["", " ", "0:1", "a", "0,,1", "0:1:2:3", "0:1:x", "1,0"]),
    )


def flag(name, value):
    """``[--name=value]`` or nothing; ``=`` keeps a value like -1 a value."""
    return st.one_of(st.just([]), value.map(lambda v: [f"--{name}={v}"]))


def repeated(name, value):
    return st.lists(value, max_size=2).map(lambda vs: [f"--{name}={v}" for v in vs])


h_source = st.one_of(path.map(lambda p: [f"--h={p}"]), number.map(lambda t: [f"--kg={t}"]))
metric_source = [flag("metric", path), flag("beta", number)]
subcommands = {
    "diag": [h_source],
    "metric": [h_source, repeated("obs", path)],
    "hermitize": [h_source, *metric_source],
    "perturb": [h_source, *metric_source, repeated("w", path),
                flag("order", st.integers(-1, 4)), flag("lam", number)],
    "scan": [st.sampled_from(["kg", "linear"]).map(lambda f: [f"--family={f}"]),
             flag("tau", grid(4)), flag("lambda", grid(5)), flag("h", path), flag("w", path),
             flag("find-boundary", st.one_of(st.tuples(number, number).map(":".join),
                                             st.sampled_from(["", "0", "0:1:2"])))],
}
argvs = st.sampled_from(sorted(subcommands)).flatmap(
    lambda cmd: st.tuples(*subcommands[cmd], flag("tol", tol), flag("out", out)).map(
        lambda parts: [cmd] + [a for part in parts for a in part]))


def run(file_bytes, argv):
    with tempfile.TemporaryDirectory() as tmp:
        for i, data in enumerate(file_bytes):
            with open(os.path.join(tmp, f"f{i}.json"), "wb") as fh:
                fh.write(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([a.replace("{dir}", tmp) for a in argv])
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(file_bytes=files, argv=argvs)
@example(file_bytes=[b'{"dim": 1, "data": [[[1' + b"0" * 400 + b", 0]]]}"],
         argv=["diag", "--h={dir}/f0.json"])
@example(file_bytes=[b"[" * 100_000 + b"]" * 100_000], argv=["diag", "--h={dir}/f0.json"])
@example(file_bytes=[b"\xff" + H], argv=["diag", "--h={dir}/f0.json"])
@example(file_bytes=[], argv=["diag", "--h="])
@example(file_bytes=[H, W10], argv=["scan", "--family=linear", "--h={dir}/f0.json",
                                    "--w={dir}/f1.json", "--lambda=0,1e308"])
@example(file_bytes=[H, W10], argv=["scan", "--family=linear", "--h={dir}/f0.json",
                                    "--w={dir}/f1.json", "--find-boundary=0:1e308"])
@example(file_bytes=[], argv=["scan", "--family=kg", "--tau=0,700", "--lambda=0"])
@example(file_bytes=[], argv=["scan", "--family=kg", "--tau=0",
                              "--lambda=0:1.7976931348623157e+308:4"])
@example(file_bytes=[], argv=["scan", "--family=kg", "--tau=0", "--lambda=-1e308:1e308:3"])
@example(file_bytes=[H_HUGE, W_ROT], argv=["scan", "--family=linear", "--h={dir}/f0.json",
                                           "--w={dir}/f1.json", "--find-boundary=0.7e308:1.2e308"])
@example(file_bytes=[H_COND_OVERFLOW], argv=["scan", "--family=linear", "--h={dir}/f0.json",
                                           "--w={dir}/f0.json", "--lambda=0"])
@example(file_bytes=[H_COND_OVERFLOW], argv=["diag", "--h={dir}/f0.json"])
@example(file_bytes=[], argv=["diag", "--kg=400"])
@example(file_bytes=[one_by_one(1e300)], argv=["hermitize", "--h={dir}/f0.json",
                                                "--metric={dir}/f0.json"])
@example(file_bytes=[one_by_one(0.0), one_by_one(1.7e308)],
         argv=["hermitize", "--h={dir}/f0.json", "--metric={dir}/f1.json"])
@example(file_bytes=[], argv=["diag", "--kg=0.3", "--out={dir}/missing/x.json"])
@example(file_bytes=[], argv=["diag", "--kg=0.3", "--out={dir}"])
def test_every_cli_input_ends_in_a_documented_exit(file_bytes, argv):
    code, stdout, stderr = run(file_bytes, argv)
    assert code in DOCUMENTED_EXITS
    if code == 0:
        assert stderr == ""
    else:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert code == 6 or stdout == ""
