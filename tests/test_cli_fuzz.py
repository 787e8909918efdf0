"""The CLI contract under fuzzed argv.

Every call of `cli.main` exits 0 (claims verified) or 1 (a claim failed)
with a JSON report of at most MAX_REPORT bytes on stdout, or exits 2 with
exactly one `kummerlab: error:` line on stderr and nothing on stdout.  No
other exception escapes.  The argv are drawn in-process from bounded families:
surfaces over F_2^e with e <= 6 and random coefficient strings, code
searches with m <= 17 under a budget, lattice files of rank <= 4, RDP
tables around the level cap, and Kummer embeddings with sigma from inside
to far outside its range.
"""

import contextlib
import io
import json
import os
import tempfile
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from kummerlab import cli

# bounded inputs give bounded reports and runs; the largest drawn report
# is about 7 kB, and an unbounded `rdp table` runs into both limits
MAX_REPORT = 1 << 16
FUZZ = settings(max_examples=40, deadline=timedelta(seconds=20),
                derandomize=True, database=None)


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("kummerlab: error: "), lines
        assert out.getvalue() == ""
    else:
        assert rc in (0, 1), rc
        assert len(out.getvalue()) <= MAX_REPORT
        assert json.loads(out.getvalue())["command"] == ["kummerlab"] + argv


NAMES = {"class4": ["h30", "h21", "h12", "h03", "h11", "h10", "h01"],
         "class2": ["h11", "h12", "h03", "h05", "h07", "h21", "h14", "h10", "h01"]}


@st.composite
def surface_argv(draw):
    """Mostly well-formed coefficient strings, sometimes a bad name, a
    missing '=', a digit that is no bit or a string longer than e."""
    family = draw(st.sampled_from(["class4", "class2"]))
    e = draw(st.integers(1, 6))
    names = st.sampled_from(NAMES[family])
    bits = st.text(alphabet="01", max_size=e)
    if draw(st.integers(0, 3)) == 0:
        names = st.one_of(names, st.sampled_from(["x", ""]))
        bits = st.one_of(bits, st.text(alphabet="012x"))
    items = draw(st.lists(st.tuples(names, bits), max_size=4))
    coeffs = ",".join(f"{n}={b}" if draw(st.integers(0, 9)) else n for n, b in items)
    field = draw(st.sampled_from([f"e={e}"] * 6 + ["p=3,e=2", "e=0", "e"]))
    argv = ["surface", draw(st.sampled_from(["classify", "derivation-check"])),
            "--family", family, "--field", field, "--coeffs", coeffs]
    if draw(st.booleans()):
        argv += ["--expect", draw(st.sampled_from(["16A1", "2E8", "nonRDP"]))]
    return argv


@FUZZ
@given(surface_argv())
def test_surface_commands_keep_the_contract(argv):
    assert_contract(argv)


@FUZZ
@given(st.integers(-2, 17), st.integers(-1, 60), st.booleans())
def test_code_searches_keep_the_contract(m, budget, exhaustive):
    assert_contract(["codes", "search", "--m", str(m), "--budget", str(budget)]
                    + (["--exhaustive"] if exhaustive else []))


@st.composite
def lattice_files(draw):
    """A lattice file's object: mostly a symmetric Gram matrix of rank <= 4
    with a -2 or -4 diagonal and small entries off it; sometimes rational,
    non-numeric or asymmetric entries, labels of the wrong count, or no
    "gram" list at all."""
    n = draw(st.integers(0, 4))
    diag, entry = st.sampled_from([-2, -4, -2, 2]), st.integers(-1, 1)
    bad = draw(st.integers(0, 3)) == 0
    if bad:
        entry = st.one_of(st.integers(-4, 4),
                          st.sampled_from(["1/2", "-3/2", "x", "1/0", 0.5, True]))
    gram = [[draw(diag if i == j else entry) for j in range(n)] for i in range(n)]
    if not (bad and draw(st.booleans())):
        gram = [[gram[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    obj = {"gram": gram}
    if draw(st.booleans()):
        obj["labels"] = [f"e{i}" for i in range(n + bad * draw(st.integers(-1, 1)))]
    return draw(st.sampled_from([obj] * 6 + [gram, {"gram": "x"}]))


@FUZZ
@given(lattice_files(), st.sampled_from(["info", "roots"]))
def test_lattice_files_keep_the_contract(obj, action):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lattice.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        assert_contract(["lattice", action, "--in", path])


RDP_TYPES = st.one_of(
    st.builds("A{}".format, st.integers(1, 30)),
    st.builds("D{}r{}".format, st.integers(2, 20).map(lambda k: 2 * k),
              st.integers(0, 3)),
    st.builds("E{}r{}".format, st.sampled_from([6, 7, 8]), st.integers(0, 2)),
    st.builds("{}{}r{}".format, st.sampled_from("DdEAa"), st.integers(0, 40),
              st.sampled_from(["0", "1", "3/2", "5/2", "9", "1/3"])),
    st.sampled_from(["X", "", "E6", "D", "D4r", "D" + "9" * 4400 + "r0"]))
LEVELS = st.one_of(st.integers(-1, 8),
                   st.integers(cli.MAX_RDP_LEVEL - 2, cli.MAX_RDP_LEVEL + 2),
                   st.just(10 ** 4))


@FUZZ
@given(RDP_TYPES, LEVELS)
def test_rdp_tables_keep_the_contract(rdp_type, max_n):
    assert_contract(["rdp", "table", "--type", rdp_type, "--max-n", str(max_n)])


KUMMER_TYPES = ["16A1", "4D4", "2D8", "1D16", "2E8", "3A1"]


@FUZZ
@given(st.sampled_from(["build", "embed"]), st.sampled_from(KUMMER_TYPES),
       st.one_of(st.integers(-2, 8), st.integers(-10 ** 12, 10 ** 12)),
       st.sampled_from(["Q4", "Q2"]), st.booleans())
def test_kummer_commands_keep_the_contract(action, kummer_type, sigma,
                                           complement, extended):
    assert_contract(["kummer", action, "--type", kummer_type, "--sigma", str(sigma),
                     "--complement", complement]
                    + (["--extended"] if extended else []))
