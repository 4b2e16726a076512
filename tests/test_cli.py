import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from admshell.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_adm_text(capsys):
    code, out, _ = run(capsys, "adm", "--datum", "GL3", "--mu", "1,0,0",
                       "--K", "a1", "--out", "text")
    assert code == 0
    assert "5 elements + top" in out
    assert "eta(s1)" in out and "(-a1-a2,1)" in out


def test_adm_dot_matches_figure(capsys):
    code, out, _ = run(capsys, "adm", "--datum", "GL3", "--mu", "1,0,0",
                       "--K", "a1", "--out", "dot")
    assert code == 0
    assert out.count("->") == 7
    assert 'label="eta(s1)"' in out and 'label="(-a2,1)"' in out


def test_adm_json_deterministic(capsys):
    args = ["adm", "--datum", "GL3", "--mu", "1,0,0", "--K", "a1",
            "--out", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    data = json.loads(out1)
    assert data["maximal"] == ["s1", "s2 s1"]
    assert len(data["elements"]) == 5


def test_verify_pass_and_ideal(capsys):
    code, out, _ = run(capsys, "verify", "--datum", "GL3", "--mu", "1,0,0",
                       "--K", "a1", "--out", "json")
    assert code == 0
    report = json.loads(out)
    assert report["dual_el"]["status"] == "PASS"
    assert report["ncm"] is True
    code, out, _ = run(capsys, "verify", "--datum", "GL3", "--mu", "1,0,0",
                       "--K", "a1", "--ideal", "s1")
    assert code == 0
    report = json.loads(out)
    assert report["dual_el"]["status"] == "PASS"


def test_verify_bad_input_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--datum", "GL3", "--mu", "0,1,0")
    assert code == 2 and "dominant" in err
    code, _, err = run(capsys, "verify", "--datum", "Z9", "--mu", "1")
    assert code == 2
    code, _, err = run(capsys, "adm", "--datum", "A1", "--mu", "1",
                       "--K", "a1,a0")
    assert code == 2 and "spherical" in err


def test_qbg_queries(capsys):
    code, out, _ = run(capsys, "qbg", "--datum", "A2", "--wt", "s1 s2 s1", "")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 1 and data["wt_coroots"] == "a1^+a2^"
    code, out, _ = run(capsys, "qbg", "--datum", "A2", "--wt", "s1", "s1")
    assert json.loads(out)["d"] == 0
    code, out, _ = run(capsys, "qbg", "--datum", "A2", "--out", "dot")
    assert code == 0 and out.startswith("digraph qbg")
    code, out, _ = run(capsys, "qbg", "--datum", "A2", "--downup", "s1", "s2")
    assert code == 0
    kinds = [s["kind"] for s in json.loads(out)]
    assert ("bruhat", "quantum") not in list(zip(kinds, kinds[1:]))


def test_cox_a4(capsys):
    code, out, _ = run(capsys, "cox", "--datum", "A4", "--mu-basis", "coroot",
                       "--mu", "1,1,1,1", "--K", "a1,a2,a3,a4", "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 11


def test_shell_order(capsys):
    code, out, _ = run(capsys, "shell-order", "--datum", "GL3",
                       "--mu", "1,0,0", "--K", "a1")
    assert code == 0
    assert out.splitlines() == ["s1", "s2 s1"]


def test_mu_basis_fw(capsys):
    # A2 fundamental coweights are not integral, but their sum is theta-vee
    code, out, _ = run(capsys, "verify", "--datum", "A2", "--mu-basis", "fw",
                       "--mu", "1,1", "--out", "json")
    assert code == 0
    code, _, err = run(capsys, "verify", "--datum", "A2", "--mu-basis", "fw",
                       "--mu", "1,0")
    assert code == 2


def test_adm_a2_coroot_basis_count(capsys):
    # node count = size of the admissible set of theta-vee, from a ball oracle
    from admshell import AffineElement
    from conftest import affine_ball, datum

    d = datum("A2")
    theta_v = d.components[0][2]
    elems, leq = affine_ball("A2", 4)
    W = d.weyl_group()
    tops = [AffineElement.translation_of(d, z.apply_coweight(theta_v))
            for z in W]
    oracle = {w for w in elems if any(leq(w, t) for t in tops)}
    code, out, _ = run(capsys, "adm", "--datum", "A2", "--mu-basis", "coroot",
                       "--mu", "1,1", "--K", "", "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == len(oracle)


def test_explicit_json_datum(capsys):
    spec = '{"simple_roots": [[2]], "simple_coroots": [[1]], "name": "A1x"}'
    code, out, _ = run(capsys, "verify", "--datum", spec, "--mu", "1",
                       "--K", "a1", "--out", "json")
    assert code == 0
    assert json.loads(out)["dual_el"]["status"] == "PASS"


def test_verify_check_full(capsys):
    code, out, _ = run(capsys, "verify", "--datum", "GL3", "--mu", "1,0,0",
                       "--K", "a1", "--check", "full", "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert data["label_order_violations"] == []
    assert len(data["top_two"]) == 2


def test_verify_check_full_runs_the_convexity_pass_once(capsys, monkeypatch):
    from admshell.labeling import LabelOrder
    calls = []
    original = LabelOrder.violations

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LabelOrder, "violations", counted)
    code, out, _ = run(capsys, "verify", "--datum", "GL3", "--mu", "1,0,0",
                       "--K", "a1", "--check", "full", "--out", "json")
    assert code == 0
    assert json.loads(out)["label_order_violations"] == []
    assert len(calls) == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "poset.json"
    code, out, _ = run(capsys, "adm", "--datum", "A1", "--mu", "1",
                       "--K", "a1", "--out", "json", "--out-file", str(target))
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["datum"] == "A1"


@pytest.mark.parametrize("where", ["missing/poset.json", "."])
def test_unwritable_out_file_exits_2(tmp_path, capsys, where):
    # a path under a missing directory, and a directory itself
    target = str(tmp_path / where)
    code, out, err = run(capsys, "adm", "--datum", "A1", "--mu", "1",
                         "--K", "a1", "--out", "json", "--out-file", target)
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(target) in err


def test_verify_d4_adjoint_row_passes_ncm(capsys):
    # inner ideals here have up to 10 maxima, past the all-orders search,
    # and the label order passes them at every level
    code, out, _ = run(capsys, "verify", "--datum", "D4-adjoint",
                       "--mu", "2,0,0,0", "--mu-basis", "fw")
    data = json.loads(out)
    assert data["dual_el"]["status"] == "PASS"
    assert data["dual_el"]["intervals_checked"] == 154249
    assert data["recursive_coatom"]["ok"] is True
    assert data["ncm"] is True
    assert code == 0


GL3_VERIFY = ("verify", "--datum", "GL3", "--mu", "1,0,0", "--K", "a1")


@pytest.mark.parametrize("argv, token", [
    (("qbg", "--datum", "A2", "--wt", "s0", "s2"), "s0"),
    (GL3_VERIFY + ("--ideal", "x1"), "x1"),
    (("qbg", "--datum", "A2", "--wt", "s9", "e"), "s9"),
    (("qbg", "--datum", "A2", "--wt", "sx", "e"), "sx"),
    (("qbg", "--datum", "A2", "--downup", "e", "s1 e"), "e"),
    (GL3_VERIFY + ("--ideal", "s1/x"), "x"),
])
def test_bad_word_token_exits_2(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(token) in err


def test_datum_bad_json_exits_2(capsys):
    code, _, err = run(capsys, "qbg", "--datum", "{bad", "--out", "dot")
    assert code == 2 and err.startswith("error:") and "JSON" in err


def test_datum_missing_coroots_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--datum", '{"simple_roots": [[2]]}',
                       "--mu", "1")
    assert code == 2 and "simple_coroots" in err


def test_datum_non_string_name_exits_2(capsys):
    spec = '{"simple_roots": [[2]], "simple_coroots": [[1]], "name": [1]}'
    code, out, err = run(capsys, "adm", "--datum", spec, "--mu", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'name'" in err


@pytest.mark.parametrize("argv", [
    ("adm", "--datum", "GL3", "--mu", "1,0,0", "--K", "a1", "--jobs", "2"),
    ("qbg", "--datum", "A2", "--check", "full"),
    GL3_VERIFY + ("--jobs", "0"),
    GL3_VERIFY + ("--jobs", "-3"),
    GL3_VERIFY + ("--jobs", "two"),
    GL3_VERIFY + ("--jobs", "2"),
    GL3_VERIFY + ("--out", "text"),
    ("shell-order", "--datum", "GL3", "--mu", "1,0,0", "--K", "a1",
     "--out", "json"),
    ("cox", "--datum", "GL3", "--mu", "1,0,0", "--K", "a1", "--out", "text"),
    ("qbg", "--datum", "A2", "--wt", "s1", "e", "--downup", "s1", "s2"),
    ("qbg", "--datum", "A2", "--downup", "s1", "s2", "--updown", "s1", "s2"),
    ("qbg", "--datum", "A2", "--wt", "s1", "e", "--updown", "s1", "s2"),
    ("qbg", "--datum", "A2", "--wt", "s1", "e", "--out", "dot"),
    ("qbg", "--datum", "A2", "--out", "dot", "--downup", "s1", "s2"),
    ("qbg", "--datum", "A2", "--updown", "s1", "s2", "--out", "dot"),
])
def test_jobs_and_check_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_verify_ideal_with_check_full_exits_2(capsys):
    code, out, err = run(capsys, *GL3_VERIFY, "--ideal", "s1",
                         "--check", "full")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--check full" in err
    assert "--ideal" in err


WORD = re.compile(r" *(e|(s[12]( +s[12])*)?) *")


# strings over s, e, x, digits and spaces: free text, then words of valid
# tokens, then words mixing valid and invalid tokens
WORDS = st.one_of(
    st.text(alphabet="sex0123456789 ", max_size=10),
    st.lists(st.sampled_from(["s1", "s2"]), max_size=4).map(" ".join),
    st.lists(st.sampled_from(["s1", "s2", "s0", "s3", "s", "e", "x1", "12"]),
             max_size=4).map(" ".join))


@settings(deadline=None, max_examples=200)
@given(WORDS)
def test_word_tokens_follow_the_grammar(word):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["qbg", "--datum", "A2", "--wt", word, "e"])
    if WORD.fullmatch(word):
        assert code == 0 and json.loads(out.getvalue())["d"] >= 0
    else:
        bad = next(t for t in word.split() if t not in ("s1", "s2"))
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert repr(bad) in err.getvalue()


@pytest.mark.parametrize("spec, field", [
    ('{"simple_roots": 5, "simple_coroots": 5}', "simple_roots"),
    ('{"simple_roots": [[2.9]], "simple_coroots": [[1]]}', "simple_roots"),
    ('{"simple_roots": [[2]], "simple_coroots": [[1.2]]}', "simple_coroots"),
    ('{"simple_roots": [["2"]], "simple_coroots": [[1]]}', "simple_roots"),
    ('{"simple_roots": "2", "simple_coroots": [[1]]}', "simple_roots"),
    ('{"simple_roots": [[2]], "simple_coroots": [[true]]}', "simple_coroots"),
    ('{"simple_roots": [], "simple_coroots": []}', "simple_roots"),
    ('{"simple_roots": [2], "simple_coroots": [[1]]}', "simple_roots"),
])
def test_datum_wrong_shape_exits_2(capsys, spec, field):
    code, out, err = run(capsys, "verify", "--datum", spec, "--mu", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{field} must be" in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def boom(poset):
        raise RuntimeError("boom")

    monkeypatch.setattr("admshell.cli.build_label_order", boom)
    code, out, err = run(capsys, *GL3_VERIFY)
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_cli_bytes_independent_of_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for cmd in ("verify", "adm"):
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "admshell.cli", cmd, "--datum", "GL3",
                 "--mu", "1,0,0", "--K", "a1", "--out", "json"],
                env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0].startswith(b"{")
