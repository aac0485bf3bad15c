import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skyline
from skyline import cli, correspondences
from skyline.fillings import key_ssaf, ssaf_to_json
from skyline.kernel import ExpansionReport
from skyline.tableaux import insert_word, ssyt_to_json
from util import biword_multisets


def run_cli(argv):
    out = io.StringIO()
    code = cli.run(argv, out)
    return code, out.getvalue()


def test_keypoly_golden():
    code, text = run_cli(["keypoly", "--alpha", "1,0,3"])
    assert code == 0
    assert text == (
        "x^(1,0,3) + x^(1,1,2) + x^(1,2,1) + x^(1,3,0) + x^(2,0,2) "
        "+ x^(2,1,1) + x^(2,2,0) + x^(3,0,1) + x^(3,1,0)\n"
    )


def test_atom_json_roundtrip():
    code, text = run_cli(["atom", "--alpha", "1,0,3", "--json"])
    assert code == 0
    from skyline.demazure import atom
    from oracles import poly_from_json

    assert poly_from_json(json.loads(text)) == atom((1, 0, 3))


def test_key_verb():
    code, text = run_cli(["key", "--gamma", "1,3,0,0,1"])
    assert code == 0
    assert text == "5\n2\n1 2 2\n"


def test_phi_json_worked_example():
    code, text = run_cli(
        ["phi", "--biword", "4 6 6 7 / 4 1 2 1", "--n", "7", "--json"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["shape_f"] == [2, 1, 0, 1, 0, 0, 0]
    assert payload["shape_g"] == [0, 0, 0, 1, 0, 2, 1]
    # JSON pair-list input is accepted too
    code, text2 = run_cli(
        ["phi", "--biword", "[[4,4],[6,1],[6,2],[7,1]]", "--n", "7", "--json"]
    )
    assert code == 0 and json.loads(text2) == payload


def test_phi_inverse_roundtrip_via_cli():
    code, text = run_cli(
        ["phi", "--biword", "1 2 3 3 5 6 / 6 3 2 4 3 1", "--n", "6", "--json"]
    )
    payload = json.loads(text)
    code, text = run_cli(
        [
            "phi-inv",
            "--f",
            json.dumps(payload["f"]),
            "--g",
            json.dumps(payload["g"]),
        ]
    )
    assert code == 0
    assert text.strip() == "1 2 3 3 5 6 / 6 3 2 4 3 1"


def test_insert_and_psi_verbs():
    ssaf = json.dumps({"n": 6, "columns": [[], [], [3, 2, 1], [4, 1], [], [6]]})
    code, text = run_cli(["insert", "--k", "3", "--ssaf", ssaf, "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["height"] == 2 and payload["column"] == 6
    tab = json.dumps({"shape": [2, 1], "rows": [[1, 1], [2]], "n": 3})
    code, text = run_cli(["psi", "--tableau", tab, "--json"])
    assert code == 0
    result = json.loads(text)
    code, text = run_cli(["psi-inv", "--ssaf", json.dumps(result), "--json"])
    assert code == 0
    assert json.loads(text)["rows"] == [[1, 1], [2]]


def test_rsk_verb():
    code, text = run_cli(["rsk", "--biword", "4 6 6 7 / 4 1 2 1", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["p"]["shape"] == [2, 1, 1]
    assert payload["q"]["shape"] == [2, 1, 1]


def test_crystal_determinism_and_dot():
    code1, text1 = run_cli(["crystal", "--shape", "1", "--n", "2"])
    code2, text2 = run_cli(["crystal", "--shape", "1", "--n", "2"])
    assert code1 == code2 == 0
    assert text1 == text2
    assert '"1" -> "2"' in text1
    code, text = run_cli(["crystal", "--alpha", "1,0,3", "--format", "json"])
    assert code == 0
    assert len(json.loads(text)["vertices"]) == 9


def test_crystal_json_is_a_fixed_point_of_the_stdlib_encoder():
    for argv in (
        ["crystal", "--alpha", "1,0,3"],
        ["crystal", "--alpha", "3,1,0"],
        ["crystal", "--shape", "2,1", "--n", "3"],
        ["crystal", "--shape", "1", "--n", "1"],
        ["crystal", "--shape", "0", "--n", "2"],
    ):
        code, text = run_cli(argv + ["--format", "json"])
        assert code == 0
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_verify_main_small():
    code, text = run_cli(["verify-main", "--n", "2", "--max-len", "2"])
    assert code == 0
    assert "all biwords satisfy the equivalence" in text


def test_verify_main_jobs_byte_identical():
    _, text1 = run_cli(["verify-main", "--n", "3", "--max-len", "2", "--jobs", "1"])
    _, text2 = run_cli(["verify-main", "--n", "3", "--max-len", "2", "--jobs", "2"])
    assert text1 == text2


def test_verify_main_mismatches_exit_1_sorted(monkeypatch):
    monkeypatch.setattr(correspondences, "orbit_bruhat_leq", lambda a1, a2: False)
    argv = ["verify-main", "--n", "2", "--max-len", "2"]
    code, text = run_cli(argv + ["--jobs", "1"])
    assert code == 1
    assert run_cli(argv + ["--jobs", "2"]) == (code, text)
    # every biword inside the staircase now fails its Bruhat side
    inside = sorted(
        pairs for pairs in biword_multisets(2, 2) if all(i + j <= 3 for i, j in pairs)
    )
    assert text.splitlines() == ["checked 15 biwords over [2]x[2], length <= 2"] + [
        f"MISMATCH {correspondences.format_biword(correspondences.Biword(pairs))}: "
        "staircase=True bruhat=False"
        for pairs in inside
    ]


def test_verify_kernel_small():
    code, text = run_cli(
        ["verify-kernel", "--n", "3", "--m", "3", "--k", "3", "--deg", "0"]
    )
    assert code == 0
    code, text = run_cli(
        ["verify-kernel", "--n", "4", "--m", "3", "--k", "2", "--deg", "2", "--json"]
    )
    assert code == 0
    report = json.loads(text.splitlines()[1])
    assert report["equal"] is True


def test_verify_kernel_json_file(tmp_path):
    path = tmp_path / "report.json"
    code, _ = run_cli(
        [
            "verify-kernel", "--n", "3", "--m", "3", "--k", "3",
            "--deg", "2", "--json", str(path),
        ]
    )
    assert code == 0
    assert json.loads(path.read_text())["equal"] is True


def test_readme_command_line_examples_run(tmp_path):
    readme = Path(skyline.__file__).resolve().parents[2] / "README.md"
    block = readme.read_text().split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("skyline ")]
    assert len(lines) == 13
    report = tmp_path / "report.json"
    optional = " [--json report.json]"
    runs = []
    for line in lines:
        if optional in line:
            runs.append(line.replace(optional, ""))
            line = line.replace(optional, " --json " + shlex.quote(str(report)))
        runs.append(line)
    assert len(runs) == 14
    for line in runs:
        code, text = run_cli(shlex.split(line, comments=True)[1:])
        assert code == 0 and text, line
    assert json.loads(report.read_text())["equal"] is True


def test_verify_kernel_jobs_byte_identical():
    args = ["verify-kernel", "--n", "5", "--m", "4", "--k", "3", "--deg", "2"]
    _, text1 = run_cli(args + ["--jobs", "1"])
    _, text2 = run_cli(args + ["--jobs", "2"])
    assert text1 == text2


def test_verify_kernel_computes_each_side_once(monkeypatch):
    # both sides come from one streamed pass over the x-exponents
    calls = []
    original = cli.kernel.split_by_x

    def counting(inst, d):
        calls.append((inst, d))
        return original(inst, d)

    monkeypatch.setattr(cli.kernel, "split_by_x", counting)
    args = ["verify-kernel", "--n", "5", "--m", "4", "--k", "3", "--deg", "2"]
    code, _ = run_cli(args + ["--jobs", "2"])
    assert code == 0
    assert len(calls) == 1


def test_verify_kernel_failure_exit(monkeypatch):
    bad = ExpansionReport(3, 3, 3, 1, 7, False, ((1, 0, 0), (0, 0, 1), 1, 0))
    monkeypatch.setattr(cli.kernel, "verify_expansion", lambda inst, d: bad)
    code, text = run_cli(
        ["verify-kernel", "--n", "3", "--m", "3", "--k", "3", "--deg", "1"]
    )
    assert code == 1
    assert "MISMATCH" in text


def test_usage_errors_exit_2():
    code, _ = run_cli(["keypoly"])
    assert code == 2
    code, _ = run_cli(["no-such-verb"])
    assert code == 2
    code, _ = run_cli(["keypoly", "--alpha", "1,-2"])
    assert code == 2
    code, _ = run_cli(["phi", "--biword", "1 2 / 1", "--n", "3"])
    assert code == 2
    code, _ = run_cli(["crystal", "--format", "dot"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-main", "--n", "3", "--max-len", "3", "--jobs", "0"],
        ["verify-main", "--n", "3", "--max-len", "3", "--jobs", "-2"],
        ["verify-main", "--n", "0", "--max-len", "3"],
        ["verify-main", "--n", "3", "--max-len", "-1"],
        ["verify-kernel", "--n", "3", "--m", "3", "--k", "3", "--deg", "1", "--jobs", "0"],
    ],
)
def test_degenerate_verify_arguments_exit_2(argv):
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--biword", "/", "--n", "-2", "--json"],
        ["crystal", "--shape", "0", "--n", "-1"],
        ["crystal", "--alpha", "1,0", "--n", "-1"],
        ["rsk", "--biword", "1 / 1", "--n", "-1"],
        ["psi", "--tableau", '{"rows": []}', "--n", "-1"],
    ],
)
def test_negative_n_is_a_usage_error(argv, capsys):
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    assert "must be at least 0" in capsys.readouterr().err


def test_usage_error_after_a_successful_call_exits_2():
    assert run_cli(["key", "--gamma", "1,0"]) == (0, "1\n")
    assert run_cli(["key", "--gamma", "x"]) == (2, "")
    assert run_cli(["key"]) == (2, "")
    assert run_cli(["key", "--gamma", "1,0"]) == (0, "1\n")
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_leaks_no_state_between_crystal_calls():
    by_alpha = ["crystal", "--alpha", "1,0,2", "--format", "json"]
    by_shape = ["crystal", "--shape", "2,1", "--n", "3"]
    fresh = {}
    for argv in (by_alpha, by_shape):
        cli.build_parser.cache_clear()
        fresh[tuple(argv)] = run_cli(argv)
    for argv in (by_alpha, by_shape, by_alpha, by_shape, by_alpha):
        assert run_cli(argv) == fresh[tuple(argv)]


@pytest.mark.parametrize(
    "argv",
    [
        ["psi-inv", "--ssaf", '{"n": 3, "columns": 5}'],
        ["psi-inv", "--ssaf", "[[1], [2], []]"],
        ["psi-inv", "--ssaf", '{"columns": [["1"], [], []]}'],
        ["insert", "--k", "1", "--ssaf", '{"n": 2, "columns": [[true], []]}'],
        ["phi-inv", "--f", '{"columns": [[1], []]}', "--g", "[]"],
        ["psi", "--tableau", '{"rows": "xx"}'],
        ["psi", "--tableau", "[[1, 1], [2]]"],
        ["psi", "--tableau", '{"rows": [["1", "1"], ["2"]]}'],
        ["psi", "--tableau", '{"rows": [[1, 1], [2]], "n": "3"}'],
        ["psi", "--tableau", '{"rows": [[1, 1], [2]], "shape": 5}'],
        ["phi", "--biword", "[1]", "--n", "2"],
        ["phi", "--biword", "[null]", "--n", "2"],
        ["phi", "--biword", "[[1.5, 2]]", "--n", "2"],
        ["rsk", "--biword", "[[true, 1]]"],
        ["psi-inv", "--ssaf", '{"n": true, "columns": [[1]]}'],
        ["psi-inv", "--ssaf", '{"n": 1.0, "columns": [[1]]}'],
    ],
)
def test_malformed_json_payload_is_a_usage_error(argv, capsys):
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "bad",
    [
        '{"n": 2, "columns": [[1, 2], []]}',  # an increasing column
        '{"columns": [[2], []]}',  # a bottom cell that is not its basement value
        '{"columns": [[1], [2, 1]]}',  # a triple violation
    ],
)
def test_invalid_filling_is_a_usage_error(bad, capsys):
    # the JSON decoder checks only the form, so each verb's operation rejects
    # the filling; its partner in phi-inv is valid and has the same shape
    good = json.dumps(ssaf_to_json(key_ssaf(map(len, json.loads(bad)["columns"]))))
    for argv in (
        ["insert", "--k", "1", "--ssaf", bad],
        ["psi-inv", "--ssaf", bad],
        ["phi-inv", "--f", bad, "--g", good],
        ["phi-inv", "--f", good, "--g", bad],
    ):
        assert run_cli(argv) == (2, "")
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


DEEP_JSON = "[" * 100000


@pytest.mark.parametrize(
    "argv",
    [
        ["psi-inv", "--ssaf", DEEP_JSON],
        ["phi-inv", "--f", DEEP_JSON, "--g", "{}"],
        ["phi", "--biword", DEEP_JSON, "--n", "2"],
        ["psi", "--tableau", DEEP_JSON],
    ],
)
def test_input_beyond_the_recursion_limit_is_a_usage_error(argv, capsys):
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_sorting_chains_longer_than_the_recursion_limit():
    # 1100 ascent swaps: more nested calls than the recursion limit allows
    alpha = "0," * 1100 + "1"
    code, text = run_cli(["atom", "--alpha", alpha, "--json"])
    assert code == 0
    assert json.loads(text) == [{"coeff": 1, "x_exp": [0] * 1100 + [1]}]
    code, text = run_cli(["keypoly", "--alpha", alpha, "--json"])
    assert code == 0
    terms = json.loads(text)
    assert len(terms) == 1101
    assert {(t["coeff"], sum(t["x_exp"])) for t in terms} == {(1, 1)}


def test_verify_kernel_unwritable_json_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    argv = ["verify-kernel", "--n", "3", "--m", "3", "--k", "3", "--deg", "2"]
    code, _ = run_cli(argv + ["--json", str(path)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not path.exists()


def test_verify_kernel_mismatch_with_unwritable_json_path_exits_1(
    tmp_path, monkeypatch, capsys
):
    bad = ExpansionReport(3, 3, 3, 1, 7, False, ((1, 0, 0), (0, 0, 1), 1, 0))
    monkeypatch.setattr(cli.kernel, "verify_expansion", lambda inst, d: bad)
    path = tmp_path / "missing" / "report.json"
    argv = ["verify-kernel", "--n", "3", "--m", "3", "--k", "3", "--deg", "1"]
    code, text = run_cli(argv + ["--json", str(path)])
    assert code == 1
    assert "MISMATCH" in text
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_crystal_alpha_rejects_a_mismatched_n_or_a_shape():
    code, text = run_cli(["crystal", "--alpha", "1,0,3", "--n", "5"])
    assert code == 2 and text == ""
    code, text = run_cli(["crystal", "--alpha", "1,0,3", "--shape", "3,1"])
    assert code == 2 and text == ""
    assert run_cli(["crystal", "--alpha", "1,0,3", "--n", "3"]) == run_cli(
        ["crystal", "--alpha", "1,0,3"]
    )


@pytest.mark.parametrize("module", ["skyline", "skyline.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(skyline.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", module, "key", "--gamma", "1,0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"


def test_bad_composition_error_names_the_entries_reproducibly():
    # separate processes, so an object address in the message would differ
    src = str(Path(skyline.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "skyline", "keypoly", "--alpha", "1,-2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for _ in range(2)
    ]
    assert [(r.returncode, r.stdout) for r in runs] == [(2, ""), (2, "")]
    assert "(1, -2)" in runs[0].stderr
    assert "generator" not in runs[0].stderr
    assert runs[0].stderr == runs[1].stderr


def test_reproducible_bytes():
    for argv in (
        ["keypoly", "--alpha", "0,2,1"],
        ["crystal", "--alpha", "1,0,2", "--format", "dot"],
        ["verify-kernel", "--n", "4", "--m", "4", "--k", "3", "--deg", "2"],
    ):
        _, a = run_cli(list(argv))
        _, b = run_cli(list(argv))
        assert a == b


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-1, 7) | st.text(max_size=2),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "columns", "rows", "shape"]), children),
    max_leaves=12,
)
payloads = json_values.map(json.dumps) | st.text(max_size=6)
small_ints = st.integers(-1, 7).map(str)
# valid payloads too, so that some argv get past the decoders into the maths
letters = st.integers(1, 4)
biwords = st.lists(st.lists(letters, min_size=2, max_size=2), max_size=6)
tableau_payloads = st.lists(letters, max_size=8).map(
    lambda word: json.dumps(ssyt_to_json(insert_word(word, 4)))
)
skyline_pairs = biwords.map(
    lambda pairs: [
        json.dumps(ssaf_to_json(f))
        for f in correspondences.phi(correspondences.from_multiset(pairs, 4), 4)
    ]
)


@st.composite
def json_verb_argv(draw):
    verb = draw(st.sampled_from(["psi-inv", "phi-inv", "insert", "psi", "phi"]))
    f, g = draw(skyline_pairs | st.lists(payloads, min_size=2, max_size=2))
    argv = {
        "psi-inv": ["--ssaf", f],
        "phi-inv": ["--f", f, "--g", g],
        "insert": ["--k", draw(small_ints), "--ssaf", f],
        "psi": ["--tableau", draw(tableau_payloads | payloads)]
        + draw(st.sampled_from([[], ["--n", draw(small_ints)]])),
        "phi": ["--biword", draw(biwords.map(json.dumps) | payloads), "--n", draw(small_ints)],
    }[verb]
    return [verb] + argv + draw(st.sampled_from([[], ["--json"]]))


def assert_cli_contract(argv):
    runs = []
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run_cli(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        runs.append((code, text))
    assert runs[0] == runs[1]


@settings(max_examples=200)
@given(json_verb_argv())
def test_cli_contract_holds_for_any_json_payload(argv):
    assert_cli_contract(argv)


# entries <= 3, length <= 4, n <= 4 and deg <= 3 keep every verb small;
# about one argument in six is malformed, so exit 0 and exit 2 both stay common
malformed = st.sampled_from(["", "x", "1.5", "-1", "1,-1", "2,,1"])


def either(draw, valid):
    return draw(malformed) if draw(st.integers(1, 6)) == 3 else draw(valid)


def csv(entries):
    return ",".join(map(str, entries))


compositions = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(csv)
partitions = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(
    lambda entries: csv(sorted(entries, reverse=True))
)


@st.composite
def integer_verb_argv(draw):
    verb = draw(
        st.sampled_from(
            ["key", "keypoly", "atom", "rsk", "crystal", "verify-main", "verify-kernel"]
        )
    )
    small = lambda lo, hi: either(draw, st.integers(lo, hi).map(str))
    if verb == "key":
        argv = ["--gamma", either(draw, compositions)]
    elif verb in ("keypoly", "atom"):
        argv = ["--alpha", either(draw, compositions)]
    elif verb == "rsk":
        argv = ["--biword", draw(biwords.map(json.dumps))]
        argv += draw(st.sampled_from([[], ["--n", small(0, 4)]]))
    elif verb == "crystal":
        if draw(st.booleans()):
            argv = ["--shape", either(draw, partitions), "--n", small(0, 4)]
        else:
            alpha = either(draw, compositions)
            # an --n must equal the length of --alpha
            argv = ["--alpha", alpha] + draw(
                st.sampled_from([[], ["--n", either(draw, st.just(str(alpha.count(",") + 1)))]])
            )
        argv += ["--format", draw(st.sampled_from(["dot", "json"]))]
    elif verb == "verify-main":
        argv = ["--n", small(1, 4), "--max-len", small(0, 3)]
        argv += draw(st.sampled_from([[], ["--jobs", small(1, 2)]]))
    else:
        n = draw(st.integers(1, 4))
        m = draw(st.integers(1, n))
        argv = ["--n", either(draw, st.just(str(n))), "--m", either(draw, st.just(str(m))),
                "--k", small(n + 1 - m, n), "--deg", small(0, 3)]
        argv += draw(st.sampled_from([[], ["--jobs", small(1, 2)]]))
    if verb not in ("crystal", "verify-main"):
        argv += draw(st.sampled_from([[], ["--json"]]))
    return [verb] + argv


@settings(max_examples=200)
@given(integer_verb_argv())
def test_cli_contract_holds_for_any_composition_or_integer(argv):
    assert_cli_contract(argv)
