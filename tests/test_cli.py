import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import revfree
from revfree import Word, __version__
from revfree.cli import main

TERNARY_MORPHISM = "0 -> 0012\n1 -> 0112\n"
FIVE_MORPHISM = "0 -> 012\n1 -> 013\n2 -> 014\n"
SQUARING_MORPHISM = "0 -> 01\n1 -> 01\n2 -> 2\n"
STRAY_MORPHISM = "0 -> 0a\n1 -> 1\n"  # a symbol that is not a digit


@pytest.fixture
def ternary_morphism(tmp_path):
    path = tmp_path / "ternary.morphism"
    path.write_text(TERNARY_MORPHISM, encoding="utf-8")
    return str(path)


@pytest.fixture
def five_morphism(tmp_path):
    path = tmp_path / "five.morphism"
    path.write_text(FIVE_MORPHISM, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestCheck:
    def test_valid_word(self, capsys):
        code, out = run(capsys, ["check", "--word", "012012", "-k", "2", "-s", "3"])
        assert code == 0
        assert out.strip() == "valid"

    def test_conflict(self, capsys):
        code, out = run(capsys, ["check", "--word", "0110", "-k", "2", "-s", "2"])
        assert code == 1
        assert "01" in out

    def test_long_windows_refused_before_slicing(self, capsys):
        # 65,537 windows of 65,535 symbols, about 4.3 * 10^9 in all: exit 2
        # at once with nothing on stdout, not gigabytes of slices later
        word = ("0123456789" * 13_108)[:131_071]
        code, out = run(capsys, ["check", "-s", "10", "-k", "65535", "--word", word])
        assert (code, out) == (2, "")

    def test_long_windows_under_the_bound(self, capsys):
        # 10,001 windows of 10,000 symbols, 10^8 in all, are still sliced
        word = "0123456789" * 2_000
        code, out = run(capsys, ["check", "-s", "10", "-k", "10000", "--word", word])
        assert (code, out) == (0, "valid\n")

    def test_valid_k5_prefix(self, capsys):
        code, _ = run(capsys, ["check", "--word", "00101100", "-k", "5", "-s", "2"])
        assert code == 0

    def test_json_payload(self, capsys):
        code, out = run(
            capsys, ["check", "--word", "0110", "-k", "2", "-s", "2", "--json"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["conflict"]["kind"] == "reversal"
        assert payload["conflict"]["x"] == "01"
        assert payload["version"]

    def test_parse_failure_is_usage_error(self, capsys):
        code, _ = run(capsys, ["check", "--word", "01x", "-k", "2", "-s", "2"])
        assert code == 2

    def test_word_outside_alphabet_is_usage_error(self, capsys):
        code, _ = run(capsys, ["check", "--word", "012", "-k", "2", "-s", "2"])
        assert code == 2


class TestFactors:
    def test_word_factors(self, capsys):
        code, out = run(capsys, ["factors", "--word", "012012", "-n", "2", "-s", "3"])
        assert code == 0
        assert out.split() == ["01", "12", "20"]

    def test_periodic_factors(self, capsys):
        code, out = run(
            capsys, ["factors", "--period", "001011", "-n", "5", "-s", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["members"] == [
            "00101", "01011", "01100", "10010", "10110", "11001"
        ]


class TestSearch:
    def test_finite_outcome(self, capsys):
        code, out = run(capsys, ["search", "-s", "2", "-k", "4", "--cap", "32"])
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "finite"
        assert payload["max_length"] == 8
        assert payload["nodes_explored"] > 0
        assert payload["query"] == {
            "alphabet": 2, "k": 4, "squarefree": False, "cap": 32
        }
        assert "wall_time_ms" in payload

    def test_squarefree_search(self, capsys):
        code, out = run(
            capsys,
            ["search", "-s", "4", "-k", "2", "--squarefree", "--cap", "64"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "finite"
        assert payload["max_length"] == 20

    def test_exceeds_cap(self, capsys):
        code, out = run(capsys, ["search", "-s", "3", "-k", "2", "--cap", "50"])
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "exceeds-cap"
        assert len(payload["sample_survivor"]) == 50

    def test_deep_search(self, capsys):
        code, out = run(capsys, ["search", "-s", "2", "-k", "5", "--cap", "2048"])
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "exceeds-cap"
        assert len(payload["sample_survivor"]) == 2048


class TestEnumerate:
    def test_words_listed(self, capsys):
        code, out = run(
            capsys, ["enumerate", "-s", "3", "-k", "2", "--length", "3"]
        )
        assert code == 0
        assert out.split() == ["012", "021", "102", "120", "201", "210"]

    def test_json_round_trip(self, capsys):
        code, out = run(
            capsys, ["enumerate", "-s", "2", "-k", "5", "--length", "9", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 32
        assert len(payload["words"]) == 32

    def test_builds_no_word_per_listed_word(self, capsys, monkeypatch):
        built = 0
        post_init = Word.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            post_init(self)

        monkeypatch.setattr(Word, "__post_init__", counting)
        code, out = run(
            capsys, ["enumerate", "--json", "-s", "2", "-k", "6", "--length", "20"]
        )
        assert code == 0
        assert json.loads(out)["count"] == 4112
        assert built == 0

    def test_reader_closing_the_pipe_early(self):
        # 903,176 bytes of words, far more than a pipe buffers: the reader
        # takes 10 and closes its end while the listing is still written
        src = Path(revfree.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        with subprocess.Popen(
            [sys.executable, "-m", "revfree.cli", "enumerate", "-s", "2", "-k", "6",
             "--length", "28"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.read(10) == b"0000010011"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert stderr == b""


class TestMorphic:
    def test_apply(self, capsys, ternary_morphism):
        code, out = run(
            capsys,
            ["morphic", "apply", "--morphism", ternary_morphism, "--word", "01"],
        )
        assert code == 0
        assert out.strip() == "00120112"

    def test_stream_builtin(self, capsys, ternary_morphism):
        code, out = run(
            capsys,
            ["morphic", "stream", "--morphism", ternary_morphism,
             "--length", "12", "--inner-builtin", "nonperiodic-binary"],
        )
        assert code == 0
        assert out.strip() == "011201120012"

    def test_stream_periodic_inner(self, capsys, ternary_morphism):
        code, out = run(
            capsys,
            ["morphic", "stream", "--morphism", ternary_morphism,
             "--length", "8", "--inner-period", "0"],
        )
        assert code == 0
        assert out.strip() == "00120012"

    def test_factor_set(self, capsys, ternary_morphism):
        code, out = run(
            capsys,
            ["morphic", "factor-set", "--morphism", ternary_morphism,
             "-k", "3", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["members"] == [
            "001", "011", "012", "112", "120", "200", "201"
        ]

    def test_marker_synchronized(self, capsys, ternary_morphism):
        code, out = run(
            capsys,
            ["morphic", "marker", "--morphism", ternary_morphism,
             "--marker", "00", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["synchronized"] is True

    def test_marker_not_synchronized(self, capsys, ternary_morphism):
        code, _ = run(
            capsys,
            ["morphic", "marker", "--morphism", ternary_morphism, "--marker", "01"],
        )
        assert code == 1

    def test_squarefree_test_pass(self, capsys, five_morphism):
        code, out = run(
            capsys,
            ["morphic", "squarefree-test", "--morphism", five_morphism, "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["preimages"]) == 12

    def test_bad_morphism_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.morphism"
        bad.write_text("0 => 01\n", encoding="utf-8")
        code, _ = run(
            capsys, ["morphic", "apply", "--morphism", str(bad), "--word", "0"]
        )
        assert code == 2

    def test_missing_morphism_file(self, capsys, tmp_path):
        code, _ = run(
            capsys,
            ["morphic", "apply", "--morphism", str(tmp_path / "nope"), "--word", "0"],
        )
        assert code == 2


class TestMatchPeriodic:
    def test_matches(self, capsys):
        prefix = ("001011" * 5)[:24]
        code, out = run(capsys, ["match-periodic", "--word", prefix, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["matched"] is True
        assert payload["preamble"] == ""
        assert payload["period"] == "001011"

    def test_no_match(self, capsys):
        code, out = run(capsys, ["match-periodic", "--word", "01" * 10])
        assert code == 1
        assert "no match" in out


class TestVerifyPaper:
    def test_all_pass(self, capsys):
        code, out = run(capsys, ["verify-paper"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(" pass " in line for line in lines)

    def test_json_schema(self, capsys):
        code, out = run(capsys, ["verify-paper", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert [r["id"] for r in payload["results"]] == [
            f"T{i}" for i in range(1, 9)
        ]
        assert all(r["status"] == "pass" for r in payload["results"])
        assert payload["version"]

    def test_failed_claim(self, capsys, monkeypatch):
        # a claimed pair set that misses one pair no longer matches T8's image
        monkeypatch.setattr(
            "revfree.verification.FIVE_K2_FACTORS", ["01", "12", "13", "14", "20", "30"]
        )
        code, out = run(capsys, ["verify-paper"])
        assert code == 1
        assert out.splitlines()[7].startswith("T8 fail")
        code, out = run(capsys, ["verify-paper", "--json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False
        assert {r["id"]: r["status"] for r in payload["results"]} == {
            **{f"T{i}": "pass" for i in range(1, 8)}, "T8": "fail"
        }


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--word", "01", "-k", "2", "-s", "2", "--nope"])
        assert exc.value.code == 2


class TestStartUp:
    def test_imports_leave_typing_out(self):
        # typing costs a cold start 2-3.5 ms: annotations stay strings, and
        # the names they use come from collections.abc or stay behind
        # TYPE_CHECKING; -I -S keeps site hooks from importing it first
        src = Path(revfree.__file__).resolve().parent.parent
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                "import revfree, revfree.cli, revfree.verification; "
                "print('revfree' in sys.modules, 'typing' in sys.modules)")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "True False\n"


class TestCallsInARow:
    """One parser serves every call in a process; no call leaks state into
    the next."""

    def test_parser_is_built_once(self):
        from revfree.cli import build_parser

        assert build_parser() is build_parser()

    def test_library_functions_are_read_at_call_time(self, capsys, monkeypatch):
        # a wrapper swapped into the module after the parser was built is called
        import revfree.cli as cli

        run(capsys, ["check", "--word", "012", "-k", "2", "-s", "3"])
        calls = []
        find_conflict = cli.find_conflict
        monkeypatch.setattr(cli, "find_conflict", lambda *a: calls.append(a) or find_conflict(*a))
        code, out = run(capsys, ["check", "--word", "012", "-k", "2", "-s", "3"])
        assert (code, out.strip(), len(calls)) == (0, "valid", 1)

    def test_json_flag_does_not_stick(self, capsys):
        code, out = run(capsys, ["check", "--word", "0110", "-k", "2", "-s", "2", "--json"])
        assert code == 1 and json.loads(out)["valid"] is False
        code, out = run(capsys, ["check", "--word", "0110", "-k", "2", "-s", "2"])
        assert code == 1 and out.startswith("conflict: ")

    def test_exclusive_options_reset(self, capsys):
        code, out = run(capsys, ["factors", "--word", "012012", "-n", "2", "-s", "3"])
        assert (code, out.split()) == (0, ["01", "12", "20"])
        code, out = run(capsys, ["factors", "--period", "01", "-n", "2", "-s", "2"])
        assert (code, out.split()) == (0, ["01", "10"])
        code, out = run(capsys, ["factors", "--word", "0011", "-n", "3", "-s", "2"])
        assert (code, out.split()) == (0, ["001", "011"])

    def test_version_exits_zero_between_calls(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.strip() == f"revfree {__version__}"
            code, out = run(capsys, ["check", "--word", "012", "-k", "2", "-s", "3"])
            assert (code, out.strip()) == (0, "valid")


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        "check --word 01 -k 0 -s 2",
        "search -s 2 -k 2 --cap 0",
        # one past the depth limit: refused before the walk, not OOM-killed
        "search -s 2 -k 5 --cap 8388609",
        # one past the squarefree depth limit (2^18): its index would outgrow the path
        "search -s 3 -k 6 --squarefree --cap 262145",
        "enumerate -s 2 -k 2 --length -1",
        "factors --word 01 -n 0 -s 2",
        "check --word 01 -k 2 -s 0",
        "morphic factor-set --morphism {ternary} -k 3 --universe-length 0",
        "morphic factor-set --morphism {ternary} -k 3 --universe-length 0 --squarefree-universe",
        "morphic factor-set --morphism {ternary} -k 3 --universe-length -1",
        "morphic factor-set --morphism {ternary} -k 3 --universe-length -1 --squarefree-universe",
        "morphic factor-set --morphism {ternary} -k 0",
        "morphic factor-set --morphism {ternary} -k -1",
        # 2^30 preimages: refused before any is built
        "morphic factor-set --morphism {ternary} -k 3 --universe-length 30",
        # no binary squarefree word has length 5: an empty universe certifies nothing
        "morphic factor-set --morphism {ternary} -k 3 --universe-length 5 --squarefree-universe",
        "morphic apply --morphism {stray} --word 01",
        # 10^7 words of length 7: refused before any length-8 word is built
        "enumerate -s 10 -k 9 --length 8",
        "enumerate -s 0 -k 2 --length 2",
        "enumerate -s 11 -k 2 --length 2",
        "check --word \u0661\u0662 -k 2 -s 3",  # Arabic-Indic digits
        # stream arguments that conflict or have nothing to qualify
        "factors --word 0000 --period 01 -n 2 -s 2",
        "factors --word 0101 --preamble 1 -n 2 -s 2",
        "factors -n 2 -s 2",
        "morphic stream --morphism {ternary} --length 8 "
        "--inner-builtin nonperiodic-binary --inner-period 1",
        "morphic stream --morphism {ternary} --length 8 "
        "--inner-builtin nonperiodic-binary --inner-preamble 0",
        # a ternary inner word under a binary morphism, even with no symbol drawn
        "morphic stream --morphism {ternary} --length 0 --inner-builtin thue-squarefree-ternary",
        # 10^11 symbols: refused before any is built, not OOM-killed
        "morphic stream --morphism {ternary} --length 100000000000 "
        "--inner-builtin nonperiodic-binary",
        "morphic marker --morphism {ternary} --marker ''",
        # a prefix of 2^26 + 2 symbols for the window set: refused, not built
        "factors --period 01 -s 2 -n 67108865",
    ])
    def test_bad_input_is_usage_error(self, capsys, tmp_path, argv):
        argv = shlex.split(argv.format(**write_morphisms(tmp_path)))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err


# Every command, in text and --json mode where it has both; the stdout of
# each was recorded in cli_golden.json.  Re-record with
#     PYTHONPATH=src python3 tests/test_cli.py
GOLDEN = Path(__file__).with_name("cli_golden.json")
GOLDEN_ARGV = [
    *(f"check {a}{mode}" for a in (
        "--word 012012 -k 2 -s 3",
        "--word 0110 -k 2 -s 2",
        "--word 1200001 -k 8 -s 3 --squarefree",
    ) for mode in ("", " --json")),
    *(f"factors {a}{mode}" for a in (
        "--word 012012 -n 2 -s 3",
        "--period 001011 --preamble 11 -n 5 -s 2",
    ) for mode in ("", " --json")),
    "search -s 2 -k 4 --cap 32",
    "search -s 2 -k 4 --cap 32 --json",
    "search -s 3 -k 2 --cap 50 --fix-first",
    *(f"enumerate -s {a}{mode}" for a in (
        "3 -k 2 --length 3",
        "2 -k 2 --length 4",
        "3 -k 2 --length 5 --squarefree",
    ) for mode in ("", " --json")),
    "morphic apply --morphism {ternary} --word 01",
    "morphic apply --morphism {ternary} --word ''",
    "morphic stream --morphism {ternary} --length 12 --inner-builtin nonperiodic-binary",
    "morphic stream --morphism {ternary} --length 8 --inner-period 1 --inner-preamble 00",
    *(f"morphic {a}{mode}" for a in (
        "factor-set --morphism {ternary} -k 3",
        "factor-set --morphism {five} -k 2 --universe-length 3 --squarefree-universe",
        "marker --morphism {ternary} --marker 00",
        "marker --morphism {ternary} --marker 01",
        "squarefree-test --morphism {five}",
        "squarefree-test --morphism {squaring}",
    ) for mode in ("", " --json")),
    *(f"match-periodic --word {a}{mode}" for a in (
        "001011001011001011001011",
        "01010101010101010101",
    ) for mode in ("", " --json")),
    "verify-paper",
    "verify-paper --json",
]
WALL_TIME = re.compile(r'("wall_time_ms": )[0-9.e+-]+')


def write_morphisms(directory: Path) -> dict[str, str]:
    paths = {}
    for name, text in (("ternary", TERNARY_MORPHISM), ("five", FIVE_MORPHISM),
                       ("squaring", SQUARING_MORPHISM), ("stray", STRAY_MORPHISM)):
        paths[name] = str(directory / f"{name}.morphism")
        Path(paths[name]).write_text(text, encoding="utf-8")
    return paths


def golden_run(argv: str, paths: dict[str, str]) -> list:
    """[exit code, stdout] of one command, with search's wall time masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(argv.format(**paths)))
    return [code, WALL_TIME.sub(r"\g<1>0", out.getvalue())]


@pytest.mark.parametrize("argv", GOLDEN_ARGV)
def test_stdout_matches_golden(tmp_path, argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden_run(argv, write_morphisms(tmp_path)) == golden[argv]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_morphisms(Path(tmp))
        record = {argv: golden_run(argv, paths) for argv in GOLDEN_ARGV}
    GOLDEN.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
