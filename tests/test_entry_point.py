"""The command's entry point, `python -m grasscy.cli` and the installed
`grasscy`: `cli.console` runs `main`, which lifts the cap on int digits for
its call, and ends the process with os._exit.  Whatever `main` prints must
reach the file or pipe whole, with the exit code `main` chose; a stdout
that fails ends the run with its documented code, not a traceback."""

import ast
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import grasscy.cli as cli
from grasscy.cli import main
from grasscy.hypergeom import a_series
from grasscy.registry import _load_json
from grasscy.series import series_from_json

from support import int_digit_cap

ROOT = Path(__file__).resolve().parent.parent


def _run(argv, stdout, unbuffered=False) -> subprocess.CompletedProcess:
    """Run the command in a fresh interpreter with its stdout block-buffered,
    as it is by default, or unbuffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "grasscy.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120, env=env)


def run_entry(argv, tmp_path):
    """The command with stdout to a regular file: (exit code, stdout bytes,
    stderr bytes)."""
    out_path = tmp_path / "stdout"
    with open(out_path, "wb") as out:
        proc = _run(argv, out)
    return proc.returncode, out_path.read_bytes(), proc.stderr


def run_in_process(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def test_output_past_the_buffer_reaches_a_file_whole(tmp_path, capsys):
    """`lax 1 40` prints more than one buffer: through the entry point its
    bytes equal what `main` prints in-process."""
    code, out, err = run_entry(["lax", "1", "40"], tmp_path)
    assert (code, err) == (0, b"")
    assert len(out) > io.DEFAULT_BUFFER_SIZE
    assert out == run_in_process(["lax", "1", "40"], capsys)[1]
    assert len(json.loads(out)["terms"]) == 40


def test_verify_all_through_a_file_equals_the_in_process_report(tmp_path, capsys):
    code, out, err = run_entry(["verify-all", "--count", "30"], tmp_path)
    assert (code, err) == (0, b"")
    in_code, in_out, _ = run_in_process(["verify-all", "--count", "30"], capsys)
    assert in_code == 0
    assert out == in_out


def test_failed_expectation_exits_1_with_the_report(tmp_path, capsys):
    """A registry whose expected n_1 of X113_G25 is wrong: exit 1 with the
    whole report (its "pass" false) on stdout and nothing on stderr."""
    data = _load_json(None)
    case = next(rec for rec in data["cases"] if rec["name"] == "X113_G25")
    case["instantons"] = [case["instantons"][0] + 1] + case["instantons"][1:]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(data))
    argv = ["verify-all", "--registry", str(wrong)]
    code, out, err = run_entry(argv, tmp_path)
    assert (code, err) == (1, b"")
    assert json.loads(out)["pass"] is False
    assert out == run_in_process(argv, capsys)[1]


def _series_without_annihilator(tmp_path) -> str:
    rng = random.Random(0)
    coeffs = [1] + [rng.randint(-1000, 1000) for _ in range(29)]
    f = tmp_path / "series.json"
    f.write_text(json.dumps({"var": "z", "trunc": 29, "coeffs": [str(c) for c in coeffs]}))
    return str(f)


@pytest.mark.parametrize("argv,code,error", [
    (["pf-fit", "--series", None, "--max-order", "1", "--max-degree", "1"], 1,
     "NoAnnihilator: no annihilator within bounds (1,1)"),
    (["verify-all", "--count", "0"], 2, "UsageError: count must be >= 1, got 0"),
], ids=["failed-check", "bad-input"])
def test_error_is_one_json_line_on_stderr(tmp_path, argv, code, error):
    argv = [_series_without_annihilator(tmp_path) if a is None else a for a in argv]
    got, out, err = run_entry(argv, tmp_path)
    assert (got, out) == (code, b"")
    lines = err.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(error)


def test_help_prints_its_whole_usage(tmp_path, capsys, monkeypatch):
    """--help through the entry point: exit 0 and the usage `main` prints,
    at one terminal width for both."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_entry(["--help"], tmp_path)
    assert (code, err) == (0, b"")
    assert out.startswith(b"usage: grasscy")
    assert out == run_in_process(["--help"], capsys)[1]


def test_console_script_is_the_main_block_entry():
    """`[project.scripts] grasscy` names the function that the module's
    `__main__` block calls, so both commands end the same way."""
    scripts, section = {}, None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, _, target = line.partition("=")
            scripts[name.strip()] = target.strip().strip('"')
    module, _, func = scripts["grasscy"].partition(":")
    assert module == cli.__name__

    tree = ast.parse(Path(cli.__file__).read_text())
    main_block = next(node for node in tree.body if isinstance(node, ast.If)
                      and ast.unparse(node.test) == "__name__ == '__main__'")
    [call] = main_block.body
    assert ast.unparse(call) == f"{func}()"
    assert callable(getattr(cli, func))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_disk_exits_1_with_one_json_line():
    with open("/dev/full", "wb") as full:
        proc = _run(["verify-all"], full)
    lines = proc.stderr.decode().splitlines()
    assert (proc.returncode, len(lines)) == (1, 1)
    assert json.loads(lines[0])["error"].startswith("OSError: [Errno 28]")


def test_help_into_a_closed_pipe_exits_141_quietly():
    """Like every other command: `main` writes the usage, and its write or
    flush meets the exited reader, with stdout buffered or not."""
    for unbuffered in (False, True):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run(["--help"], write_end, unbuffered)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, b""), unbuffered


def test_integers_past_the_digit_cap_are_printed_whole(tmp_path):
    """The A-series of G(1,400) to order 20 has denominators (m!)^400 of
    more than 4300 digits, the default cap on int-to-str conversion."""
    code, out, err = run_entry(["aseries", "1", "400", "--order", "20"], tmp_path)
    assert (code, err) == (0, b"")
    report = json.loads(out)
    assert max(len(c) for c in report["coeffs"]) > 4300
    with int_digit_cap(0):
        assert series_from_json(report) == a_series(1, 400, 20)


def test_main_in_process_lifts_the_digit_cap_for_its_call_alone(tmp_path, capsys):
    """In-process, under the interpreter's default cap, `main` prints the
    G(1,400) A-series as the entry point does, and leaves its caller's cap
    as it was."""
    argv = ["aseries", "1", "400", "--order", "20"]
    with int_digit_cap(4300):
        code, out, err = run_in_process(argv, capsys)
        assert sys.get_int_max_str_digits() == 4300
    assert (code, err) == (0, b"")
    assert out == run_entry(argv, tmp_path)[1]


def test_integers_past_the_digit_cap_are_read_back(tmp_path):
    """Fifteen coefficients 10^5000, the series 10^5000 / (1 - z): its
    operator at bounds (1,1) is D - zD - z, as for 1 / (1 - z)."""
    series = tmp_path / "big.json"
    series.write_text(json.dumps({"var": "z", "trunc": 14, "coeffs": ["1" + "0" * 5000] * 15}))
    code, out, err = run_entry(["pf-fit", "--series", str(series),
                                "--max-order", "1", "--max-degree", "1"], tmp_path)
    assert (code, err) == (0, b"")
    assert json.loads(out) == {"order": 1, "var": "z", "terms": [
        {"qdeg": 0, "ddeg": 1, "coeff": "1"},
        {"qdeg": 1, "ddeg": 1, "coeff": "-1"},
        {"qdeg": 1, "ddeg": 0, "coeff": "-1"},
    ]}
