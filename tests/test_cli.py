"""Command line interface: exit codes, config handling, output determinism."""

import hashlib
import io
import json

import pytest

from gpseries.cli import ConfigError, main, read_config
from gpseries.monomialize import PrecisionExhausted


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


CONE = "vars x:1 y:1\ny1^2 - x1^2 = 0 & x1 > 0 & y1 > 0;\n"


def test_monomialize_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "vars x:1 y:1\ny1^2 - x1^2;\n")
    assert main(["monomialize", path]) == 0
    out = capsys.readouterr().out
    assert "leaves" in out or "leaf" in out


def test_monomialize_json_output(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "vars x:1 y:1\ny1^2 - x1^3;\n")
    assert main(["monomialize", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stats"]["leaf_count"] == 9


def test_divide_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "vars x:1 y:1\ny1^2 - x1^2;\nx1;\ny1;\n")
    assert main(["divide", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["leaves"]


def test_parametrize_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "in.txt", CONE)
    assert main(["parametrize", path, "--json", "--samples", "20"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pieces"]


def test_bad_input_exits_one(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "vars x:1 y:1\ny1^2 - x9;\n")
    assert main(["monomialize", path]) == 1


def test_fractional_power_at_precision_one(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "vars x:1 y:1\nx1^(1/2) + y1^2;\n")
    assert main(["monomialize", path, "--json", "--precision", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == "x1^(1/2)"


def test_precision_forms_give_the_same_bytes(monkeypatch, capsys):
    outputs = []
    for precision in ("8", "16/2", "8.0"):
        monkeypatch.setattr("sys.stdin", io.StringIO("vars x:1 y:1\ny1^2 - x1^3;\n"))
        assert main(["monomialize", "-", "--precision", precision, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[2] == outputs[0]


def test_missing_file_exits_one(capsys):
    assert main(["monomialize", "/nonexistent/input.txt"]) == 1


def test_bad_config_exits_one(tmp_path, capsys):
    inp = write(tmp_path, "in.txt", "vars x:1 y:1\nx1;\n")
    cfg = write(tmp_path, "cfg.txt", "precision = banana\n")
    assert main(["monomialize", inp, "--config", cfg]) == 1


def test_depth_cap_exits_three(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "vars x:1 y:1\ny1^2 - x1^3;\n")
    assert main(["monomialize", path, "--max-depth", "0"]) == 3


@pytest.mark.parametrize("statement", ["1/0", "x1^(1/0)"])
@pytest.mark.parametrize("command", ["monomialize", "divide", "parametrize"])
def test_zero_denominator_exits_one(tmp_path, capsys, command, statement):
    path = write(tmp_path, "in.txt", f"vars x:1 y:1\n{statement};\n")
    assert main([command, path]) == 1
    assert capsys.readouterr().err.startswith("error: at position")


def test_precision_exhausted_exits_two(tmp_path, capsys, monkeypatch):
    def exhausted(f, options):
        raise PrecisionExhausted("branch 0: order 8 reached")

    monkeypatch.setattr("gpseries.cli.monomialize", exhausted)
    path = write(tmp_path, "in.txt", "vars x:1 y:1\ny1^2 - x1^3;\n")
    assert main(["monomialize", path]) == 2
    assert capsys.readouterr().err == "precision exhausted: branch 0: order 8 reached\n"


def test_principalization_cap_exits_three(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "vars x:2 y:0\nx1 + x2;\n")
    assert main(["monomialize", path, "--princ-cap", "0"]) == 3
    assert capsys.readouterr().err == "cap exceeded: principalization budget 0 exhausted\n"


@pytest.mark.parametrize(
    "command,statements,message",
    [
        ("monomialize", "x1;\ny1;\n", "expected one series statement, got 2"),
        ("divide", "", "expected at least one series statement"),
        ("parametrize", "x1 > 0;\ny1 > 0;\n", "expected one set description, got 2"),
    ],
)
def test_wrong_statement_count_exits_one(tmp_path, capsys, command, statements, message):
    path = write(tmp_path, "in.txt", "vars x:1 y:1\n" + statements)
    assert main([command, path]) == 1
    assert capsys.readouterr().err == f"error: at position 0: {message}\n"


def test_vanishing_inputs_exit_one(tmp_path, capsys):
    path = write(tmp_path, "in.txt", "vars x:1 y:1\n0;\n")
    assert main(["divide", path]) == 1
    assert capsys.readouterr().err == "error: all inputs vanish to the given precision\n"


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.txt", "precision = 6\nseed = 9  # comment\n")
    parsed = read_config(cfg)
    assert parsed["precision"] == "6"
    assert parsed["seed"] == "9"
    inp = write(tmp_path, "in.txt", "vars x:1 y:1\nx1 + y1;\n")
    assert main(["monomialize", inp, "--config", cfg, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["precision"] == "6"


def test_config_rejects_unknown_key(tmp_path):
    cfg = write(tmp_path, "cfg.txt", "warp = 9\n")
    with pytest.raises(ConfigError):
        read_config(cfg)


def test_json_is_deterministic_across_threads(tmp_path, capsys):
    path = write(tmp_path, "in.txt", CONE)
    outputs = []
    for threads in ("1", "4"):
        assert (
            main(
                [
                    "parametrize",
                    path,
                    "--json",
                    "--samples",
                    "20",
                    "--seed",
                    "5",
                    "--threads",
                    threads,
                ]
            )
            == 0
        )
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["monomialize", "--help"])
    assert exc.value.code == 0
    assert "--max-depth" in capsys.readouterr().out


def test_invalid_threads_exits_one(tmp_path):
    path = write(tmp_path, "in.txt", "vars x:1 y:1\nx1;\n")
    assert main(["monomialize", path, "--threads", "0"]) == 1


# sha256 of the --json output: seven monomialisations (y1*y2 - x1^2 runs the
# joint coefficient step and embeds its subtree; the x2^(1/2) input also makes
# the embedding ramify before a chart; the last three reach the y-y, the y-x
# and the ramified x-x principalisation chart families), three division-chain
# families and the cone and cusp parametrisations; the bytes, and with them
# the engine's tree and audit order, must not change when only speed does
PINNED_OUTPUTS = {
    "monomialize-y1y2": (
        ["monomialize"],
        "vars x:1 y:2\ny1*y2 - x1^2;\n",
        "89939e7ecaa98996bdd3c4dd117535dacdb12bcebc0262dbd8e4c480852c4d2e",
    ),
    "monomialize-y1y2-square": (
        ["monomialize"],
        "vars x:1 y:2\ny1^2 - x1^2*y2^2;\n",
        "29d8ab9f09c1c3adf15755ae99123a9f350032a31fbdcae57cffade5b09fa32b",
    ),
    "monomialize-ramified-embed": (
        ["monomialize"],
        "vars x:2 y:1\ny1^2 + x2^(1/2)*y1^2 + x1^2 - x2^2;\n",
        "43591b80393e7bb2cc88a31200b543b2b325161ae7015aedb1b6a7f3e834f5fa",
    ),
    "monomialize-cusp": (
        ["monomialize"],
        "vars x:1 y:1\ny1^2 - x1^3;\n",
        "4625050ca23d75638569550a81f805c73b859c8bc2fc7308dc86f688722e01a1",
    ),
    "monomialize-principalize-yy": (
        ["monomialize", "--precision", "3"],
        "vars x:2 y:2\nx1*y1 + x1*y2 + x2^3;\n",
        "9439395120d33142cf81051a84df8ebfc0cdfecfcec312e91ff8991fbad2254c",
    ),
    "monomialize-principalize-yx": (
        ["monomialize"],
        "vars x:2 y:1\nx1*y1 + x1^2 + x2^3;\n",
        "f83a230a3eab8b7b5cbf6914b2eb1fefc2d959cee41c2c848a53bd14a6e07b17",
    ),
    "monomialize-principalize-xx-ramified": (
        ["monomialize"],
        "vars x:2 y:1\nx1*y1 + x2^(1/2);\n",
        "7b5cb467fba200e896dc4ca2d74c1dbb365e8a70f5e5efdd02c722138df35c9a",
    ),
    "divide-family-0": (
        ["divide"],
        "vars x:1 y:1\ny1^2 - x1^2;\nx1;\ny1;\n",
        "d687750a048c26867453be97612ee9cf3518c72432cce37b0bd189edbda18e08",
    ),
    "divide-family-1": (
        ["divide"],
        "vars x:1 y:1\ny1^2 - x1^3;\ny1 - x1;\nx1^2;\n",
        "2cc169dc78ec9fd2173b47f84dda380798216bc7b68a4b74eaf907bb3800f2bd",
    ),
    "divide-family-2": (
        ["divide"],
        "vars x:1 y:1\nx1 + y1;\nx1 - y1;\nx1*y1;\n",
        "b89b441e40ca212dfa7632ed40692b0eaf094ef4346ae3ce23808c46a66d4f78",
    ),
    "parametrize-cone": (
        ["parametrize", "--samples", "20"],
        CONE,
        "509ca4bd5e59d0217ee02161b492b1bc332fcbdaed6ce2697a923a54b11ea331",
    ),
    "parametrize-cusp": (
        ["parametrize", "--samples", "20"],
        "vars x:1 y:1\ny1^2 - x1^3 = 0 & x1 > 0;\n",
        "c67b40bad1fe3b6073ad6f533cd8c1ddd0bf408107deb23c2aad14e4214ee658",
    ),
    # pieces on all 8 frozen subsets, so x-indices after a frozen x1 shift
    "parametrize-x2": (
        ["parametrize", "--samples", "20"],
        "vars x:2 y:1\ny1 - x1 + x2 = 0;\n",
        "9db25824368f8c92d70fcfcbf7ac650f39977cfbe5eaae4b4a80103137f1def6",
    ),
    # two y's frozen together (zero_y = [1, 2])
    "parametrize-y2": (
        ["parametrize", "--samples", "20"],
        "vars x:1 y:2\ny1 + y2 - x1 = 0;\n",
        "8d987c45e9bdc73fc5b5148858b2d3b5aea004a18736cc8fb43062d82665a227",
    ),
}


# the text output of ``monomialize``: one line per leaf, a normal leaf with
# its monomial and unit, a zero leaf with its signature only
PINNED_TEXT = {
    "cusp": (
        "vars x:1 y:1\ny1^2 - x1^3;\n",
        [
            "input: y1^2 - x1^3",
            "leaves: 9  height: 2",
            "  normal  sig=(1, 1)  x^['2'] y^[0]  unit -1 + y1^2",
            "  normal  sig=(1, 1)  x^['2'] y^[0]  unit 3 - 4*y1 + y1^2",
            "  normal  sig=(1, 1)  x^['2'] y^[1]  unit -2 + y1",
            "  normal  sig=(1, 1)  x^['2'] y^[0]  unit -3/4 - y1 + y1^2",
            "  normal  sig=(1, 1)  x^['2'] y^[0]  unit -3/4 + y1 + y1^2",
            "  normal  sig=(1, 1)  x^['2'] y^[1]  unit 2 + y1",
            "  normal  sig=(1, 1)  x^['2'] y^[0]  unit 3 + 4*y1 + y1^2",
            "  normal  sig=(2, 0)  x^['0', '2'] y^[]  unit 1 - x1^2",
            "  normal  sig=(2, 0)  x^['0', '2'] y^[]  unit 1 - x1^2",
        ],
    ),
    "zero": (
        "vars x:1 y:1\n0;\n",
        ["input: 0", "leaves: 1  height: 0", "  zero  sig=(1, 1)"],
    ),
}


@pytest.mark.parametrize("name", PINNED_TEXT)
def test_monomialize_text_lines_are_pinned(tmp_path, capsys, name):
    text, lines = PINNED_TEXT[name]
    path = write(tmp_path, "in.txt", text)
    assert main(["monomialize", path]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("name", PINNED_OUTPUTS)
def test_json_output_bytes_are_pinned(tmp_path, capsys, name):
    command, text, digest = PINNED_OUTPUTS[name]
    path = write(tmp_path, "in.txt", text)
    assert main([command[0], path, "--json", *command[1:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_config_and_flags_share_one_option_table(tmp_path, capsys):
    # every config key has a default and a flag; the flag wins over the file
    cfg = write(tmp_path, "cfg.txt", "max-depth = 0\nprinc-cap = 7\nlambda = 1\n")
    inp = write(tmp_path, "in.txt", "vars x:1 y:1\ny1^2 - x1^3;\n")
    assert main(["monomialize", inp, "--config", cfg]) == 3
    assert main(["monomialize", inp, "--config", cfg, "--max-depth", "64"]) == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--lambda", "1/0"],
        ["--lambda", "-1"],
        ["--precision", "1/0"],
        ["--precision", "-1"],
        ["--seed", "x"],
        ["--max-depth", "x"],
        ["--samples", "1.5"],
        ["--bogus"],
        ["--max-depth", "-1"],
        ["--princ-cap", "-1"],
        ["--samples", "-3"],
    ],
)
def test_bad_option_values_exit_one(tmp_path, capsys, flags):
    inp = write(tmp_path, "in.txt", "vars x:1 y:1\nx1;\n")
    assert main(["monomialize", inp, *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")
