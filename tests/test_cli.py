import json
import sys

import pytest

import tameorders
from tameorders import (
    format_poset,
    parse_order_pair,
    parse_poset,
    pattern_s_n2,
    r_lambda,
    tame,
)
from tameorders.cli import main

from conftest import chain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_gen(capsys, tmp_path, name, *argv):
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return path


class TestGen:
    def test_round_trips(self, capsys, tmp_path):
        for name, argv, size in [
            ("r4", ["--r-lambda", "4"], 10),
            ("s2", ["--s-n2", "2"], 4),
            ("r22", ["--r22"], 4),
            ("cb3", ["--cummings", "3"], 6),
            ("rnd", ["--random", "6", "0.3", "42"], 6),
        ]:
            path = write_gen(capsys, tmp_path, name, *argv)
            p = parse_poset(path.read_text())
            assert len(p) == size

    def test_gen_matches_library(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r3", "--r-lambda", "3")
        assert parse_poset(path.read_text()) == r_lambda(3)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--s-n2", "2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["elements"] == ["x0", "x1", "y0", "y1"]

    def test_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--r22", "--cummings", "2"])


def test_usage_error_exits_1(capsys):
    # exit 2 is reserved for an exceeded search budget
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 1
    assert "required" in capsys.readouterr().err


class TestCheck:
    def test_not_tame_exit_and_witness(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r22", "--r22")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 3
        assert "not tame" in out
        assert "x0 x1 y0 y1" in out

    def test_tame_output(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r4", "--r-lambda", "4")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "tame rank: 4" in out

    def test_json(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["tame"] and obj["tame_rank"] == 3
        assert obj["embedding"]["y0"] == [2, 2]

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "check", "/nonexistent/x.poset")
        assert code == 1
        assert out == ""
        assert err


class TestRank:
    def test_template(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r4", "--r-lambda", "4")
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        assert out.strip() == "4"

    def test_not_tame(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r22", "--r22")
        code, out, err = run(capsys, "rank", str(path))
        assert code == 3
        assert "witness" in err

    def test_not_tame_json(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r22", "--r22")
        code, out, _ = run(capsys, "rank", str(path), "--json")
        assert code == 3
        obj = json.loads(out)
        assert obj["error"] == "not-tame"
        assert obj["witness"] == ["x0", "x1", "y0", "y1"]


class TestEmbed:
    def test_s22_table(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert "x1 -> (0, 0)" in lines
        assert "x0 -> (0, 1)" in lines
        assert "y1 -> (1, 2)" in lines
        assert "y0 -> (2, 2)" in lines

    def test_json(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, _ = run(capsys, "embed", str(path), "--json")
        obj = json.loads(out)
        assert obj["map"]["y0"] == "2,2"

    def test_not_reduced(self, capsys, tmp_path):
        path = tmp_path / "anti.poset"
        path.write_text("elements: a b\n")
        code, _, err = run(capsys, "embed", str(path))
        assert code == 3
        assert "reduced" in err


class TestReduce:
    def test_text_output_reparses(self, capsys, tmp_path):
        path = tmp_path / "anti.poset"
        path.write_text("elements: a b c\n")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        quotient = parse_poset(out)
        assert len(quotient) == 1
        assert "# class 0 (rep a): a b c" in out

    def test_json(self, capsys, tmp_path):
        path = tmp_path / "p.poset"
        path.write_text("elements: a b c\nrel: a c\nrel: b c\n")
        code, out, _ = run(capsys, "reduce", str(path), "--json")
        obj = json.loads(out)
        assert obj["class_of"] == {"a": 0, "b": 0, "c": 1}
        assert obj["representatives"] == ["a", "c"]


class TestRealize:
    def test_json_shape(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, _ = run(capsys, "realize", str(path))
        assert code == 0
        obj = json.loads(out)
        assert len(obj["w"]) == 4
        assert set(obj["iso"]["map"].values()) == {"x0", "x1", "y0", "y1"}

    def test_not_tame(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r22", "--r22")
        code, _, err = run(capsys, "realize", str(path))
        assert code == 3


class TestVerify:
    def test_exhaustive_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == 0
        assert "19 posets" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--json")
        obj = json.loads(out)
        assert obj == {"n": 2, "total": 3, "tame_count": 3, "counterexamples": []}

    def test_sampled(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--samples", "8", "--seed", "4")
        assert code == 0
        assert "8 posets" in out

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "4", "--budget", "1")
        assert code == 2
        assert "budget" in err

    def test_too_large_without_opt_in(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "6")
        assert code == 1
        assert "opt-in" in err


class TestBadInput:
    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.poset"
        path.write_text("banana\n")
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and out == ""

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.poset"
        path.write_bytes(b"elements: caf\xe9 b\n")
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and out == ""
        assert "UTF-8" in err

    def test_gen_random_non_numeric(self, capsys):
        code, out, err = run(capsys, "gen", "--random", "x", "0.5", "1")
        assert code == 1 and out == ""
        assert "--random" in err

    def test_internal_value_error_exits_4(self, capsys, tmp_path, monkeypatch):
        def broken(p):
            raise ValueError("library bug")

        monkeypatch.setattr(tame, "is_tame", broken)
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, err = run(capsys, "check", str(path))
        assert code == 4 and out == ""
        assert "library bug" in err

    def test_cyclic_file(self, capsys, tmp_path):
        path = tmp_path / "cyc.poset"
        path.write_text("elements: a b\nrel: a b\nrel: b a\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 1


class TestNoWidthCap:
    """Tame ranks above 64 get answers; the template is as wide as the rank."""

    def run_verbs(self, capsys, path, rank):
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["tame"] and report["tame_rank"] == rank
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0 and out.strip() == str(rank)
        code, out, _ = run(capsys, "realize", str(path), "--json")
        assert code == 0
        return report["embedding"], json.loads(out)["iso"]["map"]

    def test_template_66(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r66", "--r-lambda", "66")
        embedding, iso = self.run_verbs(capsys, path, 66)
        assert len(embedding) == 66 * 67 // 2
        for label, coordinates in embedding.items():
            assert coordinates == list(parse_order_pair(label))
        assert iso == {f"{label}#0": label for label in embedding}

    def test_chain_90(self, capsys, tmp_path):
        path = tmp_path / "chain90"
        path.write_text(format_poset(chain(90)))
        embedding, iso = self.run_verbs(capsys, path, 90)
        assert embedding == {f"c{i}": [i, i] for i in range(90)}
        assert iso == {f"{i},{i}#0": f"c{i}" for i in range(90)}


# two classes of two below one top element
UNREDUCED = "elements: a b c d e\nrel: a c\nrel: b c\nrel: a d\nrel: b d\nrel: c e\nrel: d e\n"


class TestArithmeticTemplates:
    """check and realize decide everything on (m, M) coordinates."""

    FORBIDDEN = [
        ("templates", "r_lambda"),
        ("templates", "inflate"),
        ("poset", "restrict"),
        ("embedding", "verify_embedding"),
        ("tame", "reduce"),
    ]

    def forbid(self, monkeypatch):
        """Make each forbidden function raise in every module that holds it."""
        for module, name in self.FORBIDDEN:
            original = getattr(getattr(tameorders, module), name)

            def called(*args, _name=f"{module}.{name}", **kwargs):
                raise AssertionError(f"{_name} was called")

            for mod in list(sys.modules.values()):
                if mod is not None and mod.__name__.startswith("tameorders"):
                    if getattr(mod, name, None) is original:
                        monkeypatch.setattr(mod, name, called)

    def invocations(self, capsys, tmp_path):
        """check on a reduced tame input, realize on an unreduced one."""
        reduced = write_gen(capsys, tmp_path, "s3", "--s-n2", "3")
        unreduced = tmp_path / "unreduced.poset"
        unreduced.write_text(UNREDUCED)
        return [["check", "--json", str(reduced)], ["realize", "--json", str(unreduced)]]

    def test_no_template_is_built(self, capsys, tmp_path, monkeypatch):
        invocations = self.invocations(capsys, tmp_path)
        expected = [run(capsys, *argv) for argv in invocations]
        assert [code for code, _, _ in expected] == [0, 0]
        self.forbid(monkeypatch)
        assert [run(capsys, *argv) for argv in invocations] == expected

    def test_corrupt_coordinate_exits_4(self, capsys, tmp_path, corrupt_coordinates):
        for argv in self.invocations(capsys, tmp_path):
            code, out, err = run(capsys, *argv)
            assert code == 4 and out == ""
            assert "recheck" in err
