import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import gaudin.cli
from gaudin import ModelSpec, build_hamiltonian, verify_family
from gaudin.bethe import BetheSolution
from gaudin.cli import main


SPEC_11 = '{"weights": [1, 1], "z": ["0", "1"]}'
SPEC_222 = '{"weights": [2, 2, 2], "z": ["0", "1", "3/2"]}'
SPEC_1234 = '{"weights": [1, 2, 3, 4], "z": ["0", "1", "2", "3"]}'


@pytest.fixture
def spec_file(tmp_path):
    def write(text, name="model.json"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestDecompose:
    def test_two_site_dims(self, spec_file, capsys):
        code, payload = run_json(["decompose", "--spec", spec_file(SPEC_11)], capsys)
        assert code == 0
        dims = [d["dim"] for d in payload["dims"]]
        assert dims == [1, 2, 1]
        assert payload["dims"][2]["truncated"] is True

    def test_three_site_level_two(self, spec_file, capsys):
        code, payload = run_json(["decompose", "--spec", spec_file(SPEC_222)], capsys)
        assert code == 0
        assert payload["dims"][2] == {"m": 2, "dim": 6, "binomial": 6, "truncated": False}

    @pytest.mark.parametrize(
        "text",
        [
            '{"weights": [1, 1], "z": ["1//2", "0"]}',
            "[1, 2]",
            '{"weights": 3, "z": ["0", "1"]}',
            '{"weights": [1, 1], "z": [null, "1"]}',
            '{"weights": [1, 1], "z": "01"}',
            '{"weights": [1, null], "z": ["0", "1"]}',
            '{"weights": [1, 1], "z": [Infinity, "1"]}',
            '{"weights": [1, 1]}',
            '{"weights": [true, 2], "z": ["0", "1"]}',
            '{"weights": [1, 2], "z": [false, true]}',
            '{"weights": [1, 2], "z": [0.1, 1]}',
        ],
        ids=["bad-rational", "not-an-object", "scalar-weights", "null-z", "string-z", "null-weight", "infinite-z",
             "missing-z", "bool-weight", "bool-z", "float-z"],
    )
    def test_malformed_rational_exits_2(self, spec_file, capsys, text):
        # every malformed spec is an input error (exit 2), not a verification failure with a traceback
        with pytest.raises(ValueError):
            ModelSpec.from_json(text)
        assert main(["decompose", "--spec", spec_file(text)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["decompose", "--spec", "/nonexistent/path.json"]) == 2

    def test_csv_format(self, spec_file, capsys):
        code = main(["decompose", "--spec", spec_file(SPEC_11), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,dim,binomial,truncated"
        assert len(lines) == 4

    # the verification gates are constants: eigenbasis and bethe take no flag to set them
    @pytest.mark.parametrize(
        "command",
        ["decompose --n-starts", "eigenbasis --tol", "eigenbasis --tol-rank", "bethe --tol-root"],
    )
    def test_flag_of_another_command_is_rejected(self, spec_file, capsys, command):
        name, flag = command.split()
        with pytest.raises(SystemExit) as exc:
            main([name, "--spec", spec_file(SPEC_11), flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


class TestModuleEntryPoint:
    @pytest.mark.parametrize("text", [SPEC_222, '{"weights": [1, 1]}'], ids=["valid", "malformed"])
    def test_python_m_matches_main(self, spec_file, capsys, text):
        # python -m gaudin.cli runs main on the process arguments and exits with its code
        argv = ["decompose", "--spec", spec_file(text)]
        code = main(argv)
        out = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(gaudin.cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "gaudin.cli", *argv], capture_output=True, env=env)
        assert proc.returncode == code
        assert proc.stdout == out.encode()


class TestParserReuse:
    def test_one_parser_per_process(self, spec_file, capsys, monkeypatch):
        path = spec_file(SPEC_11)
        main(["decompose", "--spec", path])
        monkeypatch.setattr(gaudin.cli, "build_parser", None)  # a second build would fail
        assert main(["verify", "--spec", path]) == 0
        capsys.readouterr()

    def test_consecutive_calls_parse_independently(self, spec_file, capsys):
        # one cached parser: no flag or default of one call leaks into the next
        path = spec_file(SPEC_11)
        code, emitted = run_json(["verify", "--spec", path, "--emit-matrices"], capsys)
        assert code == 0 and "matrices" in emitted
        code, plain = run_json(["verify", "--spec", path], capsys)
        assert code == 0 and "matrices" not in plain
        code, singular = run_json(["singular", "--spec", path, "--m", "1"], capsys)
        assert code == 0 and singular["m"] == 1
        assert main(["singular", "--spec", path]) == 2  # --m is not remembered
        assert "--m is required" in capsys.readouterr().err
        code, basis = run_json(["eigenbasis", "--spec", path, "--m-max", "0"], capsys)
        assert code == 0 and basis["m_max"] == 0
        code, basis = run_json(["eigenbasis", "--spec", path], capsys)
        assert code == 0 and basis["m_max"] == 1
        code, csv_out = run_json(["decompose", "--spec", path, "--format", "csv"], capsys)
        assert code == 0 and csv_out.startswith("m,dim")
        code, decomposed = run_json(["decompose", "--spec", path], capsys)
        assert code == 0 and decomposed["weights"] == [1, 1]
        with pytest.raises(SystemExit):
            main(["decompose", "--spec", path, "--m", "1"])
        capsys.readouterr()
        code, solved = run_json(["bethe", "--spec", path, "--m", "1", "--seed", "7"], capsys)
        assert code == 0 and solved["m"] == 1


class TestVerify:
    def test_valid_spec_passes(self, spec_file, capsys):
        code, payload = run_json(["verify", "--spec", spec_file(SPEC_11)], capsys)
        assert code == 0
        assert payload["all_ok"] is True
        assert all(entry["commuting"] for entry in payload["per_m"])

    def test_emit_matrices_triplets(self, spec_file, capsys):
        code, payload = run_json(
            ["verify", "--spec", spec_file(SPEC_11), "--emit-matrices"], capsys
        )
        assert code == 0
        by_key = {(e["m"], e["i"]): e["triplets"] for e in payload["matrices"]}
        assert by_key[(0, 1)] == [[0, 0, "-1/2"]]
        assert sorted(by_key[(1, 1)]) == [
            [0, 0, "1/2"],
            [0, 1, "-1"],
            [1, 0, "-1"],
            [1, 1, "1/2"],
        ]

    def test_emit_matrices_with_csv_exits_2(self, spec_file, capsys):
        # the CSV report holds the per-m rows only: asking for matrices in it is an input error
        path = spec_file('{"weights": [1, 2], "z": ["0", "1"]}')
        assert main(["verify", "--spec", path, "--emit-matrices", "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--emit-matrices needs --format json" in captured.err

    def test_emitted_matrices_are_the_public_hamiltonians(self, spec_file, capsys):
        # the CLI and build_hamiltonian read one operator: the triplets of (m, i + 1) are its entries
        spec = ModelSpec.from_json(SPEC_1234)
        code, payload = run_json(["verify", "--spec", spec_file(SPEC_1234), "--emit-matrices"], capsys)
        assert code == 0
        assert len(payload["matrices"]) == spec.n_sites * (spec.total_weight + 1)
        for entry in payload["matrices"]:
            triplets = [(row, col, Fraction(value)) for row, col, value in entry["triplets"]]
            assert triplets == build_hamiltonian(spec, entry["i"] - 1, entry["m"]).entries()

    def test_triplets_when_a_site_scale_passes_int64(self, spec_file, capsys):
        # z_2 - z_1 = 10^20: D_i = 2 * 10^20 is past int64 while the entries of D_i H_i stay int64
        text = '{"weights": [1, 2], "z": ["0", "100000000000000000000"]}'
        spec = ModelSpec.from_json(text)
        code, payload = run_json(["verify", "--spec", spec_file(text), "--emit-matrices"], capsys)
        assert code == 0
        for entry in payload["matrices"]:
            triplets = [(row, col, Fraction(value)) for row, col, value in entry["triplets"]]
            assert triplets == build_hamiltonian(spec, entry["i"] - 1, entry["m"]).entries()
        assert [1, 0, "-1/50000000000000000000"] in payload["matrices"][4]["triplets"]

    @pytest.mark.parametrize("shifted", [None, "bottom", "top"])
    @pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 3, 3, 4)])
    def test_levels_match_verify_family(self, weights, shifted, spec_file, monkeypatch, capsys):
        # the CLI's sliding window gives verify_family's report at every level,
        # m = 0 (no E check) and the top (no F check) included; shifting H_1 by
        # a multiple of the identity on one end level breaks sum_zero there and
        # the intertwinings on both sides of it
        from gaudin import cli, hamiltonians

        spec = ModelSpec(weights, tuple(Fraction(k * k + 1, k + 2) for k in range(len(weights))))
        level = {None: None, "bottom": 0, "top": spec.total_weight}[shifted]
        original = hamiltonians._integer_gathers

        def shifted_builder(spec, m):
            src, coef = original(spec, m)
            if m == level:
                coef[0, 0] += hamiltonians._site_scales(spec.z)[0]
            return src, coef

        monkeypatch.setattr(hamiltonians, "_integer_gathers", shifted_builder)
        code, payload = run_json(["verify", "--spec", spec_file(spec.to_json())], capsys)
        expected = []
        for m in range(spec.total_weight + 1):
            report = verify_family(spec, m)
            expected.append(
                {
                    "m": m,
                    "commuting": report.commuting,
                    "sum_zero": report.sum_zero,
                    "symmetry_commute": report.symmetry_commute,
                }
            )
        assert payload["per_m"] == expected
        assert code == (0 if level is None else 1)
        if level is not None:
            broken = {level, level + (1 if level == 0 else -1)}
            assert {e["m"] for e in expected if not e["symmetry_commute"]} == broken
            assert [e["m"] for e in expected if not e["sum_zero"]] == [level]


class TestNumericFailureExit:
    def test_diagonalization_error_maps_to_3(self, spec_file, monkeypatch, capsys):
        from gaudin import cli
        from gaudin.eigenbasis import DiagonalizationError

        def boom(*args, **kwargs):
            raise DiagonalizationError("forced failure", 1.0)

        monkeypatch.setattr(cli, "build_eigenbasis", boom)
        code = main(["eigenbasis", "--spec", spec_file(SPEC_11), "--m-max", "1"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_injected_verification_fault_maps_to_1(self, spec_file, monkeypatch, capsys):
        from gaudin import hamiltonians
        from gaudin.hamiltonians import VerifyReport

        monkeypatch.setattr(hamiltonians, "_report", lambda ok, groups: VerifyReport(False, True, True))
        code = main(["verify", "--spec", spec_file(SPEC_11)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is False
        assert payload["per_m"][0]["commuting"] is False

    def test_failed_invariance_check_maps_to_1(self, spec_file, monkeypatch, capsys):
        # E D_i H_i = D_i H_i E failing exactly is a verification failure, not an input error
        from gaudin import eigenbasis

        monkeypatch.setattr(eigenbasis, "_vanishing", lambda items: np.zeros(len(items), dtype=bool))
        code = main(["eigenbasis", "--spec", spec_file(SPEC_222), "--m-max", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verification failure: operator does not preserve the kernel" in captured.err


class TestSingular:
    def test_three_site_level_two_count(self, spec_file, capsys):
        code, payload = run_json(
            ["singular", "--spec", spec_file(SPEC_222), "--m", "2"], capsys
        )
        assert code == 0
        assert payload["count"] == 3  # m + 1 for three sites
        assert payload["method"] == "gordan"
        assert payload["annihilated"] is True
        assert payload["span_matches_kernel"] is True
        assert payload["vectors"][0]["composition"] is not None

    def test_kernel_route_beyond_regime(self, spec_file, capsys):
        path = spec_file('{"weights": [1, 3], "z": ["0", "1"]}')
        code, payload = run_json(["singular", "--spec", path, "--m", "2"], capsys)
        assert code == 0
        assert payload["method"] == "kernel"
        assert payload["count"] < payload["dim_formula"]

    def test_requires_m(self, spec_file, capsys):
        assert main(["singular", "--spec", spec_file(SPEC_11)]) == 2

    def test_perturbed_entry_is_not_annihilated(self, spec_file, capsys, monkeypatch):
        gordan = gaudin.cli.singular_basis_gordan

        def perturbed(spec, m):
            basis = gordan(spec, m)
            first = (basis.vectors[0][0] + 1,) + basis.vectors[0][1:]
            return dataclasses.replace(basis, vectors=(first,) + basis.vectors[1:])

        monkeypatch.setattr(gaudin.cli, "singular_basis_gordan", perturbed)
        code, payload = run_json(["singular", "--spec", spec_file(SPEC_222), "--m", "2"], capsys)
        assert code == 1
        assert payload["annihilated"] is False


class TestEigenbasis:
    def test_two_site_level_one(self, spec_file, capsys):
        code, payload = run_json(
            ["eigenbasis", "--spec", spec_file(SPEC_11), "--m-max", "1"], capsys
        )
        assert code == 0
        level1 = payload["levels"][1]["vectors"]
        values = sorted(v["eigenvalues"][0][0] for v in level1)
        assert abs(values[0] + 0.5) < 1e-9 and abs(values[1] - 1.5) < 1e-9
        origins = sorted(v["origin"] for v in level1)
        assert origins == ["lowered:1", "singular"]

    def test_top_level_of_the_module(self, spec_file, capsys):
        code, payload = run_json(["eigenbasis", "--spec", spec_file(SPEC_11), "--m-max", "2"], capsys)
        assert code == 0
        assert [len(level["vectors"]) for level in payload["levels"]] == [1, 2, 1]
        assert payload["levels"][2]["vectors"][0]["origin"] == "lowered:2"

    def test_m_max_beyond_regime_exits_2(self, spec_file, capsys):
        # weights (1, 1): the module ends at sum(weights) = 2
        assert main(["eigenbasis", "--spec", spec_file(SPEC_11), "--m-max", "3"]) == 2


class TestBethe:
    def test_two_site_closed_form(self, spec_file, capsys):
        code, payload = run_json(
            ["bethe", "--spec", spec_file(SPEC_11), "--m", "1"], capsys
        )
        assert code == 0
        assert payload["found"] == 1 and payload["expected_count"] == 1
        root = payload["solutions"][0]["roots"][0]
        assert abs(root[0] - 0.5) < 1e-9 and abs(root[1]) < 1e-9

    def test_requires_m(self, spec_file, capsys):
        assert main(["bethe", "--spec", spec_file(SPEC_11)]) == 2

    def test_level_above_the_module_exits_2(self, spec_file, capsys):
        # sum(weights) = 3: the levels 2 and 3 have no singular vectors, level 9 does not exist
        path = spec_file('{"weights": [1, 2], "z": ["0", "1"]}')
        for m in ("2", "3"):
            code, payload = run_json(["bethe", "--spec", path, "--m", m], capsys)
            assert code == 0 and payload["expected_count"] == payload["found"] == 0
        assert main(["bethe", "--spec", path, "--m", "9"]) == 2
        assert "outside 0..3" in capsys.readouterr().err

    def test_expected_count_is_the_exact_singular_dimension(self, spec_file, capsys):
        # the untruncated binomial C(4, 2) would be 6; weight 1 at site 1 leaves 5
        code, payload = run_json(["bethe", "--spec", spec_file(SPEC_1234), "--m", "2"], capsys)
        assert code == 0
        assert payload["expected_count"] == payload["found"] == 5
        assert sorted(payload) == ["expected_count", "found", "m", "solutions"]
        assert sorted(payload["solutions"][0]) == [
            "eigenvalues", "multiplicity_flag", "residual_eq", "roots", "singular_residual", "vector_residual",
        ]

    @pytest.mark.parametrize("residuals", [(0.0, 0.5), (2e-9, 0.0), (float("nan"), 0.0)])
    def test_unverified_solution_exits_1(self, spec_file, capsys, monkeypatch, residuals):
        singular_residual, vector_residual = residuals
        bad = BetheSolution(
            roots=np.array([0.25 + 0.0j]),
            residual_eq=0.0,
            eigenvalues=np.zeros(2, dtype=complex),
            vector_residual=vector_residual,
            singular_residual=singular_residual,
        )
        monkeypatch.setattr(gaudin.cli, "solve_bethe", lambda *args, **kwargs: [bad])
        code, payload = run_json(["bethe", "--spec", spec_file(SPEC_11), "--m", "1"], capsys)
        assert code == 1
        assert payload["found"] == 1

    def test_near_coalescing_sites_with_missing_solutions_exit_1(self, spec_file, capsys):
        # z_1 and z_2 1/1000 apart: the solver verifies only some of the 6 singular eigenvectors at m = 2
        path = spec_file('{"weights": [2, 2, 2, 2], "z": ["0", "1", "1001/1000", "3"]}')
        code, payload = run_json(["bethe", "--spec", path, "--m", "2"], capsys)
        assert 0 < payload["found"] < payload["expected_count"] == 6
        assert code == 1

    def test_one_missing_solution_exits_1(self, spec_file, capsys, monkeypatch):
        # every reported solution verified, but one of the 5 expected dropped
        solve = gaudin.cli.solve_bethe
        monkeypatch.setattr(gaudin.cli, "solve_bethe", lambda *args, **kwargs: solve(*args, **kwargs)[1:])
        code, payload = run_json(["bethe", "--spec", spec_file(SPEC_1234), "--m", "2"], capsys)
        assert (code, payload["found"], payload["expected_count"]) == (1, 4, 5)

    def test_removed_solver_flags_are_rejected(self, spec_file, capsys):
        for flag in ("--n-starts", "--dedup-tol"):
            with pytest.raises(SystemExit) as exc:
                main(["bethe", "--spec", spec_file(SPEC_11), "--m", "1", flag, "5"])
            assert exc.value.code == 2


class TestDeterminism:
    def test_identical_json_bytes(self, spec_file, tmp_path):
        path = spec_file(SPEC_222)
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                [
                    "eigenbasis",
                    "--spec",
                    path,
                    "--m-max",
                    "2",
                    "--seed",
                    "42",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bethe_identical_bytes(self, spec_file, tmp_path):
        path = spec_file(SPEC_222)
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["bethe", "--spec", path, "--m", "2", "--seed", "11", "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_out_file_summary_line(self, spec_file, tmp_path, capsys):
        out = tmp_path / "dims.json"
        code = main(["decompose", "--spec", spec_file(SPEC_11), "--out", str(out)])
        assert code == 0
        assert "wrote json report" in capsys.readouterr().out
        assert json.loads(out.read_text())["dims"][0]["dim"] == 1


# weights (2, 3, 3, 4) with the ladder z_k = (k^2 + 1)/(k + 2)
SPEC_LADDER = '{"weights": [2, 3, 3, 4], "z": ["1/2", "2/3", "5/4", "2"]}'

# sha256 of the JSON on stdout; these outputs are exact (no floating point),
# so they are the same on every machine and must not change under a refactor
GOLDEN_SHA256 = {
    ("decompose",): "c26c960380075d4c95c0247b739b195797f2cf4ec57d7764c370bc56dbc2cafe",
    ("verify", "--emit-matrices"): "0967545e715b34e222f3ba79742dc6d3f9e729b2e51573f36ceb0ee4ebfb199b",
    ("singular", "--m", "2"): "c851dd31801cabfc7351ad11cc82a3596f029fa2687d1d3e89fde8762dc22c3a",
    ("singular", "--m", "3"): "74398d908574fb2e78c181a1698e487539d7818b91937aabdf1e8f2eb31df34f",
}


class TestGoldenExactOutput:
    @pytest.mark.parametrize("args", sorted(GOLDEN_SHA256), ids=" ".join)
    def test_json_bytes_are_pinned(self, args, spec_file, capsys):
        code = main([args[0], "--spec", spec_file(SPEC_LADDER), *args[1:]])
        out = capsys.readouterr().out
        assert code == 0
        if args[0] == "singular":
            assert json.loads(out)["method"] == ("gordan" if args[-1] == "2" else "kernel")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[args]


# strings that a JSON writer must keep intact: escapes, brackets, separators, non-ASCII and a newline
TRICKY_STRINGS = ["\\", '"', '\\"', '\\\\"', "[", "]", "{", "}", ",", ":", '"]', '\\"}', "é", "\u2028", "𝄞", "a\nb", ""]


class TestJsonText:
    @pytest.mark.parametrize(
        "payload",
        [
            {"strings": TRICKY_STRINGS, **{key: [key, {key: key}] for key in TRICKY_STRINGS}},
            {"a": [], "b": {}, "c": [[]], "d": [{}], "e": {"f": {"g": []}}, "h": [[], {}, [[{}]]]},
            {"tuple": (1, (2, 3), ()), "nested": ((), [()])},
            [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324, 2**63, -(2**70), 10**40],
            {"t": True, "f": False, "n": None, "np": np.float64(-2.5), "list": [np.float64(1 / 3), None]},
            [], {}, "x", 7, None,
        ],
        ids=["strings", "empty", "tuples", "numbers", "constants", "list", "dict", "str", "int", "null"],
    )
    def test_matches_the_indenting_encoder(self, payload):
        assert gaudin.cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("decompose",),
            ("verify",),
            ("verify", "--emit-matrices"),
            ("singular", "--m", "2"),
            ("singular", "--m", "3"),
            ("eigenbasis",),
            ("bethe", "--m", "2"),
        ],
        ids=" ".join,
    )
    def test_every_command_writes_the_canonical_layout(self, args, spec_file, tmp_path, capsys):
        # eigenbasis and bethe print floats, which no golden pin covers; --out writes the same bytes
        argv = [args[0], "--spec", spec_file(SPEC_LADDER), *args[1:]]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        target = tmp_path / "report.json"
        assert main([*argv, "--out", str(target)]) == 0
        assert target.read_bytes() == out.encode()
