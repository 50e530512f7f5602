"""CLI wiring: JSON round-trips, verb behavior, exit codes, formatting."""

import json

import numpy as np
import pytest

from conftest import random_valid_box
from nsbox import (
    Box,
    boxes_equal,
    definetti_approximation,
    pr_box,
    q_box,
    symmetrize,
    product,
)
from nsbox.cli import main
from nsbox.jsonio import (
    JsonFormatError,
    box_from_json,
    box_to_json,
    decomposition_to_json,
    dump_json,
    effect_from_json,
    effect_to_json,
    load_box,
    mixture_from_json,
    mixture_to_json,
    save_box,
)
from nsbox.distance import Effect


class TestJson:
    def test_box_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        box = random_valid_box(2, 2, 3, rng)
        path = tmp_path / "box.json"
        save_box(box, str(path))
        back = load_box(str(path))
        assert np.array_equal(back.probs, box.probs)
        assert back.parties == box.parties

    def test_dyadic_roundtrip_through_text(self):
        box = pr_box()
        text = json.dumps(box_to_json(box))
        back = box_from_json(json.loads(text))
        assert np.array_equal(back.probs, box.probs)

    def test_missing_key_names_path(self):
        with pytest.raises(JsonFormatError, match="box.probs"):
            box_from_json({"parties": 1, "inputs": 1, "outputs": 2})

    def test_bad_length_reported(self):
        with pytest.raises(JsonFormatError):
            box_from_json({"parties": 1, "inputs": 1, "outputs": 2, "probs": [1.0]})

    def test_mixture_roundtrip(self):
        mixture = definetti_approximation(symmetrize(product([pr_box(), pr_box()])), 2)
        obj = mixture_to_json(mixture)
        assert set(obj) == {"k", "bound", "terms"}
        assert set(obj["terms"][0]) == {"p", "box"}
        back = mixture_from_json(obj)
        assert back.k == mixture.k and back.bound == mixture.bound
        for (p1, b1), (p2, b2) in zip(back.terms, mixture.terms):
            assert p1 == p2 and boxes_equal(b1, b2, 0.0)

    def test_effect_roundtrip(self):
        effect = Effect(np.array([0.0, 0.25, 0.5, 1.0]))
        back = effect_from_json(effect_to_json(effect))
        assert np.array_equal(back.coeffs, effect.coeffs)

    def test_decomposition_schema(self, tmp_path):
        from nsbox import separable_decompose

        dec = separable_decompose(symmetrize(product([pr_box(), pr_box()])))
        obj = decomposition_to_json(dec)
        assert obj["m"] == 2
        assert obj["baseline_inputs"] == [0, 1, 0, 1]
        assert all(set(t) == {"q", "factors"} for t in obj["terms"])


class TestCli:
    def _write(self, tmp_path, name, box):
        path = tmp_path / name
        save_box(box, str(path))
        return str(path)

    def test_example_and_validate(self, tmp_path, capsys):
        out = str(tmp_path / "pr.json")
        assert main(["example", "pr-box", "-o", out]) == 0
        assert main(["validate", out]) == 0
        printed = capsys.readouterr().out
        assert "normalization_violation 0.000000000000" in printed

    def test_validate_invalid_box_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        dump_json({"parties": 1, "inputs": 1, "outputs": 2, "probs": [0.0, 0.0]}, str(path))
        assert main(["validate", str(path)]) == 1

    def test_nosig_check(self, tmp_path, capsys):
        pr = self._write(tmp_path, "pr.json", pr_box())
        assert main(["nosig-check", pr]) == 0
        sig = str(tmp_path / "sig.json")
        assert main(["example", "signalling", "-o", sig]) == 0
        assert main(["nosig-check", sig]) == 1
        printed = capsys.readouterr().out
        assert "no-signalling false" in printed
        assert "max_violation 1.000000000000" in printed

    def test_nan_box_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        probs = [0.25] * 16
        probs[3] = float("nan")
        path.write_text(json.dumps({"parties": 2, "inputs": 2, "outputs": 2, "probs": probs}))
        pr = self._write(tmp_path, "pr.json", pr_box())
        for argv in (
            ["nosig-check", str(path)],
            ["validate", str(path)],
            ["distance", "--method", "individual", str(path), pr],
        ):
            assert main(argv) != 0, argv
            captured = capsys.readouterr()
            assert "true" not in captured.out and "nan" not in captured.out, argv
            assert "finite" in captured.err, argv

    def test_mass_two_box_exits_1(self, tmp_path, capsys):
        # No-signalling but normalized to 2: no distance or mixture is printed.
        doubled = self._write(tmp_path, "doubled.json", Box(2, 2, 2, 2.0 * pr_box().probs))
        q = self._write(tmp_path, "q.json", q_box())
        for argv in (
            ["distance", "--method", "general", doubled, q],
            ["distance", "--method", "adaptive", q, doubled],
            ["definetti", "--k", "1", doubled],
        ):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert "normalization violation 1.000e+00" in captured.err, argv

    def test_distance_outputs(self, tmp_path, capsys):
        pr = self._write(tmp_path, "pr.json", pr_box())
        q = self._write(tmp_path, "q.json", q_box())
        assert main(["distance", "--method", "adaptive", pr, q]) == 0
        assert capsys.readouterr().out.strip() == "1.000000000000"
        assert main(["distance", "--method", "individual", pr, q]) == 0
        assert capsys.readouterr().out.strip() == "0.500000000000"
        witness_path = str(tmp_path / "witness.json")
        assert main(["distance", "--method", "general", pr, q, "--witness", witness_path]) == 0
        assert capsys.readouterr().out.strip() == "1.000000000000"
        witness = effect_from_json(json.load(open(witness_path)))
        assert witness.value(pr_box()) - witness.value(q_box()) == pytest.approx(1.0, abs=1e-6)

    def test_distance_equals_library_result(self, tmp_path, capsys):
        from nsbox import individual_distance

        rng = np.random.default_rng(61)
        a = random_valid_box(2, 2, 2, rng)
        b = random_valid_box(2, 2, 2, rng)
        pa = self._write(tmp_path, "a.json", a)
        pb = self._write(tmp_path, "b.json", b)
        assert main(["distance", "--method", "individual", pa, pb]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == f"{individual_distance(a, b):.12f}"

    def test_definetti_k1_distance_zero(self, tmp_path, capsys):
        sym = self._write(tmp_path, "sym.json", symmetrize(product([pr_box(), pr_box()])))
        assert main(["definetti", "--k", "1", sym]) == 0
        printed = capsys.readouterr().out
        assert "distance 0.000000000000" in printed

    def test_definetti_writes_mixture(self, tmp_path, capsys):
        sym = self._write(tmp_path, "sym.json", symmetrize(product([pr_box(), pr_box()])))
        out = str(tmp_path / "mixture.json")
        assert main(["definetti", "--k", "2", sym, "-o", out]) == 0
        obj = json.load(open(out))
        mixture = mixture_from_json(obj)
        assert mixture.k == 2
        assert sum(p for p, _ in mixture.terms) == pytest.approx(1.0, abs=1e-9)

    def test_lemma2_verb(self, tmp_path, capsys):
        sym = self._write(tmp_path, "sym.json", symmetrize(product([pr_box(), pr_box()])))
        out = str(tmp_path / "dec.json")
        assert main(["lemma2", sym, "-o", out]) == 0
        printed = capsys.readouterr().out
        assert "m 2" in printed
        obj = json.load(open(out))
        assert obj["m"] == 2

    def test_lemma2_rejects_signalling(self, tmp_path, capsys):
        sig = str(tmp_path / "sig.json")
        main(["example", "signalling", "-o", sig])
        capsys.readouterr()
        assert main(["lemma2", sig]) == 1

    def test_marginal_permute_symmetrize_product_mix(self, tmp_path, capsys):
        pr = self._write(tmp_path, "pr.json", pr_box())
        q = self._write(tmp_path, "q.json", q_box())
        out = str(tmp_path / "out.json")
        assert main(["marginal", pr, "--parties", "0", "-o", out]) == 0
        assert np.allclose(load_box(out).probs, 0.5)
        assert main(["permute", pr, "--perm", "1,0", "-o", out]) == 0
        assert np.array_equal(load_box(out).probs, pr_box().probs)
        assert main(["symmetrize", pr, "-o", out]) == 0
        assert np.array_equal(load_box(out).probs, pr_box().probs)
        assert main(["product", pr, q, "-o", out]) == 0
        assert load_box(out).parties == 4
        assert main(["mix", "--weights", "0.5,0.5", pr, q, "-o", out]) == 0
        expected = 0.5 * pr_box().probs + 0.5 * q_box().probs
        assert np.allclose(load_box(out).probs, expected)

    def test_mix_weight_count_mismatch(self, tmp_path, capsys):
        pr = self._write(tmp_path, "pr.json", pr_box())
        assert main(["mix", "--weights", "0.5,0.5", pr]) == 1

    def test_urn_distance(self, capsys):
        assert main(["urn-distance", "--labels", "1,2", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0.500000000000"

    def test_quantum_definetti(self, tmp_path, capsys):
        from nsbox import SymmetricSeparableSpec
        from nsbox.jsonio import quantum_spec_to_json

        spec = SymmetricSeparableSpec(
            2, 2, ((1.0, (np.array([1.0, 0.0]), np.array([0.0, 1.0]))),)
        )
        path = str(tmp_path / "spec.json")
        dump_json(quantum_spec_to_json(spec), path)
        assert main(["quantum-definetti", path, "--k", "2"]) == 0
        printed = capsys.readouterr().out
        assert "distance 1.000000000000" in printed
        assert "bound 2.000000000000" in printed

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "broken.json" in err

    def test_schema_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "miss.json"
        path.write_text(json.dumps({"parties": 2, "inputs": 2, "outputs": 2}))
        assert main(["validate", str(path)]) == 2
        assert "probs" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "/nonexistent/path.json"]) == 2

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_stdout_box_emission(self, capsys):
        assert main(["example", "q-box"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["parties"] == 2
        assert boxes_equal(box_from_json(obj), q_box(), 0.0)

    def test_signalling_example_entry(self, capsys):
        # a1 = x2 and a2 = x1: on input (0, 1) the outputs are (1, 0).
        assert main(["example", "signalling"]) == 0
        box = box_from_json(json.loads(capsys.readouterr().out))
        assert box.entry((0, 1), (1, 0)) == 1.0
