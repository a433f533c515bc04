"""Command line surface: flags, formats, exit codes, and stream discipline."""

from __future__ import annotations

import hashlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from rosslercrypt import (
    CANONICAL_PARAMS,
    StateVector,
    __version__,
    cipher,
    cli,
    deserialize_key,
    digest as digest_mod,
    kernels,
    run_machine_trajectory,
    validate_key,
)
from rosslercrypt.cli import main


@pytest.fixture()
def key_file(tmp_path, capsys):
    path = tmp_path / "test.key"
    assert main(["keygen", "--seed", "7", "--out", str(path)]) == 0
    capsys.readouterr()  # drop the fingerprint line
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_defaults_emit_501_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["simulate"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 502
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            assert len(cells) == 4

    def test_rows_reproduce_trajectory_bits(self, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "--steps", "40"])
        assert code == 0
        traj = run_machine_trajectory(
            CANONICAL_PARAMS, StateVector(0.0001, 0.0001, 0.0001), 40, 0.1
        )
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 41
        for n, line in enumerate(rows):
            t, x, y, z = (float(c) for c in line.split(","))
            assert t == 0.0 + n * 0.1
            assert (x, y, z) == tuple(traj[n])

    def test_emitted_reals_round_trip_exactly(self, capsys):
        _, out, _ = run_cli(capsys, ["simulate", "--steps", "25"])
        for line in out.strip().split("\n")[1:]:
            for cell in line.split(","):
                assert repr(float(cell)) == cell

    def test_zero_steps_single_initial_row(self, capsys):
        code, out, _ = run_cli(
            capsys, ["simulate", "--steps", "0", "--x0", "0.5", "--y0", "-1", "--z0", "2"]
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[1:] == ["0.0,0.5,-1.0,2.0"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, out, _ = run_cli(capsys, ["simulate", "--steps", "5", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert len(path.read_text().strip().split("\n")) == 7

    def test_negative_steps_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["simulate", "--steps", "-1"])
        assert code == 2
        assert out == ""
        assert err == "error: step count must be >= 0, got -1\n"

    def test_huge_steps_usage_error(self, capsys):
        # numpy refuses the 21.3 PiB trajectory before allocating any of it.
        code, out, err = run_cli(capsys, ["simulate", "--steps", str(10**15)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nonpositive_h_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["simulate", "--h", "0"])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--h", "inf"),
            ("--h", "nan"),
            ("--a", "nan"),
            ("--c", "inf"),
            ("--x0", "nan"),
            ("--y0", "inf"),
            ("--z0", "-inf"),
        ],
    )
    def test_zero_steps_keeps_the_machine_rule(self, capsys, flag, value):
        # A refused argument is a usage error whether or not a step is run.
        for steps in ("0", "1"):
            argv = ["simulate", "--steps", steps, f"{flag}={value}"]
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_divergence_exits_1(self, capsys):
        code, _, err = run_cli(capsys, ["simulate", "--h", "50"])
        assert code == 1
        assert "diverged" in err

    @pytest.mark.skipif(
        len(kernels.available_backends()) < 2, reason="numba backend unavailable"
    )
    def test_backends_emit_identical_csv(self, capsys, monkeypatch):
        outputs = []
        for name in ("numba", "numpy"):
            backend = kernels.get_backend(name)
            monkeypatch.setattr(kernels, "active_backend", lambda: backend)
            code, out, _ = run_cli(capsys, ["simulate", "--steps", "200"])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestKeygen:
    def test_deterministic_61_byte_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.key", tmp_path / "b.key"
        code1, out1, _ = run_cli(capsys, ["keygen", "--seed", "0", "--out", str(a)])
        code2, out2, _ = run_cli(capsys, ["keygen", "--seed", "0", "--out", str(b)])
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) == 61
        assert out1 == out2

    def test_fingerprint_is_sha256_prefix(self, capsys, tmp_path):
        path = tmp_path / "fp.key"
        _, out, _ = run_cli(capsys, ["keygen", "--seed", "3", "--out", str(path)])
        expected = hashlib.sha256(path.read_bytes()).hexdigest()[:8]
        assert out.strip() == expected

    def test_written_key_validates(self, capsys, tmp_path):
        path = tmp_path / "v.key"
        run_cli(capsys, ["keygen", "--seed", "11", "--out", str(path)])
        key = deserialize_key(path.read_bytes())
        assert validate_key(key).valid

    def test_default_seed_from_os_entropy(self, capsys, tmp_path):
        path = tmp_path / "r.key"
        code, out, err = run_cli(capsys, ["keygen", "--out", str(path)])
        assert code == 0
        assert err.startswith("seed: ")
        assert validate_key(deserialize_key(path.read_bytes())).valid
        # Reproducible from the printed seed.
        seed = err.split(":", 1)[1].strip()
        path2 = tmp_path / "r2.key"
        run_cli(capsys, ["keygen", "--seed", seed, "--out", str(path2)])
        assert path.read_bytes() == path2.read_bytes()

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["keygen", "--seed", "1", "--out", str(tmp_path / "no" / "dir.key")]
        )
        assert code == 2
        assert err

    def test_exhausted_key_search_exits_1(self, capsys, tmp_path, monkeypatch):
        from rosslercrypt import KeyValidationReport, keys

        monkeypatch.setattr(
            keys, "validate_key", lambda key: KeyValidationReport(False, "divergent")
        )
        path = tmp_path / "none.key"
        code, out, err = run_cli(capsys, ["keygen", "--seed", "1", "--out", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()


class TestEncryptDecrypt:
    def test_file_round_trip(self, capsys, key_file, tmp_path):
        plain = tmp_path / "plain.bin"
        plain.write_bytes(bytes(range(256)) + b"tail")
        ct_path = tmp_path / "msg.rct"
        out_path = tmp_path / "plain.out"
        code, out, _ = run_cli(
            capsys,
            ["encrypt", "--key", key_file, "--in", str(plain), "--out", str(ct_path)],
        )
        assert code == 0
        assert out.strip() == str(256 + 4)
        assert len(ct_path.read_bytes()) == 13 + 8 * (256 + 4)
        code, out, _ = run_cli(
            capsys,
            ["decrypt", "--key", key_file, "--in", str(ct_path), "--out", str(out_path)],
        )
        assert code == 0
        assert out_path.read_bytes() == plain.read_bytes()

    def test_empty_file_round_trip(self, capsys, key_file, tmp_path):
        plain = tmp_path / "empty.bin"
        plain.write_bytes(b"")
        ct_path = tmp_path / "empty.rct"
        out_path = tmp_path / "empty.out"
        run_cli(capsys, ["encrypt", "--key", key_file, "--in", str(plain), "--out", str(ct_path)])
        assert len(ct_path.read_bytes()) == 13
        run_cli(capsys, ["decrypt", "--key", key_file, "--in", str(ct_path), "--out", str(out_path)])
        assert out_path.read_bytes() == b""

    def test_wrong_key_exits_1(self, capsys, key_file, tmp_path):
        other = tmp_path / "other.key"
        run_cli(capsys, ["keygen", "--seed", "900", "--out", str(other)])
        plain = tmp_path / "p.bin"
        plain.write_bytes(b"secret")
        ct_path = tmp_path / "p.rct"
        run_cli(capsys, ["encrypt", "--key", key_file, "--in", str(plain), "--out", str(ct_path)])
        code, _, err = run_cli(
            capsys,
            ["decrypt", "--key", str(other), "--in", str(ct_path), "--out", str(tmp_path / "x")],
        )
        assert code == 1
        assert "position" in err

    def test_corrupt_ciphertext_exits_2(self, capsys, key_file, tmp_path):
        bad = tmp_path / "bad.rct"
        bad.write_bytes(b"not a ciphertext")
        code, _, _ = run_cli(
            capsys,
            ["decrypt", "--key", key_file, "--in", str(bad), "--out", str(tmp_path / "x")],
        )
        assert code == 2

    def test_corrupt_key_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.key"
        bad.write_bytes(b"\x00" * 61)
        plain = tmp_path / "p.bin"
        plain.write_bytes(b"x")
        code, _, _ = run_cli(
            capsys,
            ["encrypt", "--key", str(bad), "--in", str(plain), "--out", str(tmp_path / "o")],
        )
        assert code == 2

    def test_key_with_huge_step_count_exits_2(self, capsys, key_file, tmp_path):
        # N = 2^64 - 1 would ask for 256 * N RK4 steps; the key is refused.
        huge = tmp_path / "huge.key"
        with open(key_file, "rb") as f:
            huge.write_bytes(f.read()[:-8] + b"\xff" * 8)
        plain = tmp_path / "p.bin"
        plain.write_bytes(b"x")
        code, out, err = run_cli(
            capsys,
            ["encrypt", "--key", str(huge), "--in", str(plain), "--out", str(tmp_path / "o")],
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: unusable key: out_of_range"]
        assert not (tmp_path / "o").exists()

    def test_tolerant_decrypt_flag(self, capsys, key_file, tmp_path):
        import numpy as np

        plain = tmp_path / "p.bin"
        plain.write_bytes(b"tolerant")
        ct_path = tmp_path / "p.rct"
        run_cli(capsys, ["encrypt", "--key", key_file, "--in", str(plain), "--out", str(ct_path)])
        ct = cipher.deserialize_ciphertext(ct_path.read_bytes())
        lossy = cipher.Ciphertext(values=np.array([float(f"{v:.15g}") for v in ct.values]))
        ct_path.write_bytes(cipher.serialize_ciphertext(lossy))
        out_path = tmp_path / "p.out"
        code, _, _ = run_cli(
            capsys,
            [
                "decrypt", "--key", key_file, "--in", str(ct_path),
                "--out", str(out_path), "--tolerance", "1e-9",
            ],
        )
        assert code == 0
        assert out_path.read_bytes() == b"tolerant"

    def test_missing_input_exits_2(self, capsys, key_file, tmp_path):
        code, _, _ = run_cli(
            capsys,
            ["encrypt", "--key", key_file, "--in", str(tmp_path / "absent"), "--out", str(tmp_path / "o")],
        )
        assert code == 2


class TestDigestVerify:
    def test_digest_prints_16_hex(self, capsys, key_file, tmp_path):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"to be attested")
        code, out, _ = run_cli(capsys, ["digest", "--key", key_file, "--in", str(msg)])
        assert code == 0
        assert out.endswith("\n")
        text = out.strip()
        assert len(text) == 16
        with open(key_file, "rb") as f:
            key = deserialize_key(f.read())
        assert digest_mod.compute_digest(b"to be attested", key).hex() == text

    def test_verify_round_trip(self, capsys, key_file, tmp_path):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"verified payload")
        _, out, _ = run_cli(capsys, ["digest", "--key", key_file, "--in", str(msg)])
        code, out2, _ = run_cli(
            capsys,
            ["verify", "--key", key_file, "--in", str(msg), "--digest", out.strip()],
        )
        assert code == 0
        assert out2.strip() == "ok"

    def test_verify_flipped_byte_exits_1(self, capsys, key_file, tmp_path):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"original")
        _, out, _ = run_cli(capsys, ["digest", "--key", key_file, "--in", str(msg)])
        msg.write_bytes(b"originaj")
        code, out2, _ = run_cli(
            capsys,
            ["verify", "--key", key_file, "--in", str(msg), "--digest", out.strip()],
        )
        assert code == 1
        assert out2.strip() == "mismatch"

    @pytest.mark.parametrize("bad", ["0" * 15, "0" * 17, "nothexnothexnoth"])
    def test_malformed_digest_exits_2(self, capsys, key_file, tmp_path, bad):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"x")
        code, _, _ = run_cli(
            capsys, ["verify", "--key", key_file, "--in", str(msg), "--digest", bad]
        )
        assert code == 2


class TestKeyspace:
    @pytest.mark.parametrize("bits, expected", [("16", "2^112"), ("1", "2^7")])
    def test_prints_power(self, capsys, bits, expected):
        code, out, _ = run_cli(capsys, ["keyspace", "--bits", bits])
        assert code == 0
        assert out.strip() == expected

    def test_zero_bits_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["keyspace", "--bits", "0"])
        assert code == 2
        assert out == ""
        assert err == "error: bits per component must be >= 1\n"


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, ["frobnicate"])[0] == 2

    def test_no_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, [])[0] == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0

    def test_version_matches_pyproject(self, capsys):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            version = tomllib.load(f)["project"]["version"]
        assert __version__ == version
        assert run_cli(capsys, ["--version"])[:2] == (0, version + "\n")

    def test_only_main_prints_errors(self):
        # Handlers raise; main alone turns an error into one line and an
        # exit code, so a second copy of a library check could drift.
        source = Path(cli.__file__).read_text()
        assert source.count('"error: ') == inspect.getsource(main).count('"error: ')


class TestSubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rosslercrypt", "keyspace", "--bits", "16"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2^112"
