"""Command line interface.

Subcommands: simulate, keygen, encrypt, decrypt, digest, verify, keyspace.
Machine-readable output goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 verification or match failure (including divergence and
exhausted key generation), 2 usage or format errors (including a simulate
argument the machine refuses, such as a non-finite start state, at any
--steps, and a request too large to allocate).

The handlers check nothing the library checks; they raise, and main alone
prints the one error: line and picks the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from . import __version__, cipher, digest as digest_mod, keys, rossler
from .errors import AmbiguousError, DivergenceError, KeygenExhausted, NoMatchError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosslercrypt",
        description="Rossler-machine simulation, encryption, and keyed digests.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    keyed = argparse.ArgumentParser(add_help=False)
    keyed.add_argument("--key", required=True)
    keyed.add_argument("--in", dest="in_path", required=True)

    p = sub.add_parser("simulate", help="integrate the system and emit CSV")
    p.add_argument("--a", type=float, default=rossler.CANONICAL_PARAMS.a)
    p.add_argument("--b", type=float, default=rossler.CANONICAL_PARAMS.b)
    p.add_argument("--c", type=float, default=rossler.CANONICAL_PARAMS.c)
    p.add_argument("--x0", type=float, default=0.0001)
    p.add_argument("--y0", type=float, default=0.0001)
    p.add_argument("--z0", type=float, default=0.0001)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("keygen", help="generate a key file")
    p.add_argument("--seed", type=int, help="64-bit seed; default: OS entropy")
    p.add_argument("--out", required=True, help="key file path (61 bytes)")

    p = sub.add_parser("encrypt", parents=[keyed], help="encrypt a file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("decrypt", parents=[keyed], help="decrypt a file")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--tolerance",
        type=float,
        help="match within this distance instead of exactly "
        "(for ciphertext that crossed a lossy re-encoding)",
    )

    sub.add_parser("digest", parents=[keyed], help="print the keyed digest of a file")

    p = sub.add_parser(
        "verify", parents=[keyed], help="check a file against a claimed digest"
    )
    p.add_argument("--digest", required=True, help="16 hex digits")

    p = sub.add_parser("keyspace", help="print the keyspace size 2^(7n)")
    p.add_argument("--bits", type=int, required=True, help="bits per key component")

    return parser


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _trajectory_csv(states, h: float) -> str:
    # repr() of a float is the shortest decimal that parses back to the
    # same binary64, so the CSV is lossless.
    lines = ["t,x,y,z"]
    for n, row in enumerate(states):
        t = n * h
        lines.append(f"{t!r},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    params = rossler.SystemParams(args.a, args.b, args.c)
    init = rossler.StateVector(args.x0, args.y0, args.z0)
    states = rossler.run_machine_trajectory(params, init, args.steps, args.h)
    text = _trajectory_csv(states, args.h)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_keygen(args) -> int:
    if args.seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"seed: {seed}", file=sys.stderr)
    else:
        seed = args.seed
    key = keys.generate_key(seed)
    blob = keys.serialize_key(key)
    with open(args.out, "wb") as f:
        f.write(blob)
    # Fingerprint: first 8 hex digits of SHA-256 over the 61 key bytes.
    print(hashlib.sha256(blob).hexdigest()[:8])
    return 0


def _cmd_encrypt(args) -> int:
    key = keys.deserialize_key(_read(args.key))
    ct = cipher.encrypt(_read(args.in_path), key)
    with open(args.out, "wb") as f:
        f.write(cipher.serialize_ciphertext(ct))
    print(len(ct))
    return 0


def _cmd_decrypt(args) -> int:
    key = keys.deserialize_key(_read(args.key))
    ct = cipher.deserialize_ciphertext(_read(args.in_path))
    recovered = cipher.decrypt(ct, key, tolerance=args.tolerance)
    with open(args.out, "wb") as f:
        f.write(recovered)
    print(len(recovered))
    return 0


def _cmd_digest(args) -> int:
    key = keys.deserialize_key(_read(args.key))
    print(digest_mod.compute_digest(_read(args.in_path), key).hex())
    return 0


def _cmd_verify(args) -> int:
    key = keys.deserialize_key(_read(args.key))
    claimed = digest_mod.Digest.from_hex(args.digest)
    if digest_mod.verify_digest(_read(args.in_path), key, claimed):
        print("ok")
        return 0
    print("mismatch")
    return 1


def _cmd_keyspace(args) -> int:
    print(f"2^{keys.keyspace_bits(args.bits)}")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "keygen": _cmd_keygen,
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "digest": _cmd_digest,
    "verify": _cmd_verify,
    "keyspace": _cmd_keyspace,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 for --help/--version.
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (NoMatchError, AmbiguousError, DivergenceError, KeygenExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # FormatError is a ValueError; so is an argument the machine refuses.
        # MemoryError: numpy refused an array, e.g. for a huge --steps.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
