"""Chaos-based encryption and keyed digests on the Rossler system.

The machine at the core integrates the Rossler ODEs with fixed-step RK4
under a strict bit-reproducibility contract. On top of it sit a per-byte
substitution cipher (trajectory endpoints as ciphertext) and a keyed
message digest (weighted sum folded into the initial condition). Both are
educational constructions; see the README for what they do and do not
provide.
"""

from __future__ import annotations

__version__ = "0.6.0"

from .cipher import (
    Ciphertext,
    Codebook,
    build_codebook,
    decrypt,
    deserialize_ciphertext,
    encrypt,
    map_byte,
    serialize_ciphertext,
)
from .digest import (
    Digest,
    compute_digest,
    fold_to_unit,
    verify_digest,
    weighted_sum,
)
from .errors import (
    AmbiguousError,
    DivergenceError,
    FormatError,
    KeygenExhausted,
    NoMatchError,
)
from .keys import (
    KeyValidationReport,
    RosslerKey,
    deserialize_key,
    generate_key,
    keyspace_bits,
    serialize_key,
    validate_key,
)
from .rossler import (
    CANONICAL_PARAMS,
    StateVector,
    SystemParams,
    run_machine,
    run_machine_batch,
    run_machine_trajectory,
)

__all__ = [
    "__version__",
    "AmbiguousError",
    "CANONICAL_PARAMS",
    "Ciphertext",
    "Codebook",
    "Digest",
    "DivergenceError",
    "FormatError",
    "KeyValidationReport",
    "KeygenExhausted",
    "NoMatchError",
    "RosslerKey",
    "StateVector",
    "SystemParams",
    "build_codebook",
    "compute_digest",
    "decrypt",
    "deserialize_ciphertext",
    "deserialize_key",
    "encrypt",
    "fold_to_unit",
    "generate_key",
    "keyspace_bits",
    "map_byte",
    "run_machine",
    "run_machine_batch",
    "run_machine_trajectory",
    "serialize_ciphertext",
    "serialize_key",
    "validate_key",
    "verify_digest",
    "weighted_sum",
]
