"""Molecular alphabets with ambiguity-code support.

States are encoded as bit masks over the concrete states, the classical
trick used by RAxML and most likelihood codes: ``A = 0b0001``,
``C = 0b0010``, ``G = 0b0100``, ``T = 0b1000``; an ambiguity code is the OR
of its constituents (``R = A|G = 0b0101``) and a gap/unknown is the all-ones
mask.  A tip's conditional likelihood vector is then simply the mask
expanded to 0/1 floats, which makes ambiguity handling free inside the
likelihood kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AlignmentError

__all__ = ["Alphabet", "DNA", "AMINO_ACIDS"]


@dataclass(frozen=True)
class Alphabet:
    """An alphabet of ``n_states`` concrete states plus ambiguity codes.

    Parameters
    ----------
    name:
        Human-readable name (``"DNA"``).
    states:
        The concrete state characters in canonical order.
    ambiguities:
        Mapping from extra characters to tuples of concrete state characters
        they may represent.  Gap characters map to the full state set.
    """

    name: str
    states: str
    ambiguities: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states):
            raise AlignmentError(f"duplicate states in alphabet {self.name!r}")
        if len(self.states) < 2:
            raise AlignmentError("an alphabet needs at least two states")
        # Precompute the char -> bitmask table once; stored via object.__setattr__
        # because the dataclass is frozen.
        table = np.zeros(256, dtype=np.uint32)
        index = {c: i for i, c in enumerate(self.states)}
        for ch, i in index.items():
            table[ord(ch)] = 1 << i
            table[ord(ch.lower())] = 1 << i
        for ch, expansion in self.ambiguities.items():
            mask = 0
            for c in expansion:
                if c not in index:
                    raise AlignmentError(
                        f"ambiguity {ch!r} expands to unknown state {c!r}"
                    )
                mask |= 1 << index[c]
            table[ord(ch)] = mask
            table[ord(ch.lower())] = mask
        object.__setattr__(self, "_mask_table", table)
        object.__setattr__(self, "_index", index)

    @property
    def n_states(self) -> int:
        """Number of concrete states (4 for DNA)."""
        return len(self.states)

    @property
    def gap_mask(self) -> int:
        """Bit mask representing total uncertainty (gap / unknown)."""
        return (1 << self.n_states) - 1

    def encode(self, sequence: str) -> np.ndarray:
        """Encode a character sequence into a ``uint32`` bit-mask array.

        Raises
        ------
        AlignmentError
            If the sequence contains a character that is neither a state nor
            a registered ambiguity code.
        """
        raw = np.frombuffer(sequence.encode("ascii", errors="strict"), dtype=np.uint8)
        masks = self._mask_table[raw]  # type: ignore[attr-defined]
        if np.any(masks == 0):
            bad_pos = int(np.nonzero(masks == 0)[0][0])
            raise AlignmentError(
                f"unknown character {sequence[bad_pos]!r} at position {bad_pos} "
                f"for alphabet {self.name}"
            )
        return masks

    def decode(self, masks: np.ndarray) -> str:
        """Decode bit masks back to characters (ambiguities round-trip)."""
        inverse: dict[int, str] = {}
        for i, c in enumerate(self.states):
            inverse[1 << i] = c
        for ch, expansion in self.ambiguities.items():
            mask = 0
            for c in expansion:
                mask |= 1 << self._index[c]  # type: ignore[attr-defined]
            inverse.setdefault(mask, ch)
        try:
            return "".join(inverse[int(m)] for m in masks)
        except KeyError as exc:  # pragma: no cover - defensive
            raise AlignmentError(f"cannot decode mask {exc}") from exc

    def tip_vectors(self, masks: np.ndarray) -> np.ndarray:
        """Expand bit masks into 0/1 tip conditional-likelihood rows.

        Returns a float64 array of shape ``masks.shape + (n_states,)``.
        """
        bits = (masks[..., None] >> np.arange(self.n_states)) & 1
        return bits.astype(np.float64)

    def state_index(self, char: str) -> int:
        """Index of a concrete state character."""
        try:
            return self._index[char.upper()]  # type: ignore[attr-defined]
        except KeyError as exc:
            raise AlignmentError(f"{char!r} is not a concrete state") from exc


#: The DNA alphabet with the full IUPAC ambiguity set.
DNA = Alphabet(
    name="DNA",
    states="ACGT",
    ambiguities={
        "U": "T",
        "R": "AG",
        "Y": "CT",
        "S": "CG",
        "W": "AT",
        "K": "GT",
        "M": "AC",
        "B": "CGT",
        "D": "AGT",
        "H": "ACT",
        "V": "ACG",
        "N": "ACGT",
        "?": "ACGT",
        "-": "ACGT",
        "X": "ACGT",
        "O": "ACGT",
    },
)

#: The 20-state protein alphabet (kept for substrate completeness; the
#: paper's experiments are DNA-only).
AMINO_ACIDS = Alphabet(
    name="AA",
    states="ARNDCQEGHILKMFPSTWYV",
    ambiguities={
        "B": "ND",
        "Z": "QE",
        "J": "IL",
        "X": "ARNDCQEGHILKMFPSTWYV",
        "?": "ARNDCQEGHILKMFPSTWYV",
        "-": "ARNDCQEGHILKMFPSTWYV",
        "*": "ARNDCQEGHILKMFPSTWYV",
        "U": "C",
    },
)
