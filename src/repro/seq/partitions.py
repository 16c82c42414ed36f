"""Partition schemes for multi-gene / whole-genome alignments.

A *partition* is a named set of alignment sites that shares one substitution
model, one α shape parameter (or one per-site-rate vector) and — unless
per-partition branch lengths are requested (the ``-M`` option) — the global
branch lengths.  The paper's central workloads are partitioned alignments
with 10 … 1000 gene-sized partitions.

The text format follows RAxML's partition file::

    DNA, gene1 = 1-1000
    DNA, gene2 = 1001-2000
    DNA, codon3 = 3-3000\\3

i.e. 1-based inclusive ranges, comma-separated range lists, and an optional
``\\k`` stride for codon-position partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import AlignmentError

__all__ = [
    "Partition",
    "PartitionScheme",
    "parse_partition_file",
    "read_partition_file",
    "format_partition_file",
    "write_partition_file",
]


def _repeats(sites: np.ndarray) -> bool:
    """True when ``sites`` holds a value twice.  (Not ``np.unique``: since
    NumPy 2.4 it imports ``numpy.ma`` on its first call.)"""
    ordered = np.sort(sites)
    return bool(np.any(ordered[1:] == ordered[:-1]))


@dataclass
class Partition:
    """A named partition: a model tag plus the (0-based) site indices."""

    name: str
    sites: np.ndarray
    model: str = "DNA"

    def __post_init__(self) -> None:
        self.sites = np.asarray(self.sites, dtype=np.intp)
        if self.sites.size == 0:
            raise AlignmentError(f"partition {self.name!r} selects no sites")
        if np.any(self.sites < 0):
            raise AlignmentError(f"partition {self.name!r} has negative site indices")
        if _repeats(self.sites):
            raise AlignmentError(f"partition {self.name!r} repeats sites")

    @property
    def n_sites(self) -> int:
        return int(self.sites.size)


@dataclass
class PartitionScheme:
    """An ordered list of partitions covering an alignment.

    The scheme validates that partitions are disjoint; ``validate_cover``
    additionally checks that every alignment site is assigned (RAxML warns
    on uncovered sites, we make it an explicit opt-in check).
    """

    partitions: list[Partition] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.partitions:
            raise AlignmentError("a partition scheme needs at least one partition")
        names = [p.name for p in self.partitions]
        if len(set(names)) != len(names):
            raise AlignmentError("partition names must be unique")
        all_sites = np.concatenate([p.sites for p in self.partitions])
        if _repeats(all_sites):
            raise AlignmentError("partitions overlap")

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    def __getitem__(self, i: int) -> Partition:
        return self.partitions[i]

    @property
    def n_sites(self) -> int:
        return int(sum(p.n_sites for p in self.partitions))

    def validate_cover(self, n_sites: int) -> None:
        """Ensure the scheme covers exactly sites ``0..n_sites-1``."""
        all_sites = np.concatenate([p.sites for p in self.partitions])
        if np.any(all_sites >= n_sites):
            raise AlignmentError(
                f"partition sites exceed alignment length {n_sites}"
            )
        if all_sites.size != n_sites:
            raise AlignmentError(
                f"partitions cover {all_sites.size} of {n_sites} sites"
            )

    @classmethod
    def single(cls, n_sites: int, name: str = "ALL", model: str = "DNA") -> "PartitionScheme":
        """The trivial unpartitioned scheme over ``n_sites`` sites."""
        if n_sites <= 0:
            raise AlignmentError("n_sites must be positive")
        return cls([Partition(name=name, sites=np.arange(n_sites), model=model)])

    @classmethod
    def contiguous_blocks(
        cls, block_sizes: list[int], names: list[str] | None = None, model: str = "DNA"
    ) -> "PartitionScheme":
        """Build a scheme of consecutive blocks of the given sizes."""
        if names is None:
            names = [f"p{i}" for i in range(len(block_sizes))]
        if len(names) != len(block_sizes):
            raise AlignmentError("names/block_sizes length mismatch")
        parts = []
        offset = 0
        for name, size in zip(names, block_sizes):
            if size <= 0:
                raise AlignmentError("block sizes must be positive")
            parts.append(
                Partition(name=name, sites=np.arange(offset, offset + size), model=model)
            )
            offset += size
        return cls(parts)


def _parse_range_spec(spec: str, name: str) -> np.ndarray:
    """Parse ``1-1000, 2001-3000\\3`` style 1-based range lists."""
    sites: list[np.ndarray] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise AlignmentError(f"empty range in partition {name!r}")
        stride = 1
        if "\\" in chunk:
            chunk, stride_s = chunk.split("\\", 1)
            try:
                stride = int(stride_s)
            except ValueError as exc:
                raise AlignmentError(
                    f"bad stride {stride_s!r} in partition {name!r}"
                ) from exc
            if stride <= 0:
                raise AlignmentError(f"stride must be positive in {name!r}")
        chunk = chunk.strip()
        if "-" in chunk:
            lo_s, hi_s = chunk.split("-", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError as exc:
                raise AlignmentError(f"bad range {chunk!r} in {name!r}") from exc
        else:
            try:
                lo = hi = int(chunk)
            except ValueError as exc:
                raise AlignmentError(f"bad site {chunk!r} in {name!r}") from exc
        if lo < 1 or hi < lo:
            raise AlignmentError(f"invalid range {chunk!r} in {name!r}")
        sites.append(np.arange(lo - 1, hi, stride, dtype=np.intp))
    return np.concatenate(sites)


def parse_partition_file(text: str) -> PartitionScheme:
    """Parse RAxML-style partition-file text into a :class:`PartitionScheme`."""
    parts: list[Partition] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "," not in line or "=" not in line:
            raise AlignmentError(f"malformed partition line {lineno}: {raw!r}")
        model, rest = line.split(",", 1)
        name, spec = rest.split("=", 1)
        parts.append(
            Partition(
                name=name.strip(),
                sites=_parse_range_spec(spec.strip(), name.strip()),
                model=model.strip(),
            )
        )
    return PartitionScheme(parts)


def read_partition_file(path: str | Path) -> PartitionScheme:
    """Read a RAxML-style partition file from disk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise AlignmentError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_partition_file(text)


def format_partition_file(scheme: PartitionScheme) -> str:
    """Serialize a scheme back to RAxML partition-file text.

    Site runs are emitted as 1-based inclusive ranges; strided
    (codon-position) partitions round-trip through explicit ranges.
    """
    lines = []
    for part in scheme:
        sites = np.sort(part.sites)
        chunks = []
        start = prev = int(sites[0])
        for s in sites[1:]:
            s = int(s)
            if s == prev + 1:
                prev = s
                continue
            chunks.append((start, prev))
            start = prev = s
        chunks.append((start, prev))
        spec = ", ".join(
            f"{a + 1}-{b + 1}" if a != b else f"{a + 1}" for a, b in chunks
        )
        lines.append(f"{part.model}, {part.name} = {spec}")
    return "\n".join(lines) + "\n"


def write_partition_file(scheme: PartitionScheme, path: str | Path) -> None:
    """Write a scheme to disk in RAxML partition-file format."""
    Path(path).write_text(format_partition_file(scheme))
