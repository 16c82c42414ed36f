"""Search checkpointing.

RAxML-Light's headline feature — the paper introduces it as "a
checkpointable and scalable MPI-based code" — is the ability to stop a
multi-day run and restart it.  A checkpoint captures everything a replica
needs to resume deterministically: the tree (topology + all branch-length
sets), every partition's model parameters, and the search-loop state.

The format is a single ``.npz`` archive: portable, versioned, and cheap
to write from every rank (in the decentralized scheme all replicas hold
identical state, so any one of them can write it — maximum redundancy).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.durable import durable_write
from repro.errors import CheckpointError
from repro.model.rates import DiscreteGamma, NoRateHeterogeneity, PerSiteRates
from repro.tree.distances import edge_sides
from repro.tree.newick import parse_newick, write_newick
from repro.tree.topology import edge_key

__all__ = ["checkpoint_file", "save_checkpoint", "load_checkpoint", "restore_into"]

FORMAT_VERSION = 1


def checkpoint_file(path) -> Path:
    """The file a checkpoint written to ``path`` lands in: ``path`` itself
    when it ends in ``.npz``, else ``path`` + ``.npz`` (as ``np.savez``
    names a bare path)."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


def save_checkpoint(path, lik, iteration: int, radius: int, logl: float) -> None:
    """Write the full search state of ``lik`` (and its tree) to ``path``."""
    tree = lik.tree
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {
        "version": FORMAT_VERSION,
        "iteration": int(iteration),
        "radius": int(radius),
        "logl": float(logl),
        "n_branch_sets": tree.n_branch_sets,
        "n_partitions": lik.n_partitions,
        "taxa": lik.taxa,
        "partitions": [],
    }
    # topology without lengths + all length sets keyed by edge
    meta["newick"] = write_newick(tree, lengths=False)
    names = _edge_names(tree)
    edges = tree.edges()
    arrays["edge_lengths"] = np.vstack([tree.edge_length(u, v) for u, v in edges])
    meta["edge_names"] = [names[edge_key(u, v)] for u, v in edges]

    for i, part in enumerate(lik.parts):
        pm: dict = {"name": part.name, "branch_set": part.branch_set}
        rh = part.rate_het
        if isinstance(rh, DiscreteGamma):
            pm["rate_het"] = {"kind": "gamma", "alpha": rh.alpha, "n_cats": rh.n_cats}
        elif isinstance(rh, PerSiteRates):
            pm["rate_het"] = {"kind": "psr"}
            arrays[f"psr_rates_{i}"] = rh.rates
        elif isinstance(rh, NoRateHeterogeneity):
            pm["rate_het"] = {"kind": "none"}
        else:  # pragma: no cover - future models
            raise CheckpointError(f"cannot checkpoint {type(rh).__name__}")
        arrays[f"gtr_rates_{i}"] = part.model.rates
        arrays[f"frequencies_{i}"] = part.model.frequencies
        meta["partitions"].append(pm)

    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    # a crash mid-write (the very event checkpoints guard against) must
    # never leave a torn archive where the previous good checkpoint was
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    durable_write(checkpoint_file(path), buf.getvalue())


def _edge_names(tree) -> dict[tuple[int, int], str]:
    """A topology-stable, unique name for every edge: the sorted label set
    of the side *not* containing the globally smallest taxon.  The
    bipartition identifies the edge uniquely and is invariant under node
    renumbering (min-label pairs alone are NOT unique: a leaf edge and the
    edge above it can share both side minima)."""
    return {key: ",".join(sorted(side)) for key, side in edge_sides(tree).items()}


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint; returns ``(meta, arrays)``."""
    try:
        with np.load(Path(path)) as data:
            arrays = {k: data[k] for k in data.files}
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "__meta__" not in arrays:
        raise CheckpointError("checkpoint is missing its metadata block")
    meta = json.loads(arrays.pop("__meta__").tobytes().decode("utf-8"))
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.get('version')}"
        )
    return meta, arrays


def restore_into(lik, meta: dict, arrays: dict[str, np.ndarray]):
    """Restore tree topology, branch lengths and model parameters.

    ``lik``'s alignment data must match the checkpointed run (same taxa
    and partition count); returns ``(iteration, radius, logl)``.
    """
    if meta["taxa"] != lik.taxa:
        raise CheckpointError("checkpoint is for a different taxon set")
    if meta["n_partitions"] != lik.n_partitions:
        raise CheckpointError("checkpoint is for a different partition count")

    # rebuild the topology in place: parse, then transplant
    new_tree = parse_newick(meta["newick"], meta["n_branch_sets"])
    if meta["n_branch_sets"] > 1:
        new_tree.set_n_branch_sets(meta["n_branch_sets"])
    name_to_row = {}
    for idx, name in enumerate(meta["edge_names"]):
        name_to_row[name] = idx
    lengths = arrays["edge_lengths"]
    names = _edge_names(new_tree)
    for u, v in new_tree.edges():
        name = names[edge_key(u, v)]
        if name not in name_to_row:
            raise CheckpointError(f"edge {name!r} missing from checkpoint")
        new_tree.set_edge_length(u, v, lengths[name_to_row[name]])

    # swap the restored tree into the likelihood
    lik.tree = new_tree
    lik.drop_clvs()

    for i, pm in enumerate(meta["partitions"]):
        part = lik.parts[i]
        part.model = part.model.with_rates(arrays[f"gtr_rates_{i}"])
        part.model = part.model.with_frequencies(arrays[f"frequencies_{i}"])
        rh = pm["rate_het"]
        if rh["kind"] == "gamma":
            if not isinstance(part.rate_het, DiscreteGamma):
                raise CheckpointError(f"partition {i}: rate-het kind mismatch")
            part.rate_het.alpha = rh["alpha"]
        elif rh["kind"] == "psr":
            if not isinstance(part.rate_het, PerSiteRates):
                raise CheckpointError(f"partition {i}: rate-het kind mismatch")
            part.rate_het.set_rates(arrays[f"psr_rates_{i}"])
        part.bump_model()
    return meta["iteration"], meta["radius"], meta["logl"]
