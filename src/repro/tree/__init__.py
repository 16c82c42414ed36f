"""Tree substrate: unrooted binary topologies, Newick I/O, random
starting trees, NNI/SPR rearrangements and tree distances."""

from repro.tree.topology import Node, Tree
from repro.tree.newick import parse_newick, write_newick

__all__ = [
    "Node",
    "Tree",
    "parse_newick",
    "write_newick",
]
