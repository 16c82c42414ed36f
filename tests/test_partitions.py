"""Partition-scheme tests, including the RAxML partition-file parser."""

import numpy as np
import pytest

from repro.errors import AlignmentError
from repro.seq.partitions import (
    Partition,
    PartitionScheme,
    parse_partition_file,
)


class TestPartition:
    def test_basic(self):
        p = Partition("g1", np.arange(10))
        assert p.n_sites == 10

    def test_empty_rejected(self):
        with pytest.raises(AlignmentError):
            Partition("g1", np.array([], dtype=int))

    def test_negative_rejected(self):
        with pytest.raises(AlignmentError):
            Partition("g1", np.array([-1, 0]))

    def test_duplicate_sites_rejected(self):
        with pytest.raises(AlignmentError):
            Partition("g1", np.array([1, 1]))

    @pytest.mark.parametrize("sites", [[4, 0, 2, 0], [7, 3, 5, 9, 3]])
    def test_repeated_site_names_the_partition(self, sites):
        """A repeat anywhere in an unsorted list, not only next to itself."""
        with pytest.raises(AlignmentError, match="partition 'g1' repeats sites"):
            Partition("g1", np.array(sites))

    @pytest.mark.parametrize("sites", [[0], [5, 1, 3], [2, 0, 1, 4]])
    def test_distinct_unsorted_sites_accepted(self, sites):
        assert list(Partition("g1", np.array(sites)).sites) == sites

    def test_file_ranges_repeating_a_site(self):
        with pytest.raises(AlignmentError, match="partition 'g' repeats sites"):
            parse_partition_file("DNA, g = 1-5, 5-8\n")


class TestPartitionScheme:
    def test_single(self):
        s = PartitionScheme.single(100)
        assert len(s) == 1
        assert s.n_sites == 100

    def test_contiguous_blocks(self):
        s = PartitionScheme.contiguous_blocks([3, 4, 5])
        assert [p.n_sites for p in s] == [3, 4, 5]
        assert s[1].sites[0] == 3

    def test_overlap_rejected(self):
        with pytest.raises(AlignmentError, match="overlap"):
            PartitionScheme(
                [Partition("a", np.arange(5)), Partition("b", np.arange(4, 8))]
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(AlignmentError):
            PartitionScheme(
                [Partition("a", np.arange(3)), Partition("a", np.arange(3, 6))]
            )

    def test_validate_cover_full(self):
        PartitionScheme.contiguous_blocks([5, 5]).validate_cover(10)

    def test_validate_cover_partial_rejected(self):
        with pytest.raises(AlignmentError, match="cover"):
            PartitionScheme.contiguous_blocks([5]).validate_cover(10)

    def test_validate_cover_overflow_rejected(self):
        with pytest.raises(AlignmentError, match="exceed"):
            PartitionScheme.contiguous_blocks([5]).validate_cover(3)


class TestPartitionFileParser:
    def test_basic_file(self):
        scheme = parse_partition_file(
            "DNA, gene1 = 1-1000\nDNA, gene2 = 1001-2000\n"
        )
        assert len(scheme) == 2
        assert scheme[0].name == "gene1"
        assert scheme[0].sites[0] == 0
        assert scheme[0].sites[-1] == 999

    def test_codon_stride(self):
        scheme = parse_partition_file("DNA, pos3 = 3-12\\3\n")
        assert list(scheme[0].sites) == [2, 5, 8, 11]

    def test_comma_separated_ranges(self):
        scheme = parse_partition_file("DNA, g = 1-3, 7-9\n")
        assert list(scheme[0].sites) == [0, 1, 2, 6, 7, 8]

    def test_single_site(self):
        scheme = parse_partition_file("DNA, g = 5\n")
        assert list(scheme[0].sites) == [4]

    def test_comments_and_blanks_ignored(self):
        scheme = parse_partition_file("# header\n\nDNA, g = 1-4  # trailing\n")
        assert scheme[0].n_sites == 4

    def test_malformed_line(self):
        with pytest.raises(AlignmentError, match="malformed"):
            parse_partition_file("DNA gene1 1-1000\n")

    def test_reversed_range(self):
        with pytest.raises(AlignmentError):
            parse_partition_file("DNA, g = 10-5\n")

    def test_bad_stride(self):
        with pytest.raises(AlignmentError):
            parse_partition_file("DNA, g = 1-10\\x\n")

    def test_model_tag_preserved(self):
        scheme = parse_partition_file("GTR+G, g = 1-4\n")
        assert scheme[0].model == "GTR+G"


class TestPartitionFileWriter:
    def test_round_trip_contiguous(self):
        from repro.seq.partitions import format_partition_file

        scheme = PartitionScheme.contiguous_blocks([10, 20, 5])
        text = format_partition_file(scheme)
        again = parse_partition_file(text)
        assert len(again) == 3
        for a, b in zip(scheme, again):
            assert a.name == b.name
            assert list(a.sites) == list(b.sites)

    def test_round_trip_strided(self):
        from repro.seq.partitions import format_partition_file

        scheme = parse_partition_file("DNA, pos3 = 3-12\\3\nDNA, rest = 1-2\n")
        again = parse_partition_file(format_partition_file(scheme))
        assert list(again[0].sites) == list(scheme[0].sites)
        assert list(again[1].sites) == list(scheme[1].sites)

    def test_write_and_read_disk(self, tmp_path):
        from repro.seq.partitions import (
            read_partition_file,
            write_partition_file,
        )

        scheme = PartitionScheme.contiguous_blocks([7, 3], model="GTR+G")
        path = tmp_path / "parts.txt"
        write_partition_file(scheme, path)
        again = read_partition_file(path)
        assert again[0].model == "GTR+G"
        assert again.n_sites == 10

    def test_single_site_chunks(self):
        from repro.seq.partitions import format_partition_file
        import numpy as np

        scheme = PartitionScheme(
            [Partition("scatter", np.array([0, 2, 4]))]
        )
        text = format_partition_file(scheme)
        assert "1, 3, 5" in text
        again = parse_partition_file(text)
        assert list(again[0].sites) == [0, 2, 4]
