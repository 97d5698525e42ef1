import hashlib
import shutil

import numpy as np
import pytest

from sphfit.designs import (DesignNotFoundError, available_degrees,
                            design_path, load_design)
from sphfit.legendre import verify_design

# degree -> node count for the bundled symmetric designs
EXPECTED_COUNTS = {1: 2, 5: 12, 9: 48, 13: 94, 17: 156, 21: 234,
                   25: 328, 29: 438, 33: 564, 39: 782, 45: 1038,
                   51: 1328, 57: 1656}


class TestRegistry:
    def test_all_odd_degrees_bundled(self):
        assert available_degrees() == list(range(1, 58, 2))

    @pytest.mark.parametrize("t,n", sorted(EXPECTED_COUNTS.items()))
    def test_node_counts(self, t, n):
        assert len(load_design(t)) == n

    def test_degree_metadata_attached(self):
        ps = load_design(13)
        assert ps.design_degree == 13
        assert "t013" in ps.label

    def test_missing_degree_raises_helpfully(self):
        with pytest.raises(DesignNotFoundError, match="1..57"):
            design_path(59)

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            load_design(12)

    def test_directory_override(self, tmp_path):
        shutil.copy(design_path(5), tmp_path)
        ps = load_design(5, directory=tmp_path)
        assert len(ps) == 12
        with pytest.raises(DesignNotFoundError):
            load_design(7, directory=tmp_path)

    @pytest.mark.parametrize("directory", ["", "  "])
    def test_blank_directory_refused(self, directory, monkeypatch):
        # run inside the bundled directory, where reading an empty path as the
        # current directory would find the degree-5 design
        monkeypatch.chdir(design_path(5).parent)
        for call in (lambda: available_degrees(directory), lambda: design_path(5, directory),
                     lambda: load_design(5, directory)):
            with pytest.raises(ValueError, match="directory"):
                call()

    def test_error_subclasses_file_not_found(self):
        assert issubclass(DesignNotFoundError, FileNotFoundError)


class TestIntegrity:
    def test_manifest_hashes_match_files(self):
        directory = design_path(1).parent
        manifest = directory / "MANIFEST.sha256"
        entries = {}
        for line in manifest.read_text().splitlines():
            digest, name = line.split()
            entries[name] = digest
        files = sorted(p.name for p in directory.glob("t*_n*.txt"))
        assert sorted(entries) == files
        for name, digest in entries.items():
            actual = hashlib.sha256((directory / name).read_bytes()).hexdigest()
            assert actual == digest, f"{name} does not match its manifest hash"

    def test_points_are_antipodally_symmetric(self):
        for t in (5, 21, 57):
            xyz = load_design(t).xyz
            flipped = -xyz
            # every point's antipode is present (designs are symmetric)
            d = np.abs(flipped[:, None, :] - xyz[None, :, :]).sum(axis=2).min(axis=1)
            assert d.max() < 1e-12

    @pytest.mark.parametrize("t", [1, 5, 9, 13])
    def test_small_designs_verify_to_degree(self, t):
        assert verify_design(load_design(t), t_max=t).max_verified_degree == t

    @pytest.mark.parametrize("t", available_degrees())
    def test_every_design_verifies_to_exactly_its_degree(self, t):
        # symmetric designs integrate every odd degree, so the sweep through
        # t + 2 stops at the even degree t + 1
        report = verify_design(load_design(t), t_max=t + 2)
        assert report.max_verified_degree == t
