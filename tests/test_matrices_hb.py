import numpy as np
import pytest

from repro.matrices.hb import (
    parse_fortran_format,
    read_harwell_boeing,
    write_harwell_boeing,
)
from repro.matrices.spd import random_spd_sparse


class TestFortranFormat:
    def test_integer(self):
        assert parse_fortran_format("(16I5)") == (16, 5, "I")

    def test_real_e(self):
        assert parse_fortran_format("(3E26.18)") == (3, 26, "E")

    def test_scale_prefix(self):
        assert parse_fortran_format("(1P,3E25.16E3)") == (3, 25, "E")

    def test_d_descriptor(self):
        assert parse_fortran_format("(4D20.12)") == (4, 20, "D")

    def test_no_repeat(self):
        assert parse_fortran_format("(I8)") == (1, 8, "I")

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_fortran_format("(A40)")


class TestRoundTrip:
    def test_spd_roundtrip(self, tmp_path):
        A = random_spd_sparse(30, density=0.12, seed=0)
        path = tmp_path / "m.rsa"
        write_harwell_boeing(path, A)
        B = read_harwell_boeing(path)
        assert abs(A - B).max() < 1e-12

    def test_diag_only(self, tmp_path):
        from scipy import sparse

        A = sparse.diags([1.0, 2.0, 3.0]).tocsc()
        path = tmp_path / "d.rsa"
        write_harwell_boeing(path, A)
        B = read_harwell_boeing(path)
        assert np.allclose(B.toarray(), A.toarray())

    def test_title_preserved_in_header(self, tmp_path):
        A = random_spd_sparse(10, density=0.2, seed=1)
        path = tmp_path / "t.rsa"
        write_harwell_boeing(path, A, title="my matrix", key="KEY1")
        first = path.read_text().splitlines()[0]
        assert first.startswith("my matrix")
        assert first.rstrip().endswith("KEY1")


class TestReader:
    def test_pattern_symmetric(self, tmp_path):
        """A hand-written PSA file: values default to 1.0."""
        content = (
            f"{'pattern test':<72s}{'PTEST':<8s}\n"
            f"{2:14d}{1:14d}{1:14d}{0:14d}{0:14d}\n"
            f"{'PSA':<14s}{3:14d}{3:14d}{4:14d}{0:14d}\n"
            f"{'(4I5)':<16s}{'(4I5)':<16s}{'':<20s}{'':<20s}\n"
            "    1    3    4    5\n"
            "    1    3    2    3\n"
        )
        path = tmp_path / "p.psa"
        path.write_text(content)
        M = read_harwell_boeing(path)
        assert M[0, 0] == 1.0
        assert M[2, 0] == 1.0 and M[0, 2] == 1.0  # symmetric expansion
        assert M[1, 1] == 1.0 and M[2, 2] == 1.0

    def test_rejects_short_file(self, tmp_path):
        path = tmp_path / "x.rsa"
        path.write_text("too\nshort\n")
        with pytest.raises(ValueError):
            read_harwell_boeing(path)

    def test_rejects_complex(self, tmp_path):
        content = (
            f"{'c':<80s}\n"
            f"{1:14d}{1:14d}{0:14d}{0:14d}{0:14d}\n"
            f"{'CSA':<14s}{1:14d}{1:14d}{1:14d}{0:14d}\n"
            f"{'(1I5)':<16s}{'(1I5)':<16s}{'':<20s}{'':<20s}\n"
            "    1    1\n"
        )
        path = tmp_path / "c.csa"
        path.write_text(content)
        with pytest.raises(ValueError):
            read_harwell_boeing(path)


class TestScipyHasNoSymmetricReader:
    def test_scipy_hb_read_refuses_rsa(self, tmp_path):
        """Why this module exists: the paper's BCSSTK matrices ship as RSA
        (real symmetric assembled) files, and scipy.io.hb_read reads
        unsymmetric files only. If this test fails because scipy now reads
        the file, read_harwell_boeing can be deleted in favour of it."""
        from scipy import io as sio

        A = random_spd_sparse(20, density=0.2, seed=3)
        path = tmp_path / "s.rsa"
        write_harwell_boeing(path, A)
        with pytest.raises(ValueError):
            sio.hb_read(str(path))
        B = read_harwell_boeing(path)
        assert B.nnz == A.nnz  # both triangles, not the stored lower one
        assert abs(B - B.T).max() == 0
        assert abs(A - B).max() < 1e-12
