import pytest
import scipy.sparse as sp


@pytest.fixture
def forbid_full_toarray(monkeypatch):
    """Call with a dimension: from then on, densifying a dim x dim scipy
    sparse array (coo, csr or csc) raises AssertionError."""

    def install(dim):
        for cls in (sp.coo_array, sp.csr_array, sp.csc_array):
            def guarded(self, *args, _original=cls.toarray, **kwargs):
                if self.shape == (dim, dim):
                    raise AssertionError(f"densified a full {dim} x {dim} sparse matrix")
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "toarray", guarded)

    return install
