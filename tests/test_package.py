"""The package's public surface: ``rank1nash.__all__``."""

from __future__ import annotations

import rank1nash


def test_every_exported_name_resolves_once():
    names = rank1nash.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rank1nash, n)] == []


def test_star_import_binds_every_exported_name():
    ns: dict = {}
    exec("from rank1nash import *", ns)
    assert set(rank1nash.__all__) <= ns.keys()
