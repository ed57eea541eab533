"""The package's public names: the export list stays whole and unique."""

import impshap


def test_every_exported_name_resolves():
    missing = [name for name in impshap.__all__ if not hasattr(impshap, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(impshap.__all__)) == len(impshap.__all__)


def test_star_import():
    namespace = {}
    exec("from impshap import *", namespace)
    assert set(impshap.__all__) <= set(namespace)
