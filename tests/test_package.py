"""The package's public names."""

import freedist


def test_every_exported_name_resolves():
    missing = [name for name in freedist.__all__
               if not hasattr(freedist, name)]
    assert missing == []
    assert len(set(freedist.__all__)) == len(freedist.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from freedist import *", namespace)
    assert set(freedist.__all__) <= set(namespace)
