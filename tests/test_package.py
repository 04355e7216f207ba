"""The package namespace: every exported name resolves."""

import grpd


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from grpd import *", namespace)
    for name in grpd.__all__:
        assert namespace[name] is getattr(grpd, name)
