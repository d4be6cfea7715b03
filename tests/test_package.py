import chaosdet


def test_every_exported_name_resolves():
    missing = [name for name in chaosdet.__all__ if not hasattr(chaosdet, name)]
    assert not missing
    namespace: dict = {}
    exec("from chaosdet import *", namespace)
    assert set(chaosdet.__all__) <= set(namespace)
