import qga


def test_every_public_name_resolves():
    assert len(set(qga.__all__)) == len(qga.__all__)
    assert [name for name in qga.__all__ if not hasattr(qga, name)] == []
    namespace = {}
    exec("from qga import *", namespace)
    assert set(qga.__all__) <= namespace.keys()
