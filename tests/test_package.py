import sepselect


def test_public_names_are_sorted_unique_and_importable():
    names = sepselect.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(sepselect, name), name
    # a stale __all__ entry passes `import sepselect` and breaks only this
    namespace = {}
    exec("from sepselect import *", namespace)
    assert set(names) <= set(namespace)
