import privfilter


def test_public_names_resolve_once():
    names = privfilter.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(privfilter, name)]
    assert not missing
