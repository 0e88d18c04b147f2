import minsurf


def test_public_names_resolve_once():
    names = minsurf.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(minsurf, name) is not None, name
