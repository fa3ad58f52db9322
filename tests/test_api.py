import planecharge


def test_public_names_resolve():
    missing = [name for name in planecharge.__all__ if not hasattr(planecharge, name)]
    assert not missing
    namespace = {}
    exec("from planecharge import *", namespace)
    assert set(planecharge.__all__) <= set(namespace)
    # charge is counted in plain int twelfths; there is no wrapper type
    assert not hasattr(planecharge, "Charge")
