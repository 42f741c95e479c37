"""Collection hooks shared by the test suite."""


def pytest_collection_modifyitems(config, items):
    """Run ``mutation`` tests only when ``-m`` selects them.

    Each one applies a mutant to a copy of the tree and runs a test in
    a fresh interpreter, which is too slow for every tier-1 run.
    """
    if "mutation" in (config.getoption("markexpr") or ""):
        return
    deselected = [item for item in items if item.get_closest_marker("mutation")]
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = [item for item in items if not item.get_closest_marker("mutation")]
