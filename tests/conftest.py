import pytest

from oracles import openblas_thread_calls


@pytest.fixture
def openblas():
    """(get, set) OpenBLAS thread-count calls, with the count set to 2 for the
    test and put back afterwards. Skips without an OpenBLAS that can run two
    threads."""
    calls = openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy does not ship OpenBLAS")
    get, set_ = calls
    before = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS cannot run two threads here")
        yield get, set_
    finally:
        set_(before)
