import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process, running or exited."""
    yield
    if not hasattr(os, "WNOHANG"):  # no waitpid(-1, ...) to ask with
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process ({pid or 'still running'})")
