"""``rng._PureSubstream`` draws ``substream``'s doubles in Python, then
hands its PCG64 state over to numpy; every double must equal numpy's."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pairlab.rng as rng
from pairlab.rng import _PureSubstream, substream

KEYS = [(0,), (7, 0, 0), (2**70, 1, 2**33), (123,)]


def _mixed(stream) -> list[float]:
    """Scalar and block draws, interleaved, as one list of doubles."""
    out = [stream.random()]
    out += stream.random(5).tolist()
    out.append(stream.random())
    out += stream.random(300).tolist()
    out += stream.random(1).tolist()
    out.append(stream.random())
    return out


@pytest.fixture
def python_draws(monkeypatch):
    """This process's streams draw in Python although numpy is loaded, with
    the whole allowance of doubles left."""
    monkeypatch.setattr(rng, "numpy_loaded", lambda: False)
    monkeypatch.setattr(rng, "_pure_drawn", 0)


# Generator methods the stream lacks, which it hands over to numpy for
HANDED_OVER = [
    lambda stream: stream.choice(600, 300, replace=False).tolist(),
    lambda stream: stream.permutation(50).tolist(),
]


@pytest.mark.usefixtures("python_draws")
@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_python_draws_equal_substream(key):
    for then in [lambda stream: [], *HANDED_OVER]:
        before = rng._pure_drawn
        stream = _PureSubstream(*key)
        drawn = _mixed(stream)
        assert stream._numpy is None  # none of them went through numpy
        assert rng._pure_drawn - before == len(drawn)
        reference = substream(*key)
        assert drawn == _mixed(reference)
        # then numpy's method from the stream's state, and doubles after it
        assert then(stream) + _mixed(stream) == then(reference) + _mixed(reference)
        # and the stream's state is the generator's after the same draws
        assert stream.bit_generator.state == reference.bit_generator.state


@pytest.mark.usefixtures("python_draws")
def test_a_block_hands_over_in_its_middle(monkeypatch):
    monkeypatch.setattr(rng, "_PURE_DRAWS", 10)
    stream = _PureSubstream(2**70, 1, 2**33)
    drawn = stream.random(4).tolist() + [stream.random()]
    assert stream._numpy is None
    block = stream.random(8)  # 5 in Python, then 3 through numpy
    assert stream._numpy is not None and rng._pure_drawn == 10
    assert type(block).__name__ == "array" and len(block) == 8
    drawn += block.tolist() + stream.random(3).tolist() + [stream.random()]
    reference = substream(2**70, 1, 2**33)
    assert drawn == reference.random(17).tolist()
    assert stream._numpy.bit_generator.state == reference.bit_generator.state
    # the allowance is the process's: a later stream draws through numpy
    # from its first double
    later = _PureSubstream(7, 0, 0)
    assert later.random(4).tolist() == substream(7, 0, 0).random(4).tolist()
    assert later._numpy is not None and rng._pure_drawn == 10


def test_stream_made_with_numpy_loaded_is_numpys(monkeypatch):
    monkeypatch.setattr(rng, "_pure_drawn", 0)
    stream = _PureSubstream(123)
    assert stream._numpy is not None
    assert [stream.random()] + stream.random(6).tolist() == (
        substream(123).random(7).tolist())
    assert rng._pure_drawn == 0


@pytest.mark.usefixtures("python_draws")
def test_stream_hands_over_once_numpy_is_loaded(monkeypatch):
    stream = _PureSubstream(123)
    drawn = stream.random(3).tolist()
    monkeypatch.setattr(rng, "numpy_loaded", lambda: True)
    drawn += [stream.random()] + stream.random(6).tolist()
    assert stream._numpy is not None and rng._pure_drawn == 3
    assert drawn == substream(123).random(10).tolist()


@pytest.mark.usefixtures("python_draws")
@pytest.mark.parametrize("key, error", [((-1,), ValueError), ((1, 2.5), TypeError)],
                         ids=["negative", "float"])
def test_keys_are_refused_as_numpy_refuses_them(key, error):
    with pytest.raises(error):
        _PureSubstream(*key)
    with pytest.raises(error):
        substream(*key)


def test_python_draws_in_a_fresh_interpreter():
    # numpy is not loaded there until the draws are made
    script = textwrap.dedent("""
        import json, sys
        from pairlab.rng import _PureSubstream
        keys = [tuple(key) for key in json.loads(sys.argv[1])]
        draws = []
        for key in keys:
            stream = _PureSubstream(*key)
            draws.append([stream.random()] + stream.random(5).tolist()
                         + [stream.random()] + stream.random(300).tolist()
                         + stream.random(1).tolist() + [stream.random()])
        print(json.dumps({"numpy": "numpy" in sys.modules, "draws": draws}))
    """)
    src = str(Path(rng.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(KEYS)],
                          check=True, env=env, capture_output=True, text=True,
                          timeout=120)
    result = json.loads(done.stdout)
    assert result["numpy"] is False
    assert result["draws"] == [_mixed(substream(*key)) for key in KEYS]
