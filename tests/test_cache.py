from dataclasses import replace

from wavedecay.cache import EigenCache
from wavedecay.radialop import PotentialSpec, RadialGrid, build_G


def test_stand_in_returns_the_memo_and_touches_no_disk(tmp_path):
    op = replace(build_G(RadialGrid(4.0, 39), 4, PotentialSpec(1.0, 3.0)))
    root = tmp_path / "c"
    assert EigenCache(root).eigensystem(op) is op.eigensystem()
    assert not root.exists()
