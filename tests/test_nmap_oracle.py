"""The (N, p) fold against the letter-by-letter oracle `nmap_oracle`."""

import json
import random

import pytest

import nmap_oracle
from purebraid.braid import BraidWord
from purebraid.coxeter import named_system, system_from_json
from purebraid.nmap import cocycle, equal_mod_derived, eval_N

# I2(5) and H3 compute over Z[2cos(pi/5)]; Atilde2 and the triangle with the
# infinite bond m(s2, s3) are infinite
SYSTEMS = {name: named_system(name)
           for name in ("A3", "B3", "H3", "I2(5)", "F4", "E6", "Atilde2")}
SYSTEMS["7-3-inf"] = system_from_json(json.dumps(
    {"rank": 3, "m": [[1, 7, 3], [7, 1, None], [3, None, 1]]}))


def _braids(system, rng, count=30, max_len=10):
    yield BraidWord(system)
    for _ in range(count):
        yield BraidWord(system, [(rng.randrange(system.rank), rng.choice((1, -1)))
                                 for _ in range(rng.randrange(1, max_len + 1))])


@pytest.mark.parametrize("name", SYSTEMS)
def test_eval_N_and_cocycle_match_the_oracle(name):
    system, rng = SYSTEMS[name], random.Random(14)
    for b in _braids(system, rng):
        assert eval_N(b) == nmap_oracle.eval_N(b)
        b2 = b * BraidWord(system, [(rng.randrange(system.rank), 1)])
        for other in (b2, b2 * b2.inv() * b, b.inv().inv()):
            assert equal_mod_derived(b, other) == \
                (nmap_oracle.eval_Np(b) == nmap_oracle.eval_Np(other))
    for _ in range(10):
        v, w = (system.normal_form([rng.randrange(system.rank)
                                    for _ in range(rng.randrange(6))]) for _ in "vw")
        assert cocycle(v, w) == nmap_oracle.cocycle(v, w)
    assert cocycle(system.identity, system.identity).is_zero()
