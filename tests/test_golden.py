import hashlib
import json
import time

import pytest

import golden
from golden import Pin
from repgrowth.growth import sl2_over_primes_spec, with_flag

PINS = {pin.name: pin for pin in golden.PINS}


@pytest.mark.parametrize("name", [pin.name for pin in golden.PINS if not pin.ci_only])
def test_cli_prints_the_pinned_bytes(name):
    assert golden.failure(PINS[name]) is None


def test_the_graded_zeta_pin_reads_what_construct_fixed_prints():
    assert hashlib.sha256((golden.A2_TOWER + "\n").encode()).hexdigest() == PINS["fixed-a2"].sha256


def test_the_diagonal_zeta_pin_reads_what_construct_diagonal_prints():
    code, out, _ = golden.run(("construct", "diagonal", "--rho", "2", "--stages", "2", "--p", "5"))
    assert code == 0 and json.loads(out)["spec"] == json.loads(golden.DIAGONAL_2)


@pytest.mark.parametrize("d, e, view", [(3, 3, "cover"), (3, 3, "simple"), (4, 6, "cover")])
def test_the_prime_family_pins_read_sl2_over_primes_spec(d, e, view):
    spec = with_flag(sl2_over_primes_spec(d), view == "simple")
    assert json.loads(golden.PRIMES % (5, e, view)) == spec.to_jsonable()


@pytest.mark.parametrize("pin, cpu_seconds, message", [
    (PINS["fixed-a2"]._replace(sha256="0" * 64), 30, f"fixed-a2: sha256 {PINS['fixed-a2'].sha256}, pinned {'0' * 64}"),
    (Pin("psl2-q6", ("zeta", "--group", "PSL2", "--q", "6", "--N", "8"), ""), 30,
     "psl2-q6: exit 3: error: q = 6 is not a prime power"),
    (Pin("diagonal-30", (*golden.DIAGONAL, "2", "--p", "5", "--stages", "30"), ""), 1,
     "diagonal-30: killed by SIGXCPU"),
], ids=["wrong-digest", "nonzero-exit", "cpu-cap"])
def test_a_failing_pin_is_named_with_what_went_wrong(monkeypatch, pin, cpu_seconds, message):
    monkeypatch.setattr(golden, "CPU_SECONDS", cpu_seconds)
    start = time.monotonic()
    assert golden.failure(pin) == message
    assert time.monotonic() - start < 10
