"""The CLI's byte pins, and the one capped runner that checks them.  Tier-1
runs the pins that are not ci_only; `python tests/golden.py` runs them all,
prints one line per pin (its CPU time, and the digest a failing pin got) and
exits 1 if any fails.  Above each pin, a comment gives the commit that first
pinned its digest."""
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
from typing import NamedTuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CPU_SECONDS = 30


class Pin(NamedTuple):
    """`python -m repgrowth *argv` prints stdout of this sha256 and exits 0 within mib MiB."""
    name: str
    argv: tuple
    sha256: str
    mib: int = 1024
    ci_only: bool = False  # about 0.5 s of CPU or more: only `python tests/golden.py` runs it


def run(argv, mib=1024):
    """Exit code, stdout bytes and stderr text of `python -S -m repgrowth argv`
    in a child capped at CPU_SECONDS of CPU (then SIGXCPU) and mib MiB of address
    space.  -S: the CLI needs nothing from site-packages, and skips its start-up."""
    def cap():
        # SIGXCPU at the soft limit; at a hard limit equal to it, SIGKILL would come first
        resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS + 1))
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))  # SIGXCPU would dump core

    proc = subprocess.run([sys.executable, "-S", "-m", "repgrowth", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=cap)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def failure(pin):
    """None if pin's command exits 0 with the pinned stdout, else one line
    that names the pin and says what went wrong."""
    code, out, err = run(pin.argv, pin.mib)
    if code < 0:
        return f"{pin.name}: killed by {signal.Signals(-code).name}"
    if code:
        return f"{pin.name}: exit {code}: {(err.splitlines() or [''])[-1]}"
    got = hashlib.sha256(out).hexdigest()
    return None if got == pin.sha256 else f"{pin.name}: sha256 {got}, pinned {pin.sha256}"


PRIMES = '{"strata": [{"index": "primes", "p_min": %s, "rate_exponent": %s, "pairs": [[1, 1]], "flag": "%s"}]}'
FACTORS = ('{"strata": [{"index": "finite", "factors": [{"lie_type": {"family": "A", "rank": 1}, "q": 10007},'
           ' {"lie_type": {"family": "A", "rank": 1}, "q": 10009, "multiplicity": 3}]}]}')
# the stdout of `construct fixed --rho 2 --p 5 --rank 2`, less its last "\n"
A2_TOWER = json.dumps(
    {"strata": [{"flag": "simple", "index": "geometric", "lie_type": {"family": "A", "rank": 2, "twisted": False},
                 "q": 5, "schedule": {"j0": 1, "kind": "schedule", "m0": 2, "n0": 3, "rho": "2", "rho0": "2/3"}}]},
    indent=2, sort_keys=True)
# the "spec" of the stdout of `construct diagonal --rho 2 --stages 2 --p 5`
DIAGONAL_2 = json.dumps(
    {"strata": [{"index": "diagonal", "rho": "2", "stages": [
        {"n_m": "125", "rho_m": "1", "stratum": {
            "flag": "simple", "index": "geometric", "lie_type": {"family": "A", "rank": 2, "twisted": False}, "q": 5,
            "schedule": {"j0": 3, "kind": "schedule", "m0": 2, "n0": 3, "rho": "1", "rho0": "2/3"}}},
        {"n_m": "1953125", "rho_m": "3/2", "stratum": {
            "flag": "simple", "index": "geometric", "lie_type": {"family": "A", "rank": 3, "twisted": False}, "q": 5,
            "schedule": {"j0": 1, "kind": "schedule", "m0": 3, "n0": 6, "rho": "3/2", "rho0": "1/2"}, "skip": 1}}]}]},
    indent=2, sort_keys=True)
A1_TOWER = ('{"strata": [{"index": "geometric", "q": 5, "lie_type": {"family": "A", "rank": 1}, "flag": "simple",'
            ' "schedule": {"kind": "poly", "coeffs": [0, 2]}}]}')
DIAGONAL = ("construct", "diagonal", "--rho")
ABSCISSA = ("abscissa", "--example", "sl2-primes", "--empirical")
ZETA = ("zeta", "--format", "csv", "--N")
GENS = ("gens", "--group")
# the address space of the four 10^6 table pins: truncated_zeta peaks near 135 MB there, and a run
# that holds its table or slope columns beside the series, 222-338 MB at 0ee3c55, runs out of memory
STREAMED_MIB = 192


# stages A2..A11 at rho_m = 2 - 1/m over 5 and 7 in turn
TWO_PRIMES = tuple((f"{2 * m - 1}/{m}", "A", m + 1, 7 if m % 2 == 0 else 5) for m in range(1, 11))


def targets(*stages):
    """A --targets-json list of (rho_m, family, rank, p) stages."""
    return json.dumps([{"rho_m": r, "lie_type": {"family": f, "rank": k}, "p": p} for r, f, k, p in stages])


PINS = [
    # the A2 tower that the graded zeta pin below reads as its spec (44b967d)
    Pin("fixed-a2", ("construct", "fixed", "--rho", "2", "--p", "5", "--rank", "2"),
        "b713020546c61b818d377d9e66d595a4d5bd1fcf7c581018cc6ff6f6f5423825"),
    # the default stages at rho 2 over 5 (f22cc2f); least passing cap 20 MiB at 9bb0479
    Pin("diagonal-10", (*DIAGONAL, "2", "--stages", "10", "--p", "5"),
        "e8682996cdd0d6ee2ea0e438086cc83ce0f17e8a07ebbe58d72d9cb77bef653f", mib=32),
    # family B stages at rho 3 (f22cc2f); least passing cap 20 MiB at 9bb0479
    Pin("diagonal-b", (*DIAGONAL, "3", "--stages", "3", "--p", "5", "--family", "B"),
        "def66999b00596bdcca41e85e7db82316b8ec1ff2b31ba3975bf371d9a8bba1c", mib=32),
    # pinned before exact graded products could take the recurrence (255e70b);
    # least passing cap 24 MiB at 9bb0479
    Pin("diagonal-12", (*DIAGONAL, "2", "--stages", "12", "--p", "5"),
        "e6e5cef8919b2d4161c1a1711234446642328d0e0eeef9d75c671eefcbc0117a", mib=40),
    # its stage series run past 5^1000 by their recurrences (411f28f); least passing cap 24 MiB at 9bb0479
    Pin("diagonal-13", (*DIAGONAL, "2", "--stages", "13", "--p", "5"),
        "81306d122a916cd036d594d56a0d8a73175f130b4598e210a67fea7633c1dec0", mib=40, ci_only=True),
    # each union extends its memoized product past its old cutoff (ee9cfed);
    # least passing cap 36 MiB at 9bb0479
    Pin("diagonal-16", (*DIAGONAL, "2", "--stages", "16", "--p", "5"),
        "27b0b567cad65c6cb577824c012c2ca8c7041a6cfbb5dbaee450701e466ff5c9", mib=56, ci_only=True),
    # the benchmark's slowest case, (3, 7, 5), at nearly twice its stages (baef8c0);
    # least passing cap 28 MiB at 9bb0479
    Pin("diagonal-rho3-13", (*DIAGONAL, "3", "--stages", "13", "--p", "5"),
        "c8187d866133758c5b7ff828e9a6a208bed3cd4920d8a609e97afcf17e580a1a", mib=48, ci_only=True),
    # a --targets-json list over p = 7 with a C3 stage (f22cc2f); least passing cap 20 MiB at 9bb0479
    Pin("diagonal-p7", (*DIAGONAL, "5/2", "--targets-json",
                        targets(("3/2", "A", 2, 7), ("2", "C", 3, 7), ("9/4", "A", 5, 7))),
        "32494ccfdefc06bd032488fd66f942029be04d6b08bfac9678700e92b84ad944", mib=32),
    # stages graded by 5 and by 7 in turn, whose unions are keyed by dimensions (52b6e35); its least
    # passing cap was 59 MiB at 8b06830 and is 41 MiB since convolve has a kernel of its own
    Pin("diagonal-two-primes", (*DIAGONAL, "2", "--targets-json", targets(*TWO_PRIMES[:8])),
        "b89bfc46dacc7e55fc3c852c5cb0afb8fe50c819e1d96959dcda6ef8665629a9", mib=64, ci_only=True),
    # the same at 10 stages, whose largest union holds 135,756 entries (8b06830); its least passing
    # cap was 245 MiB at 8b06830 and is 150 MiB since convolve has a kernel of its own
    Pin("diagonal-two-primes-10", (*DIAGONAL, "2", "--targets-json", targets(*TWO_PRIMES)),
        "61ead41c602c1b1b0864518d99980e1d82be8c4edf929764cf7b8900b07d0423", mib=232, ci_only=True),
    # an A1 first stage, pinned while the n(m) search read every stage in the simple view (9a4e406);
    # least passing cap 24 MiB at 9bb0479
    Pin("diagonal-a1-first-5", (*DIAGONAL, "4", "--targets-json", targets(("2", "A", 1, 5), ("3", "A", 2, 5))),
        "a1a1f716f2e5cb8426963689bdcf5ad584f4aea71f016df0532b67b8f083fd57", mib=40),
    # the same over 7 (9a4e406); least passing cap 32 MiB at 9bb0479
    Pin("diagonal-a1-first-7", (*DIAGONAL, "3", "--targets-json", targets(("2", "A", 1, 7), ("5/2", "A", 2, 7))),
        "e2f34e91053f49ad46ecda6dd31dd30b81d730b3caa81a77372ff8ecc1082e70", mib=48),
    # onset rejection reads an A1 count in the cover view and a union keyed by dimensions (baef8c0);
    # least passing cap 32 MiB at 9bb0479
    Pin("diagonal-a1-first-onset", (*DIAGONAL, "2", "--targets-json",
                                    targets(("3/2", "A", 1, 5), ("7/4", "A", 2, 5))),
        "7dab037518ec48a825c5fdfac0bf015acfcad1d4ec1b91d5313c3b506f8bb557", mib=48),
    # phi_2, phi_3, |Aut A5| and d(A5^60) = 3, Wiegold's b + 2 at b = 1 (748b977);
    # least passing cap 20 MiB at 748b977
    Pin("gens-a5", (*GENS, "A5", "--d", "2", "--d", "3", "--min-gens", "60"),
        "d12b0c5b704e3f11707514337702611eb4566a050c1c83b4866c560bb9e0e43c", mib=32),
    # a group that is not simple, so no --min-gens (748b977); least passing cap 20 MiB at 748b977
    Pin("gens-sl2-5", (*GENS, "SL2_5", "--d", "2", "--d", "3"),
        "4644f22ea765e9e203f23f0aca3797bc57163fb68d5a38a1f6c8be9fe9ee366a", mib=32),
    # phi_4 alone, and the least k with d(PSL2(7)^k) = 4 (748b977); least passing cap 20 MiB at 748b977
    Pin("gens-psl2-7", (*GENS, "PSL2_7", "--d", "4", "--min-gens", "13369"),
        "d8f15fdf0f9bee9284908dc0394833bdb01d78fbf96a73b3e9bef60dfa13e41c", mib=32),
    # SL2 over primes, d = 3, pinned while each prime was a checked FactorSpec (6661ec2)
    Pin("zeta-primes-cover", (*ZETA, "100000", "--spec", PRIMES % (5, 3, "cover")),
        "5b79ff91707f0197875c34fdf06f80dca4d84c285221e8a23c310d9be2b16a74"),
    # the same in the simple view (6661ec2)
    Pin("zeta-primes-simple", (*ZETA, "100000", "--spec", PRIMES % (5, 3, "simple")),
        "651bdf11d16f30bb655a9535e12cba9593c2cb47ec7f68a6ccc2a185601b87a6"),
    # the exact per-factor product at 10^6 (300fd26), under a cap that a run
    # holding its whole table as one string exceeds (STREAMED_MIB)
    Pin("zeta-primes-1e6", (*ZETA, "1000000", "--spec", PRIMES % (5, 3, "cover")),
        "630e9c3fa0e200155d314b3b9823365b6bbf20ff059dffb78ad7e8050e5109bf", mib=STREAMED_MIB, ci_only=True),
    # the same series as JSON, 58 MB of text (0ee3c55)
    Pin("zeta-primes-1e6-json", ("zeta", "--format", "json", "--N", "1000000", "--spec", PRIMES % (5, 3, "cover")),
        "601ea80bde6fade657cab50d72b6e00caa9506da5e161cca22171ec2948f1707", mib=STREAMED_MIB, ci_only=True),
    # d = 4: its largest multiplicity has 104 bits, so the counts stay exact (3f218f8)
    Pin("zeta-primes-d4", (*ZETA, "100000", "--spec", PRIMES % (5, 6, "cover")),
        "176cb59474afed1be6ae40a932c3db629a407e6ba8d669774806afa77b355200"),
    # 53 entries below 10^12, where a list of N + 1 slots would need 8 TB (e215a36)
    Pin("zeta-sparse-factors", (*ZETA, "1000000000000", "--spec", FACTORS),
        "71af9d6f848e7457431f7c660fba07414c8d5434cd934a0cb90d1d5aa49c5b80", mib=256),
    # every prime lies in the stratum's tail, which a dense product adds into N + 1 slots (ce5dbf4)
    Pin("zeta-sparse-primes", (*ZETA, "1000000000000", "--spec", PRIMES % (1999999999800, 0, "cover")),
        "e47c4346c9d4dcdd653f20dc52a1de1e4e00f946d2dde02d6aa21afd3510c241", mib=256, ci_only=True),
    # an exact product on the exponents of 5, printed when the graded recurrence took it (2743eb3)
    Pin("zeta-graded", (*ZETA, str(5 ** 60), "--spec", A2_TOWER),
        "6a94fee6fc89ee26023892d5524b6ccaa1ebb7d9a5e2ad135af02e6f99483baf"),
    # a sparse exact product of a PolyExponent tower's 9 factors, 2,116 entries (8bec483)
    Pin("zeta-a1-tower", (*ZETA, "1000000", "--spec", A1_TOWER),
        "3ca836b186bc2c33d6dabebfd536d53e95ff2c6535767450110f1dbc8d795294"),
    # a diagonal stratum read back from JSON, graded by 5, at its horizon 5^9 (8bec483)
    Pin("zeta-diagonal", (*ZETA, str(5 ** 9), "--spec", DIAGONAL_2),
        "f2e8cb154e73e629678d638f6a52bc1934bfb91027127176a40c8f60089140a7"),
    # nine decimals per slope, pinned while the report held one SlopePoint per dimension (7979370)
    Pin("abscissa-d3-csv", (*ABSCISSA, "--d", "3", "--N", "20000", "--format", "csv"),
        "442443dbaedfac66b28384e867a5fca1aaf56fc8278f93c8508ea76e5748a43d"),
    # every bit of each slope, formed from the exact counts (7e5f55f)
    Pin("abscissa-d3-json", (*ABSCISSA, "--d", "3", "--N", "20000", "--format", "json"),
        "9030071b2d088e27e50e9524b0cac0ad2d33716d033567ac11a8f77ecd29303d"),
    # the same at d = 5 (7e5f55f)
    Pin("abscissa-d5-json", (*ABSCISSA, "--d", "5", "--N", "5000", "--format", "json"),
        "73d6e7aae101d8fa554b6d6af1d8ae73b1cc39e4722012925f96633d84adfb65"),
    # 7's multiplicity has 281 bits at d = 40, so these slopes stay on the log path (7e5f55f)
    Pin("abscissa-d40-json", (*ABSCISSA, "--d", "40", "--N", "100", "--format", "json"),
        "6e03db1ddaf80dda6b8abcfe8b3c88612387db2372de9036b564dac65147dccd"),
    # slopes of the exact counts at 10^6, 414 rows off the log path's in the last decimal (7e5f55f),
    # under a cap that a run holding its three columns exceeds
    Pin("abscissa-d3-1e6", (*ABSCISSA, "--N", "1000000", "--format", "csv"),
        "0d1a76da642236ed3e0caecc3ace023a5e3776d0f886bb0d19156715c5868717", mib=STREAMED_MIB, ci_only=True),
    # every bit of each slope at 10^6, 79 MB of JSON (0ee3c55)
    Pin("abscissa-d3-1e6-json", (*ABSCISSA, "--N", "1000000", "--format", "json"),
        "8a87e7d3f0cf5634064f2c976c5e6df69c7542c70f80237032addd7f39eb4644", mib=STREAMED_MIB, ci_only=True),
]


def main():
    failed = 0
    for pin in PINS:
        start = os.times()
        message = failure(pin)
        cpu = sum(os.times()[2:4]) - sum(start[2:4])  # user and system time of the child
        print(f"{'FAIL' if message else 'ok':4} {cpu:6.2f} s  {message or pin.name}", flush=True)
        failed += bool(message)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
