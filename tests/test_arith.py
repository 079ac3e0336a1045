import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spy
from modpcurves import arith
from modpcurves.arith import (_MR_BASES, Factorization, IncompleteFactorization,
                              _small_primes, _strong_lucas_probable_prime,
                              _strong_probable_prime, factor, icbrt, is_prime,
                              legendre_symbol, primes_below, set_bits, tile,
                              valuation)


def test_factor_round_trip_exhaustive_to_one_million():
    bad = [n for n in range(1, 10**6 + 1) if factor(n).value() != n]
    assert bad == []


def test_factor_factors_are_prime_sample(rng):
    for _ in range(2000):
        n = rng.randint(2, 10**9)
        f = factor(n)
        assert f.value() == n
        for p, e in f.factors:
            assert e >= 1 and is_prime(p)


def test_factor_negative_and_units():
    assert factor(-12).sign == -1
    assert factor(-12).value() == -12
    assert factor(1).factors == ()
    assert factor(-1) == Factorization(-1, ())
    with pytest.raises(ValueError):
        factor(0)


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    assert factor(p * q).factors == ((p, 1), (q, 1))


def test_incomplete_factorization_reports_cofactor(monkeypatch):
    # product of two 40-digit-ish primes is far beyond the rho budget
    p = 2**127 - 1
    q = 2**89 - 1
    monkeypatch.setattr(arith, "_RHO_BUDGET", 10**6)
    with pytest.raises(IncompleteFactorization) as exc:
        factor(p * q)
    assert exc.value.cofactor > 1


def test_factor_above_trial_division_against_sympy(rng):
    """Prime powers and products of primes in (10^3, 10^6] and just above
    10^6: trial division takes the factors below 10^4, and rho splits what
    is left above 10^8."""
    sympy = pytest.importorskip("sympy")

    def prime(lo, hi):
        return sympy.nextprime(rng.randint(lo, hi))

    ranges = [(1000, 10**6), (10**6, 10**6 + 10**5)]
    cases = [1009 * 1013, 1009**2, 999983 * 1000003, 999983**2]
    for lo, hi in ranges:
        for _ in range(30):
            p, q = prime(lo, hi), prime(lo, hi)
            cases += [p * p, p**3, p * q, p * p * q,
                      2**rng.randint(0, 5) * 3**rng.randint(0, 3) * p * q]
    for n in cases:
        assert dict(factor(n).factors) == sympy.factorint(n), n


def test_factor_runs_no_rho_on_a_number_with_every_prime_below_10k(monkeypatch, rng):
    """Trial division by the primes below 10^4 leaves nothing for rho when
    every prime factor lies below 10^4, however many lie in (10^3, 10^4)."""
    calls = spy(monkeypatch, arith, "_pollard_rho")
    mid = [p for p in primes_below(10**4) if p > 1000]
    cases = [9973**5, 2**10 * 9973**3 * 9967]
    for _ in range(200):
        p, q, r = (rng.choice(mid) for _ in range(3))
        cases.append(2**rng.randint(0, 12) * 3**rng.randint(0, 6) * p * q * r)
    for n in cases:
        f = factor(n)
        assert f.value() == n and all(p < 10**4 for p in f.support), n
    assert calls == []


def test_factor_at_the_trial_division_bound_against_sympy(rng):
    """Numbers on both sides of 10^4, the last trial divisor 9973, and of
    10^8, below which a part with no prime factor below 10^4 is prime."""
    sympy = pytest.importorskip("sympy")
    above = sympy.nextprime(10**8)
    cases = [9973 * 10007, 10007**2, 10007 * 10009, 9973 * 99991,
             99999989, 2 * 99999989, 2**3 * 3 * 9973 * 99999989, above,
             6 * above, 9973 * above, 10007 * above, 99999989 * above]
    # a 10^4-smooth number with a factor in every run of trial divisors
    smooth = 1
    for first, _, start in arith._RUNS:
        assert first == arith._PRIMES[start]
        smooth *= rng.choice(arith._PRIMES[start:start + arith._RUN]) ** rng.randint(1, 3)
    cases += [smooth, smooth * 10007, smooth * above]
    for n in cases:
        assert dict(factor(n).factors) == sympy.factorint(n), n
    assert len(factor(smooth).factors) == len(arith._RUNS)


def test_factor_splits_large_semiprimes_quickly():
    # rho finds a factor p in about sqrt(p) steps: about 10^3 for each of these
    primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
    cases = [p * q for p, q in zip(primes, primes[1:])]

    def elapsed():
        start = time.perf_counter()
        for n in cases:
            factor(n)
        return time.perf_counter() - start

    assert min(elapsed() for _ in range(3)) < 0.05


def test_is_prime_small_exhaustive():
    sieve = set(primes_below(10**4))
    for n in range(10**4):
        assert is_prime(n) == (n in sieve)


def test_is_prime_known_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


PSI_12 = 318665857834031151167461  # least strong pseudoprime to bases 2..37
PSI_13 = 3317044064679887385961981  # least strong pseudoprime to bases 2..41


def test_is_prime_rejects_psi_12_and_psi_13():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12)
    assert not is_prime(PSI_13)
    assert factor(2 * PSI_12).factors \
        == ((2, 1), (399165290221, 1), (798330580441, 1))


# psi_k, the least strong pseudoprime to each of the first k prime bases
# (OEIS A014233): is_prime runs Miller-Rabin on those k bases below psi_k
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, PSI_12, PSI_13]


def _spsp(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return _strong_probable_prime(n, a, d, s)


@pytest.mark.parametrize("k", range(1, 14))
def test_psi_k_is_a_strong_pseudoprime_that_is_prime_rejects(k):
    psi = PSI[k - 1]
    assert all(_spsp(psi, a) for a in _MR_BASES[:k])
    assert not is_prime(psi)


@pytest.mark.parametrize("k", [k for k in range(1, 14) if k == 1 or PSI[k - 2] < PSI[k - 1]])
def test_is_prime_against_sympy_below_each_psi_k(k):
    """200 seeded n in [psi_{k-1}, psi_k) (from 2 for k = 1), half of them
    primes and half odd and prime to the 13 bases."""
    sympy = pytest.importorskip("sympy")
    lo, hi = (PSI[k - 2] if k > 1 else 2), PSI[k - 1]
    rng = random.Random(k)
    cases = [lo, hi - 1]
    while len(cases) < 200:
        n = rng.randrange(lo, hi)
        if len(cases) % 2:
            n = sympy.prevprime(n) if n > 2 else 2
        elif any(n % p == 0 for p in _MR_BASES):
            continue
        if lo <= n < hi:
            cases.append(n)
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_above_psi_13():
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
    # composite Mersenne numbers 2^q - 1 (q prime) are strong pseudoprimes
    # to base 2, so the Lucas half of BPSW must reject them
    for q in (83, 97):
        n = 2**q - 1
        assert n > PSI_13 and pow(2, (n - 1) // 2, n) == 1
        assert not is_prime(n)


def test_is_prime_rejects_carmichael_numbers():
    # Chernick's (6k+1)(12k+1)(18k+1): the last two lie above psi_12 and psi_13
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in (1, 6265100, 13679106)]
    assert chernick[1] > PSI_12 and chernick[2] > PSI_13
    for n in [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041] + chernick:
        assert not is_prime(n), n
    assert factor(chernick[2]).factors \
        == ((82074637, 1), (164149273, 1), (246223909, 1))


def test_strong_lucas_against_sympy(rng):
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    small = primes_below(43)
    odd = [n for n in range(45, 30000, 2) if all(n % p for p in small)]
    big = [rng.randrange(PSI_13, 10**40) | 1 for _ in range(300)]
    for n in odd + [n for n in big if all(n % p for p in small)]:
        assert _strong_lucas_probable_prime(n) == primetest.is_strong_lucas_prp(n), n
    for n in big:
        assert is_prime(n) == primetest.isprime(n), n
    # Selfridge strong Lucas pseudoprimes: Miller-Rabin still rejects them
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas_probable_prime(n) and not is_prime(n)


def test_primes_below():
    assert primes_below(2) == []
    assert primes_below(20) == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("limit", [10**4, 10**4 + 1, 10**4 + 2, 10**5])
def test_primes_below_matches_the_sieve(limit):
    primes = primes_below(limit)
    assert primes == _small_primes(limit - 1)
    assert primes == [n for n in range(limit) if is_prime(n)]
    # a slice of the table is a copy: changing it leaves the table whole
    primes.clear()
    assert primes_below(limit) == _small_primes(limit - 1)


@given(st.integers(min_value=1, max_value=10**9),
       st.sampled_from([2, 3, 5, 7, 11, 13]))
@settings(max_examples=300, deadline=None)
def test_valuation_definition(n, p):
    v = valuation(n, p)
    assert n % p**v == 0 and n % p**(v + 1) != 0


def test_valuation_of_zero_rejected():
    with pytest.raises(ValueError):
        valuation(0, 2)


@given(st.integers(min_value=-100, max_value=100))
@settings(max_examples=200, deadline=None)
def test_legendre_matches_euler(a):
    for p in (3, 5, 7, 11, 13, 101):
        ls = legendre_symbol(a, p)
        euler = pow(a % p, (p - 1) // 2, p)
        assert ls % p == euler


def test_legendre_multiplicative(rng):
    for _ in range(500):
        p = rng.choice([3, 5, 7, 13, 353, 2063])
        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
        assert (legendre_symbol(a * b, p)
                == legendre_symbol(a, p) * legendre_symbol(b, p))


def _is_floor_cube_root(x, n):
    return x**3 <= n < (x + 1) ** 3


def test_icbrt_exhaustive_near_zero():
    for n in range(-2 * 10**5, 2 * 10**5 + 1):
        assert _is_floor_cube_root(icbrt(n), n), n


def test_icbrt_next_to_large_cubes(rng):
    cs = [2**k for k in range(1, 333)]
    cs += [rng.randint(2, 10**rng.randint(2, 100)) for _ in range(2000)]
    for c in cs:
        for s in (c, -c):
            for n in (s**3 - 1, s**3, s**3 + 1):
                assert _is_floor_cube_root(icbrt(n), n), n
            assert icbrt(s**3) == s


def test_factorization_str():
    assert str(factor(2**3 * 5 * 2063)) == "2^3 * 5 * 2063"
    assert str(factor(353)) == "353"
    assert str(factor(1)) == "1"


def test_factorization_invariants_enforced():
    with pytest.raises(AssertionError):
        Factorization(2, ())
    with pytest.raises(AssertionError):
        Factorization(1, ((3, 1), (2, 1)))
    assert Factorization(-1, ((2, 1), (3, 1))).value() == -6


def _check_tile(pattern, period, nbits):
    mask = tile(pattern, period, nbits)
    # the first min(period, nbits) binary digits of the pattern, lowest
    # first, repeated to nbits digits
    width = min(period, nbits)
    digits = format(pattern, "b")[::-1].ljust(width, "0")[:width]
    want = (digits * -(-nbits // period))[:nbits]
    assert mask & ((1 << nbits) - 1) == int(want[::-1] or "0", 2), \
        (pattern, period, nbits)
    # it stops within one period past nbits
    assert mask >> (nbits + period - 1) == 0, (pattern, period, nbits)


def test_tiled_residue_block_repeats_the_pattern(rng):
    periods = list(range(1, 66)) + [rng.randint(66, 400) for _ in range(15)]
    for period in periods:
        # nbits from 0 to a few periods, in every class mod the period
        counts = {0, 1, period - 1, period, period + 1, 2 * period + 1}
        counts |= {rng.randint(0, 3) * period + r for r in range(period)}
        pattern = rng.getrandbits(period) | 1 << (period - 1)
        for nbits in counts:
            _check_tile(pattern, period, nbits)
    for nbits in (0, 1, 41, 100, 10**6):
        _check_tile(1 << 40 | 5, 10**9 + 7, nbits)


def test_multiples_mask_marks_one_class(rng):
    cases = [(2, 0, 1), (2, 1, 1), (3, 2, 3), (10**9 + 7, 5, 100), (7, 6, 6),
             (10**9 + 7, 0, 10**6)]
    cases += [(p, rng.randrange(p), rng.randint(0, 600))
              for p in (rng.choice((2, 3, 5, 7, 11, 101, 1009)) for _ in range(200))]
    cases += [(p, rng.randrange(p), rng.randint(0, 3 * p))
              for p in list(range(1, 66)) + [rng.randint(66, 400) for _ in range(15)]]
    for p, start, nbits in cases:
        mask = tile(1 << start, p, nbits)
        assert [mask >> i & 1 for i in range(nbits)] \
            == [int(i % p == start) for i in range(nbits)], (p, start, nbits)
        assert mask >> (nbits + p - 1) == 0, (p, start, nbits)


def test_set_bits_matches_the_naive_list(rng):
    values = [0, 1, 2, 255, 256, 2**64 - 1, 2**200]
    for _ in range(300):
        nbits = rng.randint(1, 3000)
        density = rng.choice((0.001, 0.05, 0.5, 0.99))
        values.append(sum(1 << i for i in range(nbits) if rng.random() < density))
    for n in values:
        assert set_bits(n) == [i for i in range(n.bit_length()) if n >> i & 1]
