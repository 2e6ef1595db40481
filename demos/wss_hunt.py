"""Hunting Wall-Sun-Sun analogues: primes with k(p^2) = k(p).

For Fibonacci, whether such a prime exists is a famous open question (none
below 10^4 here, and none are known at all). Other families do have them:
the Pell family has two below 50. The scan decides each prime by the order
of the companion matrix M, with no orbit walk. k(p^2) is k(p) or p * k(p),
and k(p) divides N = p^2 - 1 (or p(p - 1) when p divides D = A^2 + 4B),
which p divides exactly as often as it divides k(p). So one fast-doubling
term pair, (e(N), e(N+1)) = (0, 1) mod p^2, says whether M^N = I there, and
that is the whole test. Only the findings descend to k(p) itself.
"""
import time

from lucaslab import RecurrenceParams, rank, term, valuation, wss_scan

fib = RecurrenceParams(1, 1)
pell = RecurrenceParams(2, 1)

print("=== Fibonacci ===")
start = time.time()
findings = wss_scan(fib, 10_000)
print(f"  primes p < 10^4 with k(p^2) = k(p): {[f.p for f in findings]}"
      f"   ({time.time() - start:.1f}s)")
print("  (empty, as expected: no Fibonacci Wall-Sun-Sun prime is known)")

print()
print("=== Pell ===")
findings = wss_scan(pell, 50)
for f in findings:
    print(f"  p = {f.p}: k(p) = k(p^2) = {f.k_p}")
print()
print("Why these two:")
print(f"  e(7)  = {term(pell, 7)} = 13^2: rank of 13 is {rank(pell, 13).alpha}, "
      f"carrying 13-adic valuation {valuation(term(pell, 7), 13)}")
print(f"  e(30) = {term(pell, 30)} = 961 * {term(pell, 30) // 961}"
      f" -> 31^2 divides the rank term too")
print("  A squared prime sitting at its own rank freezes the period ladder")
print("  one rung higher: k(p^2) = k(p).")

print()
print("=== a degenerate curiosity ===")
findings = wss_scan(RecurrenceParams(1, -1), 30)
print("  (A=1, B=-1) repeats with period 6 exactly, so EVERY admissible odd")
print(f"  prime is an analogue: {[f.p for f in findings]}")

print()
print("=== scanning another family ===")
for a in (3, 4, 6):
    params = RecurrenceParams(a, 1)
    findings = wss_scan(params, 300)
    hits = [f.p for f in findings]
    print(f"  (A={a}, B=1), p < 300: {hits if hits else 'none'}")
