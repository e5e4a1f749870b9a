# Tour of the built-in semirings and the axiom validator.
#
# Run:  python demos/01_semirings.py

import antiring as ar

# --- built-in carriers -------------------------------------------------------

b = ar.boolean()  # {0, 1} with OR / AND
c5 = ar.chain(5)  # levels 0..4 with max / min
p3 = ar.powerset(3)  # subsets of {1,2,3} with union / intersection
nat = ar.naturals()  # 0, 1, 2, ... with + / *
trop = ar.tropical()  # integers + infinity with min / +

# payloads are plain values; the semiring carries the operations and the text form
print("chain(5):   1 + 3 =", c5.add(1, 3), " (max)")
print("chain(5):   1 * 3 =", c5.mul(1, 3), " (min)")
print("powerset:   {1}+{2,3} =", p3.format_element(p3.add(p3.coerce({1}), p3.coerce({2, 3}))))
print("tropical:   5 + inf =", trop.format_element(trop.add(5, ar.INF)))
print("tropical:   5 * 7   =", trop.format_element(trop.mul(5, 7)), " (integer sum)")


def inverse(sr, value):
    """The multiplicative inverse as text, or None when value is not a unit."""
    inv = sr.unit_inverse(sr.coerce(value))
    return None if inv is None else sr.format_element(inv)


# units: which elements have a multiplicative inverse?
print("\nunits:")
print("  tropical 5    ->", inverse(trop, 5))
print("  naturals 2    ->", inverse(nat, 2))
print("  powerset {1}  ->", inverse(p3, {1}))
print("  powerset top  ->", inverse(p3, {1, 2, 3}))

# --- user-defined semirings from operation tables ----------------------------

# integers mod 2 under XOR/AND: a semiring, but NOT zerosumfree (1 + 1 = 0)
mod2 = ar.FiniteTables(
    size=2,
    add_table=((0, 1), (1, 0)),
    mul_table=((0, 0), (0, 1)),
    zero_index=0,
    one_index=1,
)
report = ar.validate_axioms(mod2)
print("\nintegers mod 2:")
for flag in ar.AxiomReport.FLAGS:
    print(f"  {flag:28s} {getattr(report, flag)}")
print("  witness for zerosumfree:", report.witnesses["zerosumfree"][0])

# materialize a built-in and check it exhaustively
report = ar.validate_axioms(ar.to_tables(ar.powerset(2)))
print("\npowerset(2): commutative antiring =", report.is_commutative_antiring,
      "| entire =", report.is_entire, " (disjoint sets are zero divisors)")
