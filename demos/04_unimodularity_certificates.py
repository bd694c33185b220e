"""Unimodularity of the skeleton coordinates, and the Smith normal form behind it.

A piece of the tropicalization is unimodular when its image edge vectors
extend to a basis of the integer lattice: full rank and every elementary
divisor equal to 1.  The canonical construction always produces vertex
images following the 1 - e_a pattern, whose differences are the vectors
e_1 - e_a; doubling the orders breaks saturation and the certificate
catches it.  ``check_unimodular`` proves the canonical pieces unimodular
from the signed vertex selector, an integer right inverse of the edge
matrix, and runs the Smith elimination only for pieces that fail that
test, such as the doubled ones.
"""

from skeletrop import (IntMatrix, OrderMatrix, build_from_facets, build_map,
                       canonical_order_matrix, check_unimodular,
                       extends_to_basis, smith_normal_form)

tetra = build_from_facets(ell=4, d=2, facets=[[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
coords = build_map(tetra, canonical_order_matrix(tetra))

triangle = tetra.stratum("1-2-3")
print(f"vertex images of {triangle.id}:")
for a, v in enumerate(triangle.vertices):
    print(f"  v_{v} -> {coords.vertex_image(triangle, a)}")

cert = check_unimodular(coords, triangle)
print(f"\nedge-difference vectors: {cert.edge_matrix.entries}")
print(f"elementary divisors: {cert.elementary_divisors}, unimodular: {cert.verdict}")
print("extend to a lattice basis:", extends_to_basis(cert.edge_matrix.entries))

# The same machinery on raw matrices: Smith normal form with transforms.
m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
snf = smith_normal_form(m)
print(f"\nSmith form of {m.entries}:")
print(f"  diagonal {snf.diagonal}")
print(f"  U M V == D: {(snf.u @ m @ snf.v) == snf.d}")
print(f"  |det U| = {abs(snf.u.det())}, |det V| = {abs(snf.v.det())}")

# Doubled orders scale the edge vectors by 2: still independent, but the
# sublattice they span has index 2 in its saturation.
edge_complex = build_from_facets(ell=2, d=1, facets=[[1, 2]])
doubled = OrderMatrix(((0, 0), (0, 2), (2, 0)), (True, True, True))
broken = build_map(edge_complex, doubled, check=False)
cert = check_unimodular(broken, "1-2")
print(f"\ndoubled orders on an edge: divisors {cert.elementary_divisors}, "
      f"unimodular: {cert.verdict}")
