"""kummerlab: exact lattice, binary-code and characteristic-2 computations.

The package verifies, by exact finite computation, the combinatorial and
algebraic facts underlying supersingular Kummer-type K3 surfaces in
characteristic 2: Kummer lattices and their embeddings, the binary-code
classification behind overlattices of A_1^16, Cartier-operator filtrations
on inseparable double covers, singularity profiles of two explicit
projective families, and closed-form rational-double-point invariants.

Everything is exact: integers, rationals, and elements of small finite
fields.  No floating point is used anywhere.
"""

__version__ = "0.1.0"


class KummerlabError(ValueError):
    """Base of every package error: bad input or a failed exact check."""
