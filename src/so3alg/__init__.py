"""Exact-arithmetic engine for algebraic models of rational SO(3)-equivariant theory.

Every computation is carried out over the rationals with ``fractions.Fraction``;
no floating point appears anywhere.  The subpackages are layered:

- ``linalg``: dense rational matrices, kernels, cokernels, solving.
- ``burnside``: the rational Burnside rings of SO(3) and O(2) as spaces of
  locally constant functions on conjugacy classes of closed subgroups.
- ``graded``: canonical forms for graded modules over Q[c] and Q[d] with a
  Weyl-group involution, fixed points and base change.
- ``qw``: graded Q[W]-spaces, their maps and homology, and the slot container,
  which the toral and dihedral models share.
- ``toral``: the algebraic model attached to the maximal torus (objects with a
  structure map to a localized module, adjunctions, injective resolutions,
  Ext, wide spheres, differentials).
- ``dihedral``: the germ-indexed model attached to the dihedral part.
- ``exceptional``: chain complexes of modules over finite Weyl group algebras.
- ``cli``: the ``engine`` command-line front end with JSON reports.
"""

__version__ = "0.1.0"
