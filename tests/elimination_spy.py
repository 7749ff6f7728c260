"""A spy on the subquotient eliminations behind ``linalg.chain_homology``.

``SubquotientSpy`` records one entry for every call of ``linalg._subquotient``
that runs an rref: (tag, g), where g is the degree whose ``reps`` or
``projs`` read ran it, or None when it ran inside the ``chain_homology``
call itself; it is (None, None) outside a wrapped call.  The tag names the
call the elimination belongs to: a test chooses it by wrapping
``chain_homology`` where its caller looks it up.
"""

from collections.abc import Mapping

from so3alg import linalg
from so3alg.linalg import QMatrix


class _Reads(Mapping):
    """reps or projs of one call, each read run under (tag, degree)."""

    def __init__(self, inner, tag, context):
        self.inner, self.tag, self.context = inner, tag, context

    def __getitem__(self, g):
        self.context.append((self.tag, g))
        try:
            return self.inner[g]
        finally:
            self.context.pop()

    def __iter__(self):
        return iter(self.inner)

    def __len__(self):
        return len(self.inner)


class SubquotientSpy:
    def __init__(self, monkeypatch):
        self.context, self.records = [], []
        rrefs = []
        rref, subquotient = QMatrix.rref, linalg._subquotient
        monkeypatch.setattr(QMatrix, "rref", lambda m: rrefs.append(1) or rref(m))

        def spied(Z, B):
            before = len(rrefs)
            out = subquotient(Z, B)
            if len(rrefs) > before:
                self.records.append(self.context[-1] if self.context else (None, None))
            return out

        monkeypatch.setattr(linalg, "_subquotient", spied)

    def wrap(self, chain_homology, tag_of):
        """chain_homology, with its call and the reads of its reps and projs
        run under the tag that tag_of() gives when it is called."""

        def spied(dims, mats):
            tag = tag_of()
            self.context.append((tag, None))
            try:
                hdims, reps, projs = chain_homology(dims, mats)
            finally:
                self.context.pop()
            return hdims, _Reads(reps, tag, self.context), _Reads(projs, tag, self.context)

        return spied
