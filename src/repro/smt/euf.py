"""Congruence closure for equality with uninterpreted functions (EUF).

The verifier encodes object values, skolemised method outputs, and
matches/ensures predicate instances as uninterpreted applications, so
EUF does the heavy lifting for reasoning about patterns (Section 5 of
the paper).  Boolean predicate atoms are handled by equating them with
the distinguished ``TRUE``/``FALSE`` terms.

The implementation is the classic union-find + signature-table
congruence closure.  Every union also records an edge of a *proof
forest* labelled with its reason -- the caller's input literal, or
congruence of two applications -- so :meth:`EufSolver.explain` can
name the input literals behind any derived equality, in the style of
Nieuwenhuis & Oliveras (*Fast congruence closure and extensions*,
2007).  A failed :meth:`EufSolver.check` names the clashing pair, and
:meth:`EufSolver.conflict` turns it into the conflict's reasons.

A plain instance is rebuilt per theory check (checks are small).  An
instance constructed with ``undoable=True`` additionally records every
state mutation, proof edges included, on a trail, so a persistent owner
(the incremental engine's :class:`~repro.smt.theory.TheoryContext`) can
roll the closure back to a marked point instead of rebuilding it --
consecutive queries in a verification chain share most of their
literals, and re-running the closure over the shared prefix was the
single largest redundant cost.
"""

from __future__ import annotations

from . import terms as tm
from .terms import Term

#: the reason recorded for a union found by congruence of two
#: applications; :meth:`EufSolver.explain` recurses into their arguments
_CONGRUENCE = object()


class EufSolver:
    """A congruence closure engine, optionally undoable.

    Usage: construct, ``assert_eq``/``assert_ne``/``assert_pred`` any
    number of times, each with the caller's *reason* for it (any
    hashable value, typically the input literal), then call
    :meth:`check`.  After a successful check, :meth:`find` gives class
    representatives, :meth:`congruent` answers equality queries under
    the asserted constraints and :meth:`explain` names the reasons
    behind a derived equality; after a failed one, :meth:`conflict`
    names the reasons behind the clash.

    With ``undoable=True``, :meth:`mark` snapshots the current state
    and :meth:`undo_to` restores it.  Path compression is kept -- the
    trail records every parent rewrite, compressions included, so
    rollback is exact.
    """

    def __init__(self, undoable: bool = False) -> None:
        self._parent: dict[Term, Term] = {}
        self._rank: dict[Term, int] = {}
        #: class representative -> parent applications mentioning the class
        self._uses: dict[Term, list[Term]] = {}
        self._sig: dict[tuple, Term] = {}
        self._pending: list[tuple[Term, Term, object]] = []
        self._diseqs: list[tuple[Term, Term, object]] = []
        self._registered: set[Term] = set()
        #: proof forest: one (a, b, reason) edge per union that merged two
        #: classes, between the terms whose equality caused it
        self._edges: list[tuple[Term, Term, object]] = []
        #: after a failed check: the clashing pair and the extra reasons
        #: (a violated disequality's own) that complete the conflict
        self._clash: tuple[Term, Term, tuple] | None = None
        #: mutation log for rollback; None on plain (rebuilt) instances,
        #: which then pay only a predicate test per mutation
        self._trail: list[tuple] | None = [] if undoable else None

    # -- undo -----------------------------------------------------------------

    def mark(self) -> tuple[int, int]:
        """Snapshot the state; pass the result to :meth:`undo_to`."""
        assert self._trail is not None, "constructed without undoable=True"
        return (len(self._trail), len(self._diseqs))

    def undo_to(self, mark: tuple[int, int]) -> None:
        """Roll every mutation after ``mark`` back, newest first."""
        trail = self._trail
        assert trail is not None
        trail_len, diseq_len = mark
        while len(trail) > trail_len:
            op = trail.pop()
            tag = op[0]
            if tag == "parent":
                self._parent[op[1]] = op[2]
            elif tag == "rank":
                self._rank[op[1]] = op[2]
            elif tag == "use":
                self._uses[op[1]].pop()
            elif tag == "moved":
                _, ra, rb, count = op
                uses = self._uses.setdefault(ra, [])
                self._uses[rb] = uses[len(uses) - count :]
                del uses[len(uses) - count :]
            elif tag == "sig":
                del self._sig[op[1]]
            elif tag == "edge":
                self._edges.pop()
            else:  # "reg"
                t = op[1]
                self._registered.discard(t)
                del self._parent[t]
                del self._rank[t]
                del self._uses[t]
        del self._diseqs[diseq_len:]
        self._pending.clear()
        self._clash = None

    # -- union-find -----------------------------------------------------------

    def _register(self, t: Term) -> None:
        if t in self._registered:
            return
        self._registered.add(t)
        self._parent[t] = t
        self._rank[t] = 0
        self._uses[t] = []
        if self._trail is not None:
            self._trail.append(("reg", t))
        for arg in t.args:
            self._register(arg)
        if t.kind == tm.APP and t.args:
            for arg in t.args:
                root = self.find(arg)
                self._uses[root].append(t)
                if self._trail is not None:
                    self._trail.append(("use", root))
            self._insert_sig(t)

    def find(self, t: Term) -> Term:
        self._register(t)
        parent = self._parent
        root = t
        while parent[root] is not root:
            root = parent[root]
        if self._trail is None:
            while parent[t] is not root:
                parent[t], t = root, parent[t]
        else:
            while parent[t] is not root:
                self._trail.append(("parent", t, parent[t]))
                parent[t], t = root, parent[t]
        return root

    def _sig_of(self, t: Term) -> tuple:
        return (t.payload, tuple(self.find(a) for a in t.args))

    def _insert_sig(self, t: Term) -> None:
        sig = self._sig_of(t)
        other = self._sig.get(sig)
        if other is None:
            self._sig[sig] = t
            if self._trail is not None:
                self._trail.append(("sig", sig))
        elif self.find(other) is not self.find(t):
            self._pending.append((other, t, _CONGRUENCE))

    # -- assertions -------------------------------------------------------

    def assert_eq(self, a: Term, b: Term, reason: object = None) -> None:
        self._register(a)
        self._register(b)
        self._pending.append((a, b, reason))

    def assert_ne(self, a: Term, b: Term, reason: object = None) -> None:
        self._register(a)
        self._register(b)
        self._diseqs.append((a, b, reason))

    def assert_pred(self, atom: Term, value: bool, reason: object = None) -> None:
        """Assert a boolean application atom's truth value."""
        self._register(tm.TRUE)
        self._register(tm.FALSE)
        self.assert_eq(atom, tm.TRUE if value else tm.FALSE, reason)

    # -- closure ----------------------------------------------------------

    def _union(self, a: Term, b: Term, reason: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return
        self._edges.append((a, b, reason))
        if self._trail is not None:
            self._trail.append(("edge",))
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        elif self._rank[ra] == self._rank[rb]:
            if self._trail is not None:
                self._trail.append(("rank", ra, self._rank[ra]))
            self._rank[ra] += 1
        if self._trail is not None:
            self._trail.append(("parent", rb, self._parent[rb]))
        self._parent[rb] = ra
        moved = self._uses.get(rb, [])
        self._uses[rb] = []
        self._uses.setdefault(ra, []).extend(moved)
        if self._trail is not None and moved:
            self._trail.append(("moved", ra, rb, len(moved)))
        for app in moved:
            self._insert_sig(app)

    def _settle(self) -> None:
        while self._pending:
            self._union(*self._pending.pop())

    def check(self) -> bool:
        """Run the closure; True iff the asserted literals are consistent."""
        self._settle()
        self._register(tm.TRUE)
        self._register(tm.FALSE)
        if self.find(tm.TRUE) is self.find(tm.FALSE):
            self._clash = (tm.TRUE, tm.FALSE, ())
            return False
        for a, b, reason in self._diseqs:
            if self.find(a) is self.find(b):
                self._clash = (a, b, (reason,))
                return False
        return True

    # -- explanations -----------------------------------------------------

    def conflict(self) -> set:
        """The reasons behind the clash that made :meth:`check` fail."""
        assert self._clash is not None, "check() did not fail"
        a, b, extra = self._clash
        return self.explain(a, b).union(extra)

    def explain(self, a: Term, b: Term) -> set:
        """The reasons of the input assertions that make ``a = b`` hold.

        Walks the proof-forest path between ``a`` and ``b``: an edge
        asserted by the caller contributes its reason, a congruence edge
        between ``f(x1..xn)`` and ``f(y1..yn)`` the explanations of the
        argument pairs.  The forest is a tree per class, so the path is
        unique; a congruence edge is newer than every edge on its
        argument paths, so the recursion ends.  Conflicts are rare, so
        the adjacency is built here, on demand, and not kept.
        """
        adjacent: dict[Term, list] = {}
        for edge in self._edges:
            adjacent.setdefault(edge[0], []).append((edge[1], edge))
            adjacent.setdefault(edge[1], []).append((edge[0], edge))
        reasons: set = set()
        done: set[tuple[Term, Term]] = set()
        todo = [(a, b)]
        while todo:
            x, y = todo.pop()
            if x is y or (x, y) in done:
                continue
            done.add((x, y))
            # Breadth-first search from x, then walk back from y.
            via: dict[Term, tuple] = {x: ()}
            frontier = [x]
            while frontier and y not in via:
                step = []
                for u in frontier:
                    for v, edge in adjacent.get(u, ()):
                        if v not in via:
                            via[v] = (u, edge)
                            step.append(v)
                frontier = step
            if y not in via:
                raise ValueError(f"explain(): {x} and {y} are not equal")
            v = y
            while v is not x:
                v, (p, q, reason) = via[v]
                if reason is _CONGRUENCE:
                    todo.extend(zip(p.args, q.args))
                else:
                    reasons.add(reason)
        return reasons

    def congruent(self, a: Term, b: Term) -> bool:
        """Are ``a`` and ``b`` equal under the closure?

        Registering previously unseen terms can trigger new congruences
        (their signatures may collide with existing classes), so settle
        before comparing.
        """
        self._register(a)
        self._register(b)
        self._settle()
        return self.find(a) is self.find(b)

    def classes(self) -> dict[Term, list[Term]]:
        """Representative -> members, for model construction."""
        out: dict[Term, list[Term]] = {}
        for t in self._registered:
            out.setdefault(self.find(t), []).append(t)
        return out
