"""3-CNF input for ``qga sat-check``: DIMACS parsing and the truth-table
oracle that cross-checks the assembly reduction."""

from __future__ import annotations

import itertools

from .errors import ParseError


def parse_dimacs(path):
    """Parse a DIMACS CNF file with exactly 3 literals per clause.

    Clauses are one stream of literals, each ended by a ``0``, within and
    across lines; a ``%`` line (SATLIB's trailer) ends them.
    Returns (num_vars, clauses).
    """
    num_vars = None
    num_clauses = None
    clauses: list[tuple[int, int, int]] = []
    lits: list[int] = []  # the clause still open
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("%"):
                break
            if line.startswith("p"):
                fields = line.split()
                if len(fields) != 4 or fields[1] != "cnf":
                    raise ParseError(path, line_no, f"bad problem line {line!r}")
                try:
                    num_vars, num_clauses = int(fields[2]), int(fields[3])
                except ValueError:
                    raise ParseError(path, line_no, f"bad problem line {line!r}")
                continue
            if num_vars is None:
                raise ParseError(path, line_no, "clause before problem line")
            for token in line.split():
                try:
                    lit = int(token)
                except ValueError:
                    raise ParseError(path, line_no, f"bad literal {token!r}")
                if abs(lit) > num_vars:
                    raise ParseError(path, line_no, f"literal {lit} out of range")
                if lit:
                    lits.append(lit)
                    open_line = line_no
                elif len(lits) != 3:
                    raise ParseError(path, line_no, f"expected 3 literals, got {len(lits)}")
                else:
                    clauses.append(tuple(lits))
                    lits = []
    if num_vars is None:
        raise ParseError(path, 0, "missing problem line")
    if lits:
        raise ParseError(path, open_line, "clause not ended by 0")
    if num_clauses is not None and num_clauses != len(clauses):
        raise ParseError(path, 0, f"expected {num_clauses} clauses, found {len(clauses)}")
    return num_vars, clauses


def truth_table_satisfiable(num_vars: int, clauses) -> bool:
    """Exhaustive 2^p check; the independent oracle for the reduction."""
    for bits in itertools.product((False, True), repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False
