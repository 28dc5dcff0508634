import numpy as np
import pytest

from qga.errors import ParseError
from qga.sat import parse_dimacs, truth_table_satisfiable


def write_dimacs(path, num_vars, clauses) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p cnf {num_vars} {len(clauses)}\n")
        for clause in clauses:
            fh.write(" ".join(str(lit) for lit in clause) + " 0\n")


def random_3cnf(rng: np.random.Generator, num_vars: int, num_clauses: int):
    """Random 3-clauses; literals may repeat inside a clause, matching the
    padded-by-repetition convention."""
    clauses = []
    for _ in range(num_clauses):
        clause = tuple(
            int(v) * (1 if rng.integers(0, 2) else -1)
            for v in rng.integers(1, num_vars + 1, size=3)
        )
        clauses.append(clause)
    return clauses


def test_dimacs_round_trip(tmp_path):
    clauses = [(1, -2, 3), (-1, -1, -1), (2, 3, 3)]
    path = tmp_path / "f.cnf"
    write_dimacs(path, 3, clauses)
    num_vars, parsed = parse_dimacs(path)
    assert num_vars == 3 and parsed == clauses


def test_dimacs_comments_ok(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("c a comment\np cnf 2 1\n1 -2 2 0\n")
    num_vars, clauses = parse_dimacs(path)
    assert num_vars == 2 and clauses == [(1, -2, 2)]


def test_dimacs_wrong_literal_count(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\n1 -2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs(path)


def test_dimacs_out_of_range_literal(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\n1 -2 5 0\n")
    with pytest.raises(ParseError):
        parse_dimacs(path)


def test_dimacs_missing_problem_line(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("1 -2 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs(path)


def test_dimacs_bad_problem_line_names_the_line(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("c header\np cnf x 1\n1 2 3 0\n")
    with pytest.raises(ParseError, match=r"f\.cnf:2: bad problem line 'p cnf x 1'"):
        parse_dimacs(path)


def test_truth_table_basics():
    assert truth_table_satisfiable(1, [(1, 1, 1)])
    assert not truth_table_satisfiable(1, [(1, 1, 1), (-1, -1, -1)])
    assert truth_table_satisfiable(2, [(1, 2, -1), (-1, -2, 2)])


def test_random_3cnf_shape():
    rng = np.random.default_rng(0)
    clauses = random_3cnf(rng, 4, 6)
    assert len(clauses) == 6
    for c in clauses:
        assert len(c) == 3
        assert all(l != 0 and abs(l) <= 4 for l in c)
