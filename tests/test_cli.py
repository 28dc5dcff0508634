import re

import numpy as np
import pytest

from qga.cli import main
from qga.instances import dump_instance, load_instance, random_instance, reduce_3sat

from conftest import MINI
from test_sat import write_dimacs

KB = str(MINI / "kg.tsv")
LABELS = str(MINI / "labels.tsv")
PARAPHRASES = str(MINI / "paraphrases.tsv")


def train_vectors(tmp_path, epochs="40"):
    out = tmp_path / "vectors.tsv"
    code = main(
        [
            "train",
            "--kb",
            KB,
            "--dim",
            "16",
            "--epochs",
            epochs,
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_train_writes_vector_file(tmp_path, capsys):
    out = train_vectors(tmp_path)
    text = out.read_text().splitlines()
    assert text[0] == "dim=16"
    assert len(text) > 50


def test_query_end_to_end(tmp_path, capsys):
    vectors = train_vectors(tmp_path, epochs="200")
    sparql_out = tmp_path / "query.sparql"
    code = main(
        [
            "query",
            "university locate United Kingdom",
            "--kb",
            KB,
            "--labels",
            LABELS,
            "--paraphrases",
            PARAPHRASES,
            "--vectors",
            str(vectors),
            "--explain",
            "--out",
            str(sparql_out),
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "SELECT" in captured
    assert "res:University_of_Cambridge" in captured
    assert "res:University_of_Oxford" in captured
    assert re.search(r"edges costed=\d+", captured)
    assert sparql_out.read_text().startswith("SELECT")


def test_query_uninterpretable_exit_code(tmp_path, capsys):
    vectors = train_vectors(tmp_path)
    code = main(
        [
            "query",
            "zzz qqq www",
            "--kb",
            KB,
            "--vectors",
            str(vectors),
        ]
    )
    assert code == 2


def test_query_infeasible_exit_code(tmp_path, capsys):
    # two relation terms and no vertex term: no annotated query can be wired
    vectors = train_vectors(tmp_path, epochs="1")
    argv = ["query", "locate spouse", "--kb", KB, "--labels", LABELS, "--paraphrases", PARAPHRASES]
    assert main(argv + ["--vectors", str(vectors)]) == 3
    assert capsys.readouterr().err.startswith("infeasible assembly:")


def test_query_single_entity_is_an_ask_with_its_answer(tmp_path, capsys):
    # one entity term and no relation: the query asks whether it exists
    vectors = train_vectors(tmp_path, epochs="1")
    argv = ["query", "einstein", "--kb", KB, "--labels", LABELS, "--paraphrases", PARAPHRASES]
    assert main(argv + ["--vectors", str(vectors)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["ask", "true", "answer: res:Albert_Einstein"]


def test_query_two_entities_without_a_relation_name_no_answer(tmp_path, capsys):
    # an ASK over two fixed entities has no single entity to call the answer
    vectors = train_vectors(tmp_path, epochs="1")
    capsys.readouterr()
    argv = ["query", "einstein princeton university", "--no-predict", "--kb", KB, "--labels", LABELS]
    assert main(argv + ["--paraphrases", PARAPHRASES, "--vectors", str(vectors)]) == 0
    assert capsys.readouterr().out.splitlines() == ["ASK {", "}", "ask", "true"]


def explain(keywords, vectors, capsys):
    capsys.readouterr()
    argv = ["query", keywords, "--kb", KB, "--labels", LABELS, "--paraphrases", PARAPHRASES]
    assert main(argv + ["--vectors", str(vectors), "--explain"]) == 0
    return capsys.readouterr().out.splitlines()


def test_explain_names_the_item_each_ambiguous_set_resolved_to(tmp_path, capsys):
    # mini query q01: "USA" names the country and the newspaper
    vectors = train_vectors(tmp_path, epochs="200")
    lines = explain("scientist graduate from university locate USA", vectors, capsys)
    assert "    resolved set 2 := res:United_States (over res:USA_Today)" in lines


def test_explain_gives_a_losing_candidates_infeasible_reason(tmp_path, capsys):
    vectors = train_vectors(tmp_path, epochs="200")
    rows = [line for line in vectors.read_text().splitlines() if not line.startswith("dbo:University\t")]
    vectors.write_text("\n".join(rows) + "\n")
    lines = explain("einstein graduate from princeton university", vectors, capsys)
    # the winner reads "princeton university" as one entity; AQ[1] splits it
    assert lines[0].startswith("* AQ[0] ")
    at = lines.index(
        "  AQ[1] score=2.000 spans=[einstein:entity, graduate from:relation, princeton:entity, university:class]"
    )
    assert lines[at + 1] == "    infeasible: UnknownItemError: no candidate of class term 'university' has a vector"


def test_solve_dumped_instance(tmp_path, capsys):
    sets, weights = random_instance(np.random.default_rng(3), 3, 2, 2)
    path = tmp_path / "inst.txt"
    dump_instance(sets, weights, path)
    code = main(["solve", "--instance", str(path), "--bound", "km", "--stats"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "optimal cost" in captured
    assert "states pushed" in captured
    assert re.search(r"edges_costed=\d+ of \d+", captured)
    edge_lines = [line for line in captured.splitlines() if line.startswith("predicate ")]
    assert len(edge_lines) == sets.m
    found = re.fullmatch(r"predicate (\d+): \((\d+):(\d+)\) (->|<-) \((\d+):(\d+)\) weight \S+", edge_lines[0])
    p, s1, v1, _, s2, v2 = found.groups()
    assert any(int(p) in es for es in sets.edge_sets)
    assert int(v1) in sets.vertex_sets[int(s1)] and int(v2) in sets.vertex_sets[int(s2)]


def test_solve_rejects_a_repeated_vertex(tmp_path, capsys):
    # two relations wired over one vertex pair would read as feasible
    path = tmp_path / "inst.txt"
    path.write_text("n 2\nm 2\nV 0 10 10\nV 1 11\nE 0 20\nE 1 21\n")
    assert main(["solve", "--instance", str(path)]) == 1
    assert "repeated item" in capsys.readouterr().err


def test_solve_infeasible_exit_code(tmp_path, capsys):
    sets, weights = random_instance(np.random.default_rng(3), 2, 1, 1)
    # two relations, one vertex pair: force infeasibility
    sets.edge_sets.append((99,))
    for (i1, v1, i2, v2, _j) in list(weights):
        weights[(i1, v1, i2, v2, 1)] = (0.5, 99, 0)
    path = tmp_path / "inst.txt"
    dump_instance(sets, weights, path)
    code = main(["solve", "--instance", str(path)])
    assert code == 3


def test_sat_check(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    write_dimacs(cnf, 2, [(1, 2, -1), (-1, -2, -2)])
    code = main(["sat-check", "--cnf", str(cnf), "--verify"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "SATISFIABLE" in captured

    cnf2 = tmp_path / "g.cnf"
    write_dimacs(cnf2, 1, [(1, 1, 1), (-1, -1, -1)])
    code = main(["sat-check", "--cnf", str(cnf2), "--verify"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "UNSATISFIABLE" in captured


@pytest.mark.parametrize(
    "num_vars, clauses, optimum",
    [(3, [(1, 2, -3), (-1, -2, 3), (2, 2, -1)], 0.0), (1, [(1, 1, 1), (-1, -1, -1)], 1.0)],
    ids=["satisfiable", "unsatisfiable"],
)
def test_a_reduced_formula_replays_with_solve(tmp_path, capsys, num_vars, clauses, optimum):
    cnf, dump = tmp_path / "f.cnf", tmp_path / "f.txt"
    write_dimacs(cnf, num_vars, clauses)
    assert main(["sat-check", "--cnf", str(cnf)]) == 0
    reported = float(re.search(r"optimum=(\S+) ", capsys.readouterr().out).group(1))
    sets, weights = reduce_3sat(num_vars, clauses)
    dump_instance(sets, weights, dump)
    assert load_instance(dump) == (sets, weights)
    assert main(["solve", "--instance", str(dump)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"optimal cost {reported:.6f}"
    assert reported == optimum


def test_oracle_check(capsys):
    code = main(["oracle-check", "--instances", "25", "--seed", "3"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "all optimal" in captured


# `qga bench --instances 3 --k 3,4 --seed 2` with its wall clocks masked
PINNED_BENCH = """\
instance\tk\tn\tm\tbound\tcost\tstates_pushed\tstates_popped\tstates_pruned\tbound_evaluations\twall_seconds
0\t3\t4\t3\tnaive\t0.064788\t7\t4\t3\t6\tWALL
0\t3\t4\t3\tkm\t0.064788\t7\t3\t4\t6\tWALL
0\t3\t4\t3\tgreedy\t0.064788\t7\t3\t4\t6\tWALL
1\t3\t4\t2\tnaive\t0.042387\t5\t3\t2\t4\tWALL
1\t3\t4\t2\tkm\t0.042387\t5\t3\t2\t4\tWALL
1\t3\t4\t2\tgreedy\t0.042387\t5\t3\t2\t4\tWALL
2\t3\t4\t2\tnaive\t0.048243\t4\t3\t1\t3\tWALL
2\t3\t4\t2\tkm\t0.048243\t4\t3\t1\t3\tWALL
2\t3\t4\t2\tgreedy\t0.048243\t4\t3\t1\t3\tWALL
0\t4\t3\t3\tnaive\t0.402405\t25\t10\t15\t24\tWALL
0\t4\t3\t3\tkm\t0.402405\t24\t9\t15\t23\tWALL
0\t4\t3\t3\tgreedy\t0.402405\t24\t9\t15\t23\tWALL
1\t4\t3\t3\tnaive\t0.201255\t15\t5\t10\t14\tWALL
1\t4\t3\t3\tkm\t0.201255\t15\t5\t10\t14\tWALL
1\t4\t3\t3\tgreedy\t0.201255\t15\t5\t10\t14\tWALL
2\t4\t3\t2\tnaive\t0.019606\t2\t2\t0\t1\tWALL
2\t4\t3\t2\tkm\t0.019606\t2\t2\t0\t1\tWALL
2\t4\t3\t2\tgreedy\t0.019606\t2\t2\t0\t1\tWALL

# mean k=3 naive: popped=3.33 wall=WALL
# mean k=3 km: popped=3.00 wall=WALL
# mean k=3 greedy: popped=3.00 wall=WALL
# mean k=4 naive: popped=5.67 wall=WALL
# mean k=4 km: popped=5.33 wall=WALL
# mean k=4 greedy: popped=5.33 wall=WALL
"""


def without_wall_clocks(text):
    text = re.sub(r"\t\d+\.\d{6}$", "\tWALL", text, flags=re.M)
    return re.sub(r"wall=\d+\.\d{4}s", "wall=WALL", text)


def test_bench_output_matches_the_pinned_report(capsys):
    assert main(["bench", "--instances", "3", "--k", "3,4", "--seed", "2"]) == 0
    assert without_wall_clocks(capsys.readouterr().out) == PINNED_BENCH


def test_bench_writes_report(tmp_path, capsys):
    out = tmp_path / "report.tsv"
    code = main(
        ["bench", "--instances", "3", "--k", "3,4", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    assert without_wall_clocks(out.read_text()) == PINNED_BENCH
    means = [line for line in PINNED_BENCH.splitlines(keepends=True) if line.startswith("#")]
    assert without_wall_clocks(capsys.readouterr().out) == "".join(means)


def test_out_of_range_instance_sizes_are_usage_errors(capsys):
    for argv, message in (
        (["bench", "--instances", "2", "--k", "0"], "k must be >= 1"),
        (["bench", "--instances", "2", "--k=-2"], "k must be >= 1"),
        # a repeated k would print its rows twice under one instance index
        (["bench", "--instances", "2", "--k", "3,4,3"], "--k repeats a value: 3,4,3"),
        # checking no instance is no evidence: it must not read "all optimal"
        (["oracle-check", "--instances", "0"], "--instances must be >= 1"),
        (["oracle-check", "--instances=-3"], "--instances must be >= 1"),
        (["oracle-check", "--n-max", "1"], "--n-max must be >= 2"),
        (["oracle-check", "--m-max", "0"], "--m-max must be >= 1"),
        (["oracle-check", "--k-max", "0"], "--k-max must be >= 1"),
    ):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_missing_file_exit_code(capsys):
    code = main(["train", "--kb", "/nonexistent/kg.tsv", "--out", "/tmp/x.tsv"])
    assert code == 1


def test_train_reports_time_and_rate(tmp_path, capsys):
    train_vectors(tmp_path, epochs="2")
    summary = capsys.readouterr().out
    assert re.search(r"\(dim=16, epochs=2\) in \d+\.\d\d s \(\d+ triples/s\)", summary)


def test_train_non_finite_parameters_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "v.tsv"
    for flag, value, message in (
        ("--lr", "nan", "learning_rate must be positive and finite"),
        ("--margin", "inf", "margin must be positive and finite"),
    ):
        argv = ["train", "--kb", KB, "--epochs", "2", flag, value, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_query_invalid_config_is_a_usage_error(tmp_path, capsys):
    vectors = train_vectors(tmp_path, epochs="1")
    for flag, message in (("--k", "k must be >= 1"), ("--top-n", "top_n must be >= 1")):
        code = main(["query", "einstein", "--kb", KB, "--vectors", str(vectors), flag, "0"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_query_unknown_iri_prints_the_message_unquoted(tmp_path, capsys):
    # UnknownItemError is a KeyError, whose str() would quote the message
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text("dim=2\nno:such_thing\t0.5 0.25\n")
    assert main(["query", "einstein", "--kb", KB, "--vectors", str(vectors)]) == 1
    assert capsys.readouterr().err == f"error: {vectors}:2: unknown IRI 'no:such_thing'\n"


def test_query_with_only_the_type_predicate_predicts_no_relation(tmp_path, capsys):
    # the type predicate is never an implicit relation, not even when it is
    # the only predicate: "ann bob" must not read "Ann rdf:type Bob"
    kb = tmp_path / "kg.tsv"
    kb.write_text("res:Ann\trdf:type\tdbo:Person\nres:Bob\trdf:type\tdbo:Person\n")
    vectors = tmp_path / "vectors.tsv"
    assert main(["train", "--kb", str(kb), "--dim", "8", "--epochs", "20", "--out", str(vectors)]) == 0
    capsys.readouterr()
    assert main(["query", "ann bob", "--kb", str(kb), "--vectors", str(vectors)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible assembly:")
    assert "the catalog holds only the type predicate" in err
    # one entity needs no prediction, and still answers
    assert main(["query", "ann", "--kb", str(kb), "--vectors", str(vectors)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "answer: res:Ann"
