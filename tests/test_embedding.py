import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qga import embedding, kernels
from qga.embedding import (
    DIR_FORWARD,
    DIR_REVERSE,
    NEGATIVE_TRIES,
    TrainConfig,
    condensed_edge_weight,
    load_table,
    save_table,
    train_transe,
    triple_assembly_cost,
)
from qga.errors import QgaError, UnknownItemError, VectorFormatError
from qga.store import load_triples

from test_predictor import table_from


# -- training ----------------------------------------------------------------


def test_training_deterministic(toy_kg):
    a = train_transe(toy_kg, TrainConfig(dim=8, epochs=5, seed=3))
    b = train_transe(toy_kg, TrainConfig(dim=8, epochs=5, seed=3))
    assert np.array_equal(a.vectors, b.vectors)
    assert a.final_loss == b.final_loss


def test_zero_epochs_returns_initialization(toy_kg):
    a = train_transe(toy_kg, TrainConfig(dim=8, epochs=0, seed=3))
    b = train_transe(toy_kg, TrainConfig(dim=8, epochs=0, seed=3))
    assert np.array_equal(a.vectors, b.vectors)
    # predicates are unit norm at init, vertices are not yet renormalized
    for p in toy_kg.predicates:
        assert np.linalg.norm(a.vectors[p]) == pytest.approx(1.0)


def reference_sample_negatives(rng, pos, vertex_ids, positive_set):
    """One scalar ``rng.integers`` draw per try: the reference for the
    block-drawing sampler."""
    n = pos.shape[0]
    neg = pos.copy()
    sides = rng.integers(0, 2, size=n)
    for t in range(n):
        col = 0 if sides[t] == 0 else 2
        orig = pos[t, col]
        for _ in range(NEGATIVE_TRIES):
            repl = vertex_ids[rng.integers(0, len(vertex_ids))]
            if repl == orig:
                continue
            neg[t, col] = repl
            if (neg[t, 0], neg[t, 1], neg[t, 2]) not in positive_set:
                break
    return neg


@pytest.mark.parametrize(
    "high", [2, 3, 53, 10**3, 102_000, 2**31 + 5, 2**32, 2**32 + 3, 2**40]
)
def test_an_array_draw_equals_scalar_draws_and_leaves_the_same_state(high):
    # the block sampler rests on this: k values drawn at once are the k
    # values of k scalar draws, and the generator ends in the same state
    for seed in range(5):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        a.integers(0, 2, size=3)  # leave a half-used 64-bit word, as sides does
        b.integers(0, 2, size=3)
        block = a.integers(0, high, size=17).tolist()
        assert block == [int(b.integers(0, high)) for _ in range(17)]
        assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    vertices=st.integers(1, 6),
    preds=st.integers(1, 2),
    density=st.sampled_from([0.2, 0.6, 1.0]),
    n=st.integers(1, 12),  # training never samples for an empty store
    seed=st.integers(0, 2**32 - 1),
)
@example(vertices=1, preds=1, density=1.0, n=5, seed=0)  # every try repeats orig
def test_block_sampler_equals_scalar_draws(vertices, preds, density, n, seed):
    # dense positives make many tries per row, and one vertex exhausts
    # NEGATIVE_TRIES on every row, so blocks run out mid-row
    rng = np.random.default_rng(seed)
    vertex_ids = list(range(preds, preds + vertices))
    every = [(s, p, o) for s in vertex_ids for p in range(preds) for o in vertex_ids]
    keep = rng.random(len(every)) < density
    positive_set = {t for t, k in zip(every, keep) if k} or {every[0]}
    stored = sorted(positive_set)
    pos = np.array([stored[i] for i in rng.integers(0, len(stored), size=n)], dtype=np.int64)
    pos = pos.reshape(n, 3)
    a = np.random.default_rng(seed + 1)
    b = np.random.default_rng(seed + 1)
    got = embedding._sample_negatives(a, pos, vertex_ids, positive_set)
    ref = reference_sample_negatives(b, pos, vertex_ids, positive_set)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert a.bit_generator.state == b.bit_generator.state


def test_training_equals_the_reference_loop_and_sampler_bitwise(
    mini_kg, mini_table, monkeypatch
):
    # mini_table is TrainConfig(dim=32, epochs=200, seed=0) on the active path
    monkeypatch.setattr(kernels, "sgd_epoch", kernels._sgd_epoch_impl)
    monkeypatch.setattr(embedding, "_sample_negatives", reference_sample_negatives)
    ref = train_transe(mini_kg, TrainConfig(dim=32, epochs=200, seed=0))
    assert mini_table.vectors.tobytes() == ref.vectors.tobytes()
    assert mini_table.final_loss == ref.final_loss


@pytest.mark.parametrize("field", ["learning_rate", "margin"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_train_config_rejects_non_positive_or_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        TrainConfig(**{field: value}).validate()


def test_empty_graph_errors(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    kg = load_triples(path)
    with pytest.raises(QgaError):
        train_transe(kg, TrainConfig(dim=4, epochs=1))


def test_vertex_vectors_unit_norm_after_training(toy_kg, toy_table):
    for v in toy_kg.vertices:
        assert np.linalg.norm(toy_table.vectors[v]) == pytest.approx(1.0, abs=1e-9)


def test_positive_triples_score_below_corrupted(toy_kg, toy_table):
    rng = np.random.default_rng(99)
    vertices = toy_kg.vertices
    tri_set = set(toy_kg.triples)
    pos_costs, neg_costs, wins = [], [], 0
    for s, p, o in toy_kg.triples:
        c_pos, _ = triple_assembly_cost(toy_table, s, o, p)
        while True:
            if rng.integers(0, 2) == 0:
                s2, o2 = int(vertices[rng.integers(0, len(vertices))]), o
            else:
                s2, o2 = s, int(vertices[rng.integers(0, len(vertices))])
            if (s2, p, o2) not in tri_set and (s2, o2) != (s, o):
                break
        c_neg, _ = triple_assembly_cost(toy_table, s2, o2, p)
        pos_costs.append(c_pos)
        neg_costs.append(c_neg)
        wins += c_pos < c_neg
    assert np.mean(pos_costs) < np.mean(neg_costs)
    assert wins / len(toy_kg.triples) >= 0.8


# -- persistence --------------------------------------------------------------


def test_save_load_round_trip(toy_kg, tmp_path):
    table = train_transe(toy_kg, TrainConfig(dim=5, epochs=2, seed=1))
    path = tmp_path / "vec.tsv"
    save_table(table, path)
    loaded = load_table(path, toy_kg)
    assert loaded.dim == table.dim
    assert np.array_equal(loaded.vectors, table.vectors)
    assert np.array_equal(loaded.has, table.has)


def test_load_wrong_arity(tmp_path, toy_kg):
    path = tmp_path / "vec.tsv"
    iri = toy_kg.iri_of(0)
    path.write_text(f"dim=3\n{iri}\t0.5 0.25\n")
    with pytest.raises(VectorFormatError):
        load_table(path, toy_kg)


def test_load_unknown_iri(tmp_path, toy_kg):
    path = tmp_path / "vec.tsv"
    path.write_text("dim=2\nno:such_thing\t0.5 0.25\n")
    with pytest.raises(UnknownItemError) as err:
        load_table(path, toy_kg)
    assert "no:such_thing" in str(err.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999", "x"])
def test_load_rejects_non_finite_or_unparsable_floats(tmp_path, toy_kg, bad):
    # a nan row used to load silently and make every cost it touched nan,
    # which surfaced as an infeasible assembly instead of a format error
    path = tmp_path / "vec.tsv"
    path.write_text(f"dim=2\n{toy_kg.iri_of(0)}\t0.5 0.25\n{toy_kg.iri_of(1)}\t0.5 {bad}\n")
    with pytest.raises(VectorFormatError) as err:
        load_table(path, toy_kg)
    assert f"{path}:3:" in str(err.value)
    assert "repeated" not in str(err.value)


def test_load_rejects_a_repeated_iri(tmp_path, toy_kg):
    """A second row for an item used to replace the first silently, so an
    appended all-zero row zeroed a trained vector."""
    table = train_transe(toy_kg, TrainConfig(dim=3, epochs=1, seed=1))
    path = tmp_path / "vec.tsv"
    save_table(table, path)
    rows = path.read_text().splitlines()
    path.write_text("\n".join(rows + [f"{toy_kg.iri_of(0)}\t0.0 0.0 0.0"]) + "\n")
    with pytest.raises(VectorFormatError) as err:
        load_table(path, toy_kg)
    assert f"{path}:{len(rows) + 1}: repeated IRI" in str(err.value)


def test_load_missing_header(tmp_path, toy_kg):
    path = tmp_path / "vec.tsv"
    path.write_text("0.5 0.25\n")
    with pytest.raises(VectorFormatError):
        load_table(path, toy_kg)


# -- assembly cost -------------------------------------------------------------


def test_exact_translation_cost_zero():
    table = table_from([[0, 0], [1, 0], [1, 0]])  # v1, v2, p
    cost, direction = triple_assembly_cost(table, 0, 1, 2)
    assert cost == 0.0 and direction == DIR_FORWARD


def test_symmetric_residual_tie_resolves_forward():
    table = table_from([[0, 0], [0, 1], [1, 0]])
    cost, direction = triple_assembly_cost(table, 0, 1, 2)
    assert cost == pytest.approx(math.sqrt(2.0))
    assert direction == DIR_FORWARD


def test_reverse_direction_detected():
    table = table_from([[1, 0], [0, 0], [1, 0]])  # v2 + p == v1
    cost, direction = triple_assembly_cost(table, 0, 1, 2)
    assert cost == 0.0 and direction == DIR_REVERSE


def test_swap_symmetry_exact():
    rng = np.random.default_rng(4)
    table = table_from(rng.normal(size=(30, 6)))
    for _ in range(300):
        v1, v2, p = rng.integers(0, 30, size=3)
        c1, _ = triple_assembly_cost(table, int(v1), int(v2), int(p))
        c2, _ = triple_assembly_cost(table, int(v2), int(v1), int(p))
        assert c1 == c2
        assert c1 >= 0.0


def test_missing_vector_lookup_error():
    table = table_from([[0, 0], [1, 0]])
    table.has[1] = False
    with pytest.raises(UnknownItemError):
        triple_assembly_cost(table, 0, 1, 0)


def test_condensed_weight_singleton_equals_triple_cost():
    rng = np.random.default_rng(5)
    table = table_from(rng.normal(size=(10, 4)))
    cost, best_p, direction = condensed_edge_weight(table, 0, 1, [5])
    single_cost, single_dir = triple_assembly_cost(table, 0, 1, 5)
    assert cost == single_cost and best_p == 5 and direction == single_dir


def test_condensed_weight_min_selection():
    table = table_from([[0, 0], [1, 0], [1, 0], [0, 5]])  # p=2 exact, p=3 far
    cost, best_p, _ = condensed_edge_weight(table, 0, 1, [3, 2])
    assert best_p == 2 and cost == 0.0


def test_condensed_weight_brute_force_scan():
    rng = np.random.default_rng(6)
    table = table_from(rng.normal(size=(40, 8)))
    for _ in range(50):
        v1, v2 = (int(x) for x in rng.integers(0, 10, size=2))
        preds = sorted(int(x) for x in rng.choice(np.arange(10, 40), size=5, replace=False))
        cost, best_p, direction = condensed_edge_weight(table, v1, v2, preds)
        by_hand = min(
            (triple_assembly_cost(table, v1, v2, p)[0], p) for p in preds
        )
        assert cost == pytest.approx(by_hand[0], rel=1e-12)
        assert best_p == by_hand[1]
        for p in preds:
            assert cost <= triple_assembly_cost(table, v1, v2, p)[0] + 1e-12


def test_condensed_weight_empty_set():
    table = table_from([[0, 0]])
    with pytest.raises(ValueError):
        condensed_edge_weight(table, 0, 0, [])


# -- gradients -----------------------------------------------------------------


# the reference loss and gradient mirror the training kernel's math


def margin_loss(vectors: np.ndarray, pos, neg, margin: float) -> float:
    s, p, o = pos
    cs, cp, co = neg
    d_pos = float(np.linalg.norm(vectors[s] + vectors[p] - vectors[o]))
    d_neg = float(np.linalg.norm(vectors[cs] + vectors[cp] - vectors[co]))
    return max(0.0, margin + d_pos - d_neg)


def margin_loss_grad(vectors: np.ndarray, pos, neg, margin: float) -> dict[int, np.ndarray]:
    """Analytic gradient of ``margin_loss`` w.r.t. every involved vector,
    accumulated per item id.  Zero dict when the hinge is inactive."""
    s, p, o = pos
    cs, cp, co = neg
    rp = vectors[s] + vectors[p] - vectors[o]
    rn = vectors[cs] + vectors[cp] - vectors[co]
    d_pos = float(np.linalg.norm(rp))
    d_neg = float(np.linalg.norm(rn))
    if margin + d_pos - d_neg <= 0.0:
        return {}
    gp = rp / d_pos if d_pos > 1e-12 else np.zeros_like(rp)
    gn = rn / d_neg if d_neg > 1e-12 else np.zeros_like(rn)
    grads: dict[int, np.ndarray] = {}

    def add(item, g):
        grads[item] = grads.get(item, 0.0) + g

    add(s, gp)
    add(p, gp)
    add(o, -gp)
    add(cs, -gn)
    add(cp, -gn)
    add(co, gn)
    return grads


def test_margin_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        dim = int(rng.integers(2, 9))
        vectors = rng.normal(size=(8, dim))
        s, p, o = 0, 1, 2
        cs, co = 3, 4
        margin = 5.0  # large enough that the hinge stays active
        if margin_loss(vectors, (s, p, o), (cs, p, co), margin) <= 0:
            continue
        grads = margin_loss_grad(vectors, (s, p, o), (cs, p, co), margin)
        assert grads
        item = int(rng.choice(list(grads)))
        coord = int(rng.integers(0, dim))
        h = 1e-6
        up = vectors.copy()
        up[item, coord] += h
        down = vectors.copy()
        down[item, coord] -= h
        fd = (
            margin_loss(up, (s, p, o), (cs, p, co), margin)
            - margin_loss(down, (s, p, o), (cs, p, co), margin)
        ) / (2 * h)
        analytic = grads[item][coord]
        denom = max(abs(fd), abs(analytic), 1e-8)
        assert abs(fd - analytic) / denom < 1e-4
        checked += 1


def test_kernel_step_matches_reference_gradients():
    """One SGD step equals applying the analytic gradients by hand."""
    from qga import kernels

    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(6, 5))
    pos = np.array([[0, 1, 2]], dtype=np.int64)
    neg = np.array([[3, 1, 4]], dtype=np.int64)
    lr = 0.05
    margin = 5.0
    expect = vectors.copy()
    grads = margin_loss_grad(vectors, (0, 1, 2), (3, 1, 4), margin)
    for item, g in grads.items():
        expect[item] -= lr * g
    got = vectors.copy()
    kernels.sgd_epoch(got, pos, neg, lr, margin)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)
