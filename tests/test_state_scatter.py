"""Iteration-mode state goes to the O ranks only.

The K-means job here has the shape of the ``kmeans_iter_shm`` benchmark
workload — a 2x2 world, 16 vectors, k=5, seed 1 — run for a few
supersteps.  Each round's control is one scatter: the O ranks' payload is
``("run", centroids)``, the A ranks' is ``("run",)``, and
``mode.state_bytes`` counts exactly those bytes.  Leaving the state off
the A ranks changes no output: the centroids are byte-identical on every
transport and in the Common replay.
"""

import pickle

import pytest

from repro.bigdatabench import generate_kmeans_vectors
from repro.mpi.transport.codec import PICKLE_PROTOCOL
from repro.workloads.kmeans import initial_centroids, kmeans_iterative_job

NUM_O = NUM_A = 2
K, SEED, ROUNDS = 5, 1, 4
VECTORS, _LABELS = generate_kmeans_vectors(16, seed=SEED)


def kmeans(rounds, transport="inline", mode="iteration"):
    return kmeans_iterative_job(
        VECTORS, K, max_iterations=rounds, epsilon=0.0, seed=SEED,
        parallelism=NUM_O, transport=transport, mode=mode,
    )


def dumps(control):
    return pickle.dumps(control, protocol=PICKLE_PROTOCOL)


@pytest.mark.parametrize("mode", ("iteration", "common"))
def test_state_bytes_count_the_o_and_a_controls_exactly(mode):
    # The centroids each round's O control carries: the initial sample,
    # then what a run stopped one round earlier ends with.
    states = [initial_centroids(VECTORS, K, SEED)] + [
        kmeans(rounds)[0].centroids for rounds in range(1, ROUNDS)]
    _clustering, result = kmeans(ROUNDS, mode=mode)
    assert len(result.per_iteration) == ROUNDS
    a_control = len(dumps(("run",)))
    for state, record in zip(states, result.per_iteration):
        o_control = len(dumps(("run", state)))
        assert record["mode.state_bytes"] == \
            o_control * (NUM_O - 1) + a_control * NUM_A


@pytest.fixture(scope="module")
def inline_centroids():
    return dumps(kmeans(ROUNDS)[0].centroids)


@pytest.mark.parametrize("mode", ("iteration", "common"))
@pytest.mark.parametrize("transport", ("inline", "thread", "shm", "tcp"))
def test_centroids_are_byte_identical_everywhere(transport, mode,
                                                 inline_centroids):
    assert dumps(kmeans(ROUNDS, transport, mode)[0].centroids) == inline_centroids
