"""Wire-format round trips and validation for repro.serve.protocol."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MappingProblem, get_mapper
from repro.serve.protocol import (
    ProtocolError,
    decode_problem,
    encode_mapping,
    encode_problem,
    error_response,
    jsonify_meta,
)
from tests.conftest import make_problem


@pytest.fixture()
def problem(topo2) -> MappingProblem:
    return make_problem(8, topo2, seed=3, constraint_ratio=0.25)


def _round_trip(problem: MappingProblem, *, via_json: bool = True) -> MappingProblem:
    wire = encode_problem(problem)
    if via_json:
        wire = json.loads(json.dumps(wire))
    return decode_problem(wire)


class TestProblemRoundTrip:
    def test_dense_round_trip_preserves_content(self, problem):
        back = _round_trip(problem)
        assert back.fingerprint() == problem.fingerprint()
        np.testing.assert_array_equal(back.constraints, problem.constraints)
        np.testing.assert_array_equal(back.capacities, problem.capacities)

    def test_sparse_round_trip_preserves_content(self, problem):
        sparse = MappingProblem(
            CG=sp.csr_matrix(problem.dense_CG()),
            AG=sp.csr_matrix(problem.dense_AG()),
            LT=problem.LT.copy(),
            BT=problem.BT.copy(),
            capacities=problem.capacities.copy(),
            constraints=problem.constraints.copy(),
        )
        back = _round_trip(sparse)
        assert sp.issparse(back.CG)
        assert back.fingerprint() == sparse.fingerprint()

    def test_arrays_mode_skips_list_conversion(self, problem):
        wire = encode_problem(problem, arrays=True)
        assert isinstance(wire["LT"], np.ndarray)
        back = decode_problem(wire)
        assert back.fingerprint() == problem.fingerprint()

    def test_missing_field_raises(self, problem):
        wire = encode_problem(problem)
        del wire["BT"]
        with pytest.raises(ProtocolError, match="BT"):
            decode_problem(wire)

    def test_unknown_matrix_format_raises(self, problem):
        wire = encode_problem(problem)
        wire["CG"] = {"format": "coo", "rows": []}
        with pytest.raises(ProtocolError, match="format"):
            decode_problem(wire)

    def test_unsupported_version_raises(self, problem):
        wire = encode_problem(problem)
        wire["version"] = 99
        with pytest.raises(ProtocolError, match="version"):
            decode_problem(wire)

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError):
            decode_problem([1, 2, 3])

    def test_invalid_content_raises_value_error(self, problem):
        wire = encode_problem(problem)
        wire["capacities"] = [0] * problem.num_sites
        with pytest.raises(ValueError):
            decode_problem(wire)


def _csr_wire(shape, indptr, indices, data):
    """A two-site problem whose CG and AG are the given CSR triplet."""
    csr = {"format": "csr", "shape": shape, "indptr": indptr,
           "indices": indices, "data": data}
    return {
        "CG": csr,
        "AG": csr,
        "LT": [[1e-4, 0.05], [0.05, 1e-4]],
        "BT": [[1e9, 1e7], [1e7, 1e9]],
        "capacities": [8, 8],
    }


def _dense_or_none(shape, indptr, indices, data):
    """The matrix a CSR triplet encodes, or None if it is malformed."""
    if shape < 0 or len(indptr) != shape + 1 or len(indices) != len(data):
        return None
    if indptr[0] != 0 or any(a > b for a, b in zip(indptr, indptr[1:])):
        return None
    if indptr[-1] > len(indices):
        return None
    dense = np.zeros((shape, shape))
    for row in range(shape):
        for k in range(indptr[row], indptr[row + 1]):
            if not 0 <= indices[k] < shape:
                return None
            dense[row, indices[k]] += data[k]
    return dense


@st.composite
def _csr_triplets(draw):
    """Near-valid triplets: a sound indptr (sometimes shuffled) over
    column indices that may fall outside the matrix."""
    shape = draw(st.integers(0, 5))
    indptr = [0]
    for count in draw(st.lists(st.integers(0, 3), min_size=shape, max_size=shape)):
        indptr.append(indptr[-1] + count)
    if draw(st.booleans()):
        indptr = draw(st.permutations(indptr))
    nnz = max(indptr)
    indices = draw(st.lists(st.integers(-2, shape + 1), min_size=nnz, max_size=nnz))
    data = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=nnz, max_size=nnz))
    return shape, indptr, indices, data


def _raw_triplets():
    """Arbitrary short lists, mostly of mismatched lengths."""
    return st.tuples(
        st.integers(-1, 5),
        st.lists(st.integers(-2, 8), max_size=7),
        st.lists(st.integers(-2, 8), max_size=6),
        st.lists(
            st.floats(-1.0, 1e6, allow_nan=False)
            | st.sampled_from([float("nan"), float("inf")]),
            max_size=6,
        ),
    )


class TestMalformedCsr:
    @pytest.mark.parametrize(
        "indices, indptr, match",
        [
            ([-1], [0, 1, 1, 1, 1], "indices must be >= 0"),
            ([99], [0, 1, 1, 1, 1], "indices must be < 4"),
            ([1, 2], [0, 2, 1, 2, 2], "non-decreasing"),
            ([1, 2], [0, 2, 0, 0, 0], "non-decreasing"),
        ],
        ids=["negative-index", "index-out-of-range", "decreasing-indptr",
             "indptr-back-to-zero"],
    )
    def test_bad_structure_is_a_value_error_naming_the_matrix(
        self, indices, indptr, match
    ):
        wire = _csr_wire(4, indptr, indices, [1.0] * len(indices))
        with pytest.raises(ValueError, match=f"CG is not a valid sparse matrix: .*{match}"):
            decode_problem(wire)

    @settings(max_examples=300, deadline=None)
    @given(triplet=st.one_of(_csr_triplets(), _raw_triplets()))
    def test_fuzzed_triplets_decode_or_raise_a_request_error(self, triplet):
        shape, indptr, indices, data = triplet
        try:
            problem = decode_problem(_csr_wire(shape, indptr, indices, data))
        except (ProtocolError, ValueError, TypeError, KeyError):
            return
        # Only a well-formed triplet decodes, and to the matrix it encodes.
        expected = _dense_or_none(shape, indptr, indices, data)
        assert expected is not None
        np.testing.assert_array_equal(problem.CG.toarray(), expected)


class TestMappingEncoding:
    def test_cost_survives_json_bit_exactly(self, problem):
        mapping = get_mapper("greedy").map(problem, seed=0)
        wire = json.loads(json.dumps(encode_mapping(mapping)))
        assert wire["cost"] == mapping.cost  # exact float equality, not approx
        assert wire["assignment"] == mapping.assignment.tolist()
        assert wire["mapper"] == "greedy"

    def test_meta_is_jsonifiable(self):
        meta = jsonify_meta(
            {
                "count": np.int64(3),
                "score": np.float64(1.5),
                "arr": np.arange(3),
                "nested": {"pair": (1, 2)},
                "text": "x",
                "flag": True,
                "none": None,
            }
        )
        parsed = json.loads(json.dumps(meta))
        assert parsed["count"] == 3
        assert parsed["arr"] == [0, 1, 2]
        assert parsed["nested"]["pair"] == [1, 2]


class TestErrorResponse:
    def test_basic_shape(self):
        resp = error_response(7, 400, "nope")
        assert resp == {"id": 7, "ok": False, "code": 400, "error": "nope"}

    def test_retry_after_is_rounded(self):
        resp = error_response(None, 429, "busy", retry_after_s=0.123456)
        assert resp["retry_after_s"] == 0.123
