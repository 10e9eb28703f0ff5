"""Wire-format round trips and validation for repro.serve.protocol."""

from __future__ import annotations

import base64
import json
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InputError
from repro.core import MappingProblem, get_mapper
from repro.serve.protocol import (
    BLOCK_DTYPES,
    ProtocolError,
    _array,
    decode_problem,
    encode_mapping,
    encode_problem,
    error_response,
    jsonify_meta,
)
from tests.conftest import make_problem
from tests.serve.blocks import block


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

    def test_numpy_array_field_is_refused(self, problem):
        """The decoder takes blocks only; the daemon's pool hop pickles the
        validated problem instead of passing arrays through the wire dict."""
        wire = encode_problem(problem)
        wire["LT"] = problem.LT.copy()
        with pytest.raises(ProtocolError, match=r"^LT must be a binary block .*, got ndarray$"):
            decode_problem(wire)

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
        wire["capacities"] = block([0] * problem.num_sites, "<i8")
        with pytest.raises(ValueError):
            decode_problem(wire)


def _csr_wire(shape, indptr, indices, data):
    """A two-site problem whose CG and AG are the given CSR triplet."""
    csr = {"format": "csr", "shape": shape, "indptr": block(indptr, "<i8"),
           "indices": block(indices, "<i8"), "data": block(data)}
    return {
        "CG": csr,
        "AG": csr,
        "LT": block([[1e-4, 0.05], [0.05, 1e-4]]),
        "BT": block([[1e9, 1e7], [1e7, 1e9]]),
        "capacities": block([8, 8], "<i8"),
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

    @pytest.mark.parametrize("shape", [2.9, "2", True, -1, None])
    def test_matrix_shape_must_be_a_non_negative_int(self, shape):
        wire = _csr_wire(shape, [0, 1, 2], [1, 0], [1.0, 2.0])
        with pytest.raises(ProtocolError, match=r"^CG\.shape must be a non-negative int"):
            decode_problem(wire)

    @settings(max_examples=300, deadline=None)
    @given(triplet=st.one_of(_csr_triplets(), _raw_triplets()))
    def test_fuzzed_triplets_decode_or_raise_a_request_error(self, triplet):
        shape, indptr, indices, data = triplet
        try:
            problem = decode_problem(_csr_wire(shape, indptr, indices, data))
        except InputError:
            return
        # Only a well-formed triplet decodes, and to the matrix it encodes.
        expected = _dense_or_none(shape, indptr, indices, data)
        assert expected is not None
        np.testing.assert_array_equal(problem.CG.toarray(), expected)


def _greedy(problem: MappingProblem):
    mapping = get_mapper("greedy").map(problem, seed=0)
    return mapping.assignment.tolist(), mapping.cost


def _as_int64(csr_wire: dict) -> dict:
    """The same CSR matrix with its index blocks re-packed as int64."""
    out = dict(csr_wire)
    for key in ("indptr", "indices"):
        raw = base64.b64decode(csr_wire[key]["b64"])
        out[key] = block(np.frombuffer(raw, "<i4").tolist(), "<i8")
    return out


class TestBlockRoundTrip:
    @pytest.mark.parametrize("coordinates", [True, False], ids=["coords", "no-coords"])
    @pytest.mark.parametrize("pins", [0.0, 0.25], ids=["free", "pinned"])
    @pytest.mark.parametrize("layout", ["dense", "csr-int32", "csr-int64"])
    def test_json_round_trip_is_byte_exact(self, topo2, layout, pins, coordinates):
        base = make_problem(8, topo2, seed=3, constraint_ratio=pins)
        convert = (lambda m: m) if layout == "dense" else sp.csr_matrix
        base = MappingProblem(
            CG=convert(base.dense_CG()), AG=convert(base.dense_AG()),
            LT=base.LT, BT=base.BT, capacities=base.capacities,
            constraints=base.constraints,
            coordinates=base.coordinates if coordinates else None,
        )
        wire = json.loads(json.dumps(encode_problem(base)))
        if layout == "csr-int64":
            wire["CG"], wire["AG"] = _as_int64(wire["CG"]), _as_int64(wire["AG"])
            assert wire["CG"]["indices"]["dtype"] == "<i8"
        elif layout == "csr-int32":
            assert wire["CG"]["indices"]["dtype"] == "<i4"
        back = decode_problem(wire)
        assert back.fingerprint() == base.fingerprint()
        assert (back.coordinates is None) == (not coordinates)
        np.testing.assert_array_equal(back.constraints, base.constraints)
        assert _greedy(back) == _greedy(base)  # exact cost, not approx

    def test_stdlib_block_matches_the_encoder(self, problem):
        wire = encode_problem(problem)
        assert block(problem.LT.tolist()) == wire["LT"]
        assert block(problem.capacities.tolist(), "<i8") == wire["capacities"]

    def test_decoded_block_owns_writable_native_memory(self):
        arr = _array("LT", block([[0.0, 1.5], [2.5, 0.0]]), 2)
        assert arr.flags.owndata and arr.flags.writeable
        assert arr.dtype == np.float64 and arr.dtype.isnative
        np.testing.assert_array_equal(arr, [[0.0, 1.5], [2.5, 0.0]])


class TestV1Refused:
    @pytest.mark.parametrize("field", ["LT", "BT", "capacities", "constraints", "coordinates"])
    def test_list_field_names_itself_and_the_block_format(self, problem, field):
        wire = encode_problem(problem)
        wire[field] = getattr(problem, field).tolist()
        with pytest.raises(ProtocolError, match=f"^{field} must be a binary block .*dtype.*b64"):
            decode_problem(wire)

    def test_a_whole_v1_problem_names_its_first_list(self, problem):
        v1 = {
            "version": 1,
            "CG": {"format": "dense", "rows": problem.dense_CG().tolist()},
            "AG": {"format": "dense", "rows": problem.dense_AG().tolist()},
            "LT": problem.LT.tolist(),
            "BT": problem.BT.tolist(),
            "capacities": problem.capacities.tolist(),
        }
        with pytest.raises(ProtocolError, match=r"^CG\.rows must be a binary block .*protocol v1"):
            decode_problem(json.loads(json.dumps(v1)))


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


@st.composite
def _blocks(draw):
    """A block with at most one part broken: its dtype, its shape, its
    byte count, its base64 text, or a missing key."""
    broken = draw(st.sampled_from([None, "dtype", "shape", "size", "b64", "key"]))
    dtype = draw(st.sampled_from(BLOCK_DTYPES))
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    if broken == "dtype":
        dtype = draw(
            st.sampled_from([">f8", ">i8", ">i4", "<f4", "<i2", "|u1", "f8", "float64", ""])
            | st.none() | st.integers(-1, 8) | st.lists(st.just("<f8"), max_size=2)
        )
    if broken == "shape":
        shape = draw(
            st.lists(st.integers(-3, 2**70), max_size=3)
            | st.lists(st.integers(0, 3) | st.lists(st.integers(0, 3), max_size=2),
                       min_size=1, max_size=3)
            | st.sampled_from(["3", 3, None, {"n": 3}, [True, 2], [2.0, 2.0], [0, 2**70]])
        )
    itemsize = int(dtype[2]) if dtype in BLOCK_DTYPES else 8
    if isinstance(shape, list) and all(type(d) is int and 0 <= d <= 4 for d in shape):
        nbytes = int(np.prod(shape)) * itemsize
    else:
        nbytes = draw(st.integers(0, 24))
    if broken == "size":
        nbytes = draw(st.sampled_from([nbytes + 1, abs(nbytes - 1), nbytes + itemsize]))
    b64 = _b64(draw(st.binary(min_size=nbytes, max_size=nbytes)))
    if broken == "b64":
        b64 = draw(
            st.sampled_from(["!!!!", "abc", "QQ=", "QUJD\n", "Q U J D", "\u00e9AAA", "===="])
            | st.none() | st.integers() | st.lists(st.integers(0, 255), max_size=3)
        )
    blk = {"dtype": dtype, "shape": shape, "b64": b64}
    if broken == "key":
        del blk[draw(st.sampled_from(sorted(blk)))]
    return blk


_FUZZ_TARGETS = ("CG.rows", "CG.indptr", "CG.indices", "CG.data", "CG", "LT", "capacities",
                 "coordinates")


def _small_wire() -> dict:
    return _csr_wire(2, [0, 1, 2], [1, 0], [1.0, 2.0])


def _fuzz_wire(target: str, blk: dict) -> dict:
    """A small valid problem with ``blk`` put where ``target`` names."""
    wire = _small_wire()
    if target == "CG.rows":
        wire["CG"] = {"format": "dense", "rows": blk}
    elif target.startswith("CG."):
        wire["CG"] = dict(wire["CG"], **{target[3:]: blk})
    else:
        wire[target] = blk
    return wire


class TestBlockFuzz:
    @settings(max_examples=400, deadline=None)
    @given(target=st.sampled_from(_FUZZ_TARGETS), blk=_blocks())
    def test_fuzzed_blocks_decode_or_raise_an_input_error(self, target, blk):
        wire = _fuzz_wire(target, blk)
        decode_problem(_small_wire())  # warm, outside the budget
        payload = len(json.dumps(wire))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            decode_problem(wire)
        except InputError:
            pass
        finally:
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # Nothing is allocated from a declared shape, only from the payload.
        assert peak <= 4 * payload + 2**20, (peak, payload)
        assert elapsed < 5.0


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
