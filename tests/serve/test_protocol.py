"""Unit tests for the NDJSON wire protocol and result projections."""

import json

import pytest

from repro.core.result import SensitiveTuple, SensitivityResult
from repro.dp.tsensdp import TSensDPOutcome
from repro.exceptions import (
    OverloadedError,
    PrivacyBudgetError,
    ProtocolError,
    ServeError,
    SessionError,
)
from repro.serve.protocol import (
    MAX_LINE,
    OPS,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    outcome_to_dict,
    parse_request,
    raise_remote,
    sensitivity_result_to_dict,
)


class TestFraming:
    def test_roundtrip(self):
        payload = {"id": 7, "op": "count"}
        line = encode_frame(payload)
        assert line.endswith(b"\n")
        assert decode_frame(line[:-1]) == payload

    def test_oversized_encode_raises(self):
        with pytest.raises(ProtocolError):
            encode_frame({"id": 1, "blob": "x" * (MAX_LINE + 1)})

    def test_oversized_decode_raises(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"x" * (MAX_LINE + 1))

    def test_non_json_raises(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json at all")

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2, 3]")


class TestRequests:
    def test_parse_splits_params(self):
        rid, op, params = parse_request(
            {"id": "a1", "op": "probe", "relation": "R", "rows": [[1]]}
        )
        assert (rid, op) == ("a1", "probe")
        assert params == {"relation": "R", "rows": [[1]]}

    def test_missing_id_raises(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "count"})

    def test_missing_or_bad_op_raises(self):
        with pytest.raises(ProtocolError):
            parse_request({"id": 1})
        with pytest.raises(ProtocolError):
            parse_request({"id": 1, "op": 5})
        with pytest.raises(ProtocolError):
            parse_request({"id": 1, "op": "drop_tables"})

    def test_every_advertised_op_parses(self):
        for op in OPS:
            assert parse_request({"id": 0, "op": op})[1] == op


class TestResponses:
    def test_ok_response_echoes_id_and_epoch(self):
        payload = ok_response("r1", {"count": 3}, epoch=4)
        assert payload == {
            "id": "r1",
            "ok": True,
            "result": {"count": 3},
            "epoch": 4,
        }

    def test_error_response_keeps_library_exception_names(self):
        payload = error_response(2, PrivacyBudgetError("empty"))
        assert payload["error"]["type"] == "PrivacyBudgetError"
        assert payload["error"]["message"] == "empty"

    def test_foreign_exceptions_degrade_to_serve_error(self):
        payload = error_response(2, RuntimeError("boom"))
        assert payload["error"]["type"] == "ServeError"

    def test_raise_remote_reconstructs_class(self):
        with pytest.raises(PrivacyBudgetError):
            raise_remote({"type": "PrivacyBudgetError", "message": "empty"})
        with pytest.raises(SessionError):
            raise_remote({"type": "SessionError", "message": "bad op"})
        with pytest.raises(OverloadedError):
            raise_remote({"type": "OverloadedError", "message": "queue full"})

    def test_overloaded_error_survives_the_wire(self):
        frame = encode_frame(error_response(3, OverloadedError("queue full")))
        error = decode_frame(frame)["error"]
        assert error == {"type": "OverloadedError", "message": "queue full"}
        # Still a ServeError, so generic client-side handlers catch it.
        with pytest.raises(ServeError) as raised:
            raise_remote(error)
        assert type(raised.value) is OverloadedError

    def test_raise_remote_unknown_type(self):
        with pytest.raises(ServeError):
            raise_remote({"type": "NoSuchError", "message": "?"})


class TestProjections:
    def test_sensitivity_result_projection(self):
        witness = SensitiveTuple("R", {"A": 1, "B": 2}, 5)
        result = SensitivityResult(
            query_name="Q",
            method="tsens",
            local_sensitivity=5,
            witness=witness,
            per_relation={"R": witness},
        )
        projected = sensitivity_result_to_dict(result)
        assert projected["local_sensitivity"] == 5
        assert projected["witness"]["assignment"] == {"A": 1, "B": 2}
        assert projected["per_relation"]["R"]["sensitivity"] == 5
        assert "tables" not in projected  # never serialised
        json.dumps(projected)  # wire-safe

    def test_no_witness_projects_to_none(self):
        result = SensitivityResult(
            query_name="Q", method="tsens", local_sensitivity=0, witness=None
        )
        assert sensitivity_result_to_dict(result)["witness"] is None

    def test_outcome_projection(self):
        outcome = TSensDPOutcome(
            answer=3.5,
            tau=4,
            global_sensitivity=4,
            noisy_estimate=3.5,
            true_count=3,
            truncated_count=3,
            epsilon=1.0,
            epsilon_threshold=0.5,
            ledger={"threshold": 0.5, "release": 0.5},
        )
        projected = outcome_to_dict(outcome)
        assert projected["mechanism_outcome"] == "TSensDPOutcome"
        assert projected["answer"] == 3.5
        json.dumps(projected)

    def test_non_dataclass_outcome_raises(self):
        with pytest.raises(ProtocolError):
            outcome_to_dict(object())
