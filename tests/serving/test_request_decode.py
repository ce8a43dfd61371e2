"""The rows-first request decoder against the JSON path it short-cuts.

``decode_rows_first`` must either decline a body or return exactly what
``json.loads`` + ``np.asarray(..., float64)`` return — compared as bytes, so
the sign of a zero counts — plus the rest of the document.  The server must
answer every body, decoded or declined, with the status and message of the
general path.
"""

from __future__ import annotations

import json
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serving.server as server_module
from repro.serving import PredictionServer
from repro.serving.jsonrows import decode_rows_first

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
NEVER = 1 << 62


def _reference(body: bytes):
    doc = json.loads(body.decode("utf-8"))
    return np.asarray(doc["rows"], dtype=np.float64), doc


def _decodes_like_json(body: bytes) -> bool:
    """Assert the decoder declines ``body`` or agrees with json bit for bit."""
    decoded = decode_rows_first(body)
    if decoded is None:
        return False
    matrix, rest = decoded
    expected, doc = _reference(body)
    assert matrix.dtype == np.float64 and matrix.shape == expected.shape
    assert matrix.tobytes() == expected.tobytes()
    assert rest == {**doc, "rows": []}
    return True


def _literals(seed: int, h: int, w: int, sign: str, whole: int, fraction: int) -> list:
    """``h`` rows of ``w`` literals of one shape: sign, digit counts, point."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, size=(h, w, whole + fraction)).astype(str)
    if whole > 1:
        digits[..., 0] = rng.integers(1, 10, size=(h, w)).astype(str)
    point = "." if fraction else ""
    return [
        [sign + "".join(d[:whole]) + point + "".join(d[whole:]) for d in row] for row in digits
    ]


def _body(rows: list, comma: str = ", ", before: str = "", after: str = "") -> bytes:
    array = "[" + comma.join("[" + comma.join(row) + "]" for row in rows) + "]"
    return ("{" + before + '"rows": ' + array + after + "}").encode()


shapes = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),  # rows
    st.integers(1, 12),  # literals per row
    st.sampled_from(["", "-"]),
    st.integers(1, 9),  # digits before the point
    st.integers(0, 8),  # digits after it (0: an integer literal)
)
extras = st.sampled_from(
    [
        "",
        ', "proba": true',
        ', "backend": "numpy", "sparse": "off"',
        ', "proba": "false"',
        ', "rows": [[1]]',
        ', "\\u0072ows": [[1]]',
        ', "note": "rows first"',
        ', "proba": NaN',
        ', "x": [1, [2, {"y": null}]]',
    ]
)


class TestDecoder:
    @SETTINGS
    @given(shapes, st.sampled_from([", ", ","]), extras)
    def test_uniform_literals_decode_bit_for_bit(self, shape, comma, after):
        seed, h, w, sign, whole, fraction = shape
        rows = _literals(seed, h, w, sign, whole, fraction)
        decoded = _decodes_like_json(_body(rows, comma, after=after))
        # Declined on purpose: > 15 digits, a later key spelled "rows" or escaped.
        fast_form = whole + fraction <= 15 and "rows" not in after and "\\" not in after
        assert decoded == fast_form

    @SETTINGS
    @given(st.lists(shapes, min_size=2, max_size=4), extras)
    def test_mixed_literals_decline_or_agree(self, parts, after):
        """Rows of four literals, each row of its own shape."""
        rows = []
        for seed, _, _, sign, whole, fraction in parts:
            rows += _literals(seed, 1, 4, sign, whole, fraction)
        _decodes_like_json(_body(rows, after=after))

    @SETTINGS
    @given(shapes, st.integers(0, 2), st.sampled_from(["", '"proba": false, ']))
    def test_pretty_printed_and_reordered_bodies_decline_or_agree(self, shape, indent, before):
        rows = _literals(*shape)
        doc = json.loads(_body(rows, before=before))
        _decodes_like_json(json.dumps(doc, indent=indent or None).encode())

    @pytest.mark.parametrize(
        "literal, expected",
        [("-0", 0.0), ("-0.0", -0.0), ("-0.000", -0.0), ("0.0", 0.0), ("-7", -7.0)],
    )
    def test_the_sign_of_zero_follows_float(self, literal, expected):
        body = _body([[literal, literal]])
        matrix, _ = decode_rows_first(body)
        assert matrix.tobytes() == np.array([[expected, expected]]).tobytes()
        assert _decodes_like_json(body)

    @pytest.mark.parametrize(
        "literal, decoded",
        [
            ("999999999999999", True),  # 15 digits
            ("9999999999999999", False),  # 16
            ("-99999999.9999999", True),
            ("0.000000000000001", False),  # 16 digits, one of them the leading 0
            ("01", False),
            ("-01.5", False),
            ("00.5", False),
            ("1.", False),
            (".5", False),
            ("-", False),
            ("1e5", False),
            ("1.5E-3", False),
            ("--1", False),
            ("1-1", False),
        ],
    )
    def test_literal_grammar(self, literal, decoded):
        assert (decode_rows_first(_body([[literal]] * 3)) is not None) == decoded

    @SETTINGS
    @given(
        shapes,
        st.integers(0, 10**6),
        st.sampled_from(list(b"0123456789-.,[] \n\"}{\\eE+tn")),
        st.booleans(),
    )
    def test_truncated_and_mutated_bodies_decline_or_agree(self, shape, where, byte, truncate):
        body = bytearray(_body(_literals(*shape)))
        where %= len(body)
        if truncate:
            del body[where:]
        else:
            body[where] = byte
        try:
            _reference(bytes(body))
        except (ValueError, KeyError, TypeError):
            assert decode_rows_first(bytes(body)) is None
        else:
            _decodes_like_json(bytes(body))


def _stub_server(width: int) -> PredictionServer:
    runner = types.SimpleNamespace(n_features=width, version=1, run_batch=None)
    return PredictionServer(runner, port=0)


def _answer(server: PredictionServer, body: bytes, gate: int):
    """``_parse_predict_body``'s outcome with the decoder gated at ``gate`` bytes."""
    saved = server_module.FAST_DECODE_MIN_BYTES
    server_module.FAST_DECODE_MIN_BYTES = gate
    try:
        matrix, *options = server._parse_predict_body(body)
    except server_module._BadRequest as exc:
        return exc.status, str(exc)
    finally:
        server_module.FAST_DECODE_MIN_BYTES = saved
    return 200, matrix.shape, matrix.tobytes(), options


class TestServerAnswers:
    @SETTINGS
    @given(
        shapes,
        extras,
        st.integers(0, 10**6),
        st.sampled_from(list(b"01-.,[] \"}tn")),
        st.sampled_from(["keep", "mutate", "truncate"]),
        st.booleans(),
    )
    def test_every_body_gets_the_general_paths_answer(
        self, shape, after, where, byte, edit, width_matches
    ):
        rows = _literals(*shape)
        body = bytearray(_body(rows, after=after))
        where %= len(body)
        if edit == "mutate":
            body[where] = byte
        elif edit == "truncate":
            del body[where:]
        server = _stub_server(len(rows[0]) + (0 if width_matches else 1))
        assert _answer(server, bytes(body), 0) == _answer(server, bytes(body), NEVER)

    def test_e2e_shaped_bodies_reach_json_loads_with_only_the_rest(self, monkeypatch):
        """A 64 x 280 body of 0/1 or 0.0/1.0 literals: json.loads sees <= 64 bytes."""
        rng = np.random.default_rng(0)
        x = np.zeros((64, 280), np.uint8)
        x[np.arange(64)[:, None], np.arange(28) * 10 + rng.integers(0, 10, (64, 28))] = 1
        server = _stub_server(280)
        seen = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: seen.append(len(s)) or loads(s, **kw))
        for rows in (x.tolist(), x.astype(np.float64).tolist()):
            seen.clear()
            matrix, proba, _, _ = server._parse_predict_body(json.dumps({"rows": rows}).encode())
            assert matrix.tobytes() == x.astype(np.float64).tobytes() and proba is False
            assert seen and max(seen) <= 64, seen
