"""HTTP clients for the three injected external services.

Wire contracts (all POST, JSON request bodies):

- responder endpoint: {"persona": str, "item": str} -> {"value": number}
- false-negative filter: {"query": str, "candidate": str} -> response body
  exactly "YES" or "NO" (no JSON, no whitespace tolerance)
- persona reviser: {"query": str, "candidate": str} -> {"persona": str}

Transport failures and 5xx responses are retried up to the configured count;
bodies that violate the contract raise ClientProtocolError immediately and
are never coerced.
"""

import json

import requests

from .core import _positive_real
from .errors import ClientProtocolError
from .rng import _integer

_DEFAULT_TIMEOUT = 10.0
_DEFAULT_RETRIES = 2


class _HttpClient:
    def __init__(self, endpoint, timeout=_DEFAULT_TIMEOUT, retries=_DEFAULT_RETRIES):
        self.endpoint = str(endpoint)
        self.timeout = _positive_real(timeout, "timeout", ClientProtocolError)
        self.retries = _integer(retries, "retries", ClientProtocolError)
        if self.retries < 0:
            raise ClientProtocolError(f"retries must be nonnegative, got {retries!r}")

    def _post(self, payload):
        last_exc = None
        for _attempt in range(self.retries + 1):
            try:
                resp = requests.post(self.endpoint, json=payload, timeout=self.timeout)
            except requests.RequestException as exc:
                last_exc = exc
                continue
            if resp.status_code >= 500:
                last_exc = ClientProtocolError(
                    f"{self.endpoint} returned status {resp.status_code}"
                )
                continue
            if resp.status_code != 200:
                raise ClientProtocolError(
                    f"{self.endpoint} returned status {resp.status_code}"
                )
            return resp
        raise ClientProtocolError(
            f"{self.endpoint} unreachable after {self.retries + 1} attempts: {last_exc}"
        )

    def _post_json(self, payload):
        resp = self._post(payload)
        try:
            return json.loads(resp.text)
        except json.JSONDecodeError as exc:
            raise ClientProtocolError(
                f"{self.endpoint} returned a non-JSON body: {resp.text[:80]!r}"
            ) from exc


class HttpResponder(_HttpClient):
    """Responder backed by an external endpoint.

    Determinism for fixed (persona, item, seed) is the endpoint's
    responsibility; the seed is not transmitted on the wire.
    """

    def respond(self, persona_narrative, item_text, seed):
        doc = self._post_json({"persona": str(persona_narrative), "item": str(item_text)})
        if not isinstance(doc, dict) or "value" not in doc:
            raise ClientProtocolError(f"responder body missing 'value': {doc!r}")
        value = doc["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ClientProtocolError(f"responder 'value' is not a number: {value!r}")
        return float(value)


class HttpFalseNegativeFilter(_HttpClient):
    """Filter client: True when the candidate is semantically aligned.

    The endpoint must answer with a body that is exactly "YES" or "NO";
    anything else is a protocol error.
    """

    def __call__(self, query, candidate):
        resp = self._post({"query": str(query), "candidate": str(candidate)})
        body = resp.text
        if body == "YES":
            return True
        if body == "NO":
            return False
        raise ClientProtocolError(f"filter body must be exactly YES or NO, got {body!r}")


class HttpReviser(_HttpClient):
    """Reviser client: returns the revised persona narrative."""

    def __call__(self, query, narrative):
        doc = self._post_json({"query": str(query), "candidate": str(narrative)})
        if not isinstance(doc, dict) or "persona" not in doc:
            raise ClientProtocolError(f"reviser body missing 'persona': {doc!r}")
        persona = doc["persona"]
        if not isinstance(persona, str):
            raise ClientProtocolError(f"reviser 'persona' is not a string: {persona!r}")
        return persona
