"""Black-box model adapters and labeling functions.

Scripted models make the whole pipeline runnable and verifiable at desk
scale with exact seeded determinism; the endpoint client speaks the
common chat-completions wire shape so any compatible HTTP service can be
dropped in through configuration.  This module is the only place in the
package that constructs network requests.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import hashlib
import http.client
import json
import logging
import math
import os
import random
import re
import socket
import threading
import time
import urllib.parse
import urllib.request
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Protocol, runtime_checkable

from .ltl import TruthAssignment
from .trace import LabelingFunction, Memo, StepRecord, Trace, apply_labeler

logger = logging.getLogger(__name__)


def derive_seed(*parts: object) -> int:
    """Stable, platform-independent seed derived from the given parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SampleParams:
    temperature: float = 0.0
    seed: int = 0


@runtime_checkable
class BlackBoxModel(Protocol):
    """Produces the next output from the session's step records so far, labels
    included, and the current input; never sees monitor state or modifies ``history``."""

    def next_output(
        self, history: Sequence[StepRecord], input: str, params: SampleParams
    ) -> str: ...


@dataclass(frozen=True)
class ScriptedModel:
    """Deterministic replay or seeded per-step categorical sampling.

    With ``outputs`` the script is replayed verbatim and the stop token is
    emitted once exhausted.  With ``distributions`` each step draws from
    the step's categorical distribution (the last one repeats forever);
    draws depend only on (seed, step index), so concurrent samples with
    distinct seeds are order-independent.
    """

    outputs: tuple[str, ...] | None = None
    distributions: tuple[tuple[tuple[str, float], ...], ...] | None = None
    stop_token: str = "DONE"

    def __post_init__(self) -> None:
        if (self.outputs is None) == (self.distributions is None):
            raise ValueError("provide exactly one of outputs or distributions")
        if self.distributions is not None:
            if not self.distributions:
                raise ValueError("distributions must not be empty")
            for dist in self.distributions:
                if not dist or any(w < 0 for _, w in dist) or sum(w for _, w in dist) <= 0:
                    raise ValueError("each distribution needs nonnegative weights summing > 0")
        object.__setattr__(self, "_draws", Memo(functools.partial(self._draw, self.distributions)))

    def next_output(self, history: Sequence[StepRecord], input: str, params: SampleParams) -> str:
        t = len(history) + 1
        if self.outputs is not None:
            if t <= len(self.outputs):
                return self.outputs[t - 1]
            return self.stop_token
        return self._draws[params.seed, t]

    @staticmethod
    def _draw(distributions: tuple[tuple[tuple[str, float], ...], ...], key: tuple[int, int]) -> str:
        seed, t = key  # the text drawn at step index t, seeded by seed and t alone
        dist = distributions[min(t - 1, len(distributions) - 1)]
        rng = random.Random(f"{seed}:{t}")
        total = sum(w for _, w in dist)
        roll = rng.random() * total
        acc = 0.0
        for text, weight in dist:
            acc += weight
            if roll < acc:
                return text
        return dist[-1][0]


class EndpointError(RuntimeError):
    """Base class for endpoint client failures."""


class EndpointTimeoutError(EndpointError):
    pass


class EndpointStatusError(EndpointError):
    def __init__(self, status: int, body: str):
        super().__init__(f"endpoint returned HTTP {status}: {body[:200]}")
        self.status = status


class EndpointFormatError(EndpointError):
    pass


MAX_WAIT = threading.TIMEOUT_MAX / 2  # longest timeout or retry delay; ``time.sleep`` fails near TIMEOUT_MAX


@dataclass
class EndpointModel:
    """Client for a chat-completions-shaped HTTP endpoint.

    Calls go through one kept-alive ``http.client`` connection and through
    the proxy that the environment names for the URL, unless ``no_proxy``
    lists its host.  Redirects are not followed.
    """

    base_url: str
    model: str
    api_key_env: str = "LTLGUARD_API_KEY"
    system_prompt: str | None = None
    max_tokens: int | None = None
    timeout: float = 60.0
    retries: int = 3
    backoff: float = 1.0
    audit_log_path: str | None = None

    def __post_init__(self) -> None:
        if self.retries < 1:
            raise ValueError(f"retries must be at least 1, got {self.retries}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if not self.backoff >= 0:
            raise ValueError(f"backoff must be nonnegative, got {self.backoff}")
        for name, value in (("timeout", self.timeout), ("backoff", self.backoff)):
            if value > MAX_WAIT:
                raise ValueError(f"{name} must be at most {MAX_WAIT:.0f} seconds, got {value}")
        url = urllib.parse.urlsplit(self.base_url.rstrip("/") + "/chat/completions")
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL with a host, got {self.base_url!r}")
        self._connection, self._target, self._proxy_headers = self._connect(url)

    def _messages(self, history: Sequence[StepRecord], input: str) -> list[dict]:
        messages: list[dict] = []
        if self.system_prompt:
            messages.append({"role": "system", "content": self.system_prompt})
        for record in history:
            if record.input:
                messages.append({"role": "user", "content": record.input})
            messages.append({"role": "assistant", "content": record.output})
        if input:
            messages.append({"role": "user", "content": input})
        return messages

    def next_output(self, history: Sequence[StepRecord], input: str, params: SampleParams) -> str:
        body = {
            "model": self.model,
            "messages": self._messages(history, input),
            "temperature": params.temperature,
        }
        if self.max_tokens is not None:
            body["max_tokens"] = self.max_tokens
        body["seed"] = params.seed
        response = self._post_with_retries(body)
        try:
            content = response["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise EndpointFormatError(f"malformed response body: {err!r}") from err
        if not isinstance(content, str):
            raise EndpointFormatError(f"message content is not text: {content!r}")
        return content

    def _post_with_retries(self, body: dict) -> dict:
        payload = json.dumps(body, allow_nan=False).encode("utf-8")
        headers = {"Content-Type": "application/json", **self._proxy_headers}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error: EndpointError | None = None
        delay = self.backoff
        for attempt in range(self.retries):
            if attempt:
                time.sleep(delay * (0.5 + random.random() / 2))
                delay = min(2 * delay, MAX_WAIT)
            try:
                status, data = self._post(payload, headers)
            except TimeoutError:
                last_error = EndpointTimeoutError(f"request timed out after {self.timeout}s")
                continue
            except (OSError, http.client.HTTPException) as err:
                last_error = EndpointError(f"transport failure: {err}")
                continue
            if status >= 500 or status == 429:
                last_error = EndpointStatusError(status, data.decode("utf-8", "replace"))
                continue
            if status >= 300:
                raise EndpointStatusError(status, data.decode("utf-8", "replace"))
            try:
                parsed = json.loads(data)
            except ValueError as err:
                raise EndpointFormatError(f"response is not JSON: {err}") from err
            self._audit(body, parsed)
            return parsed
        assert last_error is not None
        raise last_error

    def _post(self, payload: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """Status and body of one POST.  A reused connection found closed is
        replaced and the request sent again; any failure closes the connection."""

        def send() -> http.client.HTTPResponse:
            self._connection.request("POST", self._target, payload, headers)
            if hasattr(socket, "TCP_QUICKACK"):
                # A server that writes the headers and the body in two
                # sends, with Nagle's algorithm on, holds the body back
                # until the headers are acknowledged; on a reused connection
                # the client delays that ACK by up to 40 ms.  TCP_QUICKACK
                # is not sticky, so it is set again before every response.
                with contextlib.suppress(OSError):
                    self._connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            return self._connection.getresponse()

        reused = self._connection.sock is not None
        try:
            try:
                response = send()
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is a ConnectionResetError
                if not reused:
                    raise
                self._connection.close()
                response = send()
            return response.status, response.read()
        except BaseException:
            self._connection.close()
            raise

    def _connect(self, url: urllib.parse.SplitResult) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
        """An unopened connection for ``url``, the request target and the proxy's
        headers for each request: through a proxy, an ``http`` request names the
        absolute URL, and an ``https`` one a ``CONNECT`` tunnel with the headers."""
        https = url.scheme == "https"
        connection_class = http.client.HTTPSConnection if https else http.client.HTTPConnection
        host, port = url.hostname, url.port or connection_class.default_port  # else a bare IPv6 host is misread
        target = url.path + (f"?{url.query}" if url.query else "")
        proxies = urllib.request.getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if not proxy or urllib.request.proxy_bypass(host):
            return connection_class(host, port, timeout=self.timeout), target, {}
        proxy = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        headers = {}
        if proxy.username is not None:
            credentials = f"{urllib.parse.unquote(proxy.username)}:{urllib.parse.unquote(proxy.password or '')}"
            headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode("latin-1")).decode("ascii")
        connection = connection_class(proxy.hostname, proxy.port or 80, timeout=self.timeout)
        if https:
            connection.set_tunnel(host, port, headers)
            return connection, target, {}
        return connection, url.geturl(), headers

    def _audit(self, request_body: dict, response_body: dict) -> None:
        if not self.audit_log_path:
            return
        entry = {"request": request_body, "response": response_body}
        with Path(self.audit_log_path).open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class RuleLabeler:
    """Deterministic regex labeler over the latest step's output: one rule
    for each proposition of the vocabulary, so that each one can be labeled."""

    vocabulary: frozenset[str]
    rules: Mapping[str, str]

    def __post_init__(self) -> None:
        extra = set(self.rules) - self.vocabulary
        if extra:
            raise ValueError(f"rules for undeclared propositions: {sorted(extra)}")
        if missing := self.vocabulary - set(self.rules):
            raise ValueError(f"no rule for vocabulary propositions: {sorted(missing)}")
        compiled = {p: re.compile(rx) for p, rx in self.rules.items()}
        # Labels by output text: a sampled output repeats, its labels do not change.
        object.__setattr__(self, "_labels", Memo(functools.partial(self._label, compiled)))

    def __call__(self, steps: Sequence[StepRecord]) -> TruthAssignment:
        return self._labels[steps[-1].output]

    @staticmethod
    def _label(compiled: Mapping[str, re.Pattern], text: str) -> TruthAssignment:
        return frozenset(p for p, rx in compiled.items() if rx.search(text))


@functools.cache
def load_template(name: str) -> str:
    """Text of a packaged prompt template, read once per process."""
    return resources.files("ltlguard.templates").joinpath(name).read_text(encoding="utf-8")


_YES_NO_LINE = re.compile(r"^\s*(?P<prop>[A-Za-z0-9_]+)\s*:\s*(?P<answer>yes|no)\b", re.IGNORECASE)


@dataclass
class EndpointLabeler:
    """Asks an endpoint one yes/no question list per step.

    Unparseable answers count the proposition as absent and are recorded —
    the labeler never silently asserts truth.  Very long histories are
    truncated to a tail window; truncations are recorded too.
    """

    endpoint: EndpointModel
    vocabulary: frozenset[str]
    temperature: float = 0.0
    max_context_chars: int = 8000
    warnings: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.temperature = float(self.temperature)
        if self.max_context_chars < 1:
            raise ValueError(f"max_context_chars must be at least 1, got {self.max_context_chars}")

    def __call__(self, steps: Sequence[StepRecord]) -> TruthAssignment:
        template = load_template("label_prompt.txt")
        t = steps[-1].t
        context = self._context(steps)
        prompt = template.replace("{text}", context).replace(
            "{propositions}", "\n".join(sorted(self.vocabulary))
        )
        reply = self.endpoint.next_output(
            [], prompt, SampleParams(temperature=self.temperature, seed=derive_seed("label", t))
        )
        answers: dict[str, bool] = {}
        for line in reply.splitlines():
            m = _YES_NO_LINE.match(line)
            if m and m.group("prop") in self.vocabulary:
                answers[m.group("prop")] = m.group("answer").lower() == "yes"
        missing = self.vocabulary - answers.keys()
        for prop in sorted(missing):
            self.warnings.append({"t": t, "kind": "unparseable", "proposition": prop})
            logger.warning("step %d: no parseable answer for %r; treating as absent", t, prop)
        return frozenset(p for p, yes in answers.items() if yes)

    def _context(self, steps: Sequence[StepRecord]) -> str:
        """The tail window of the history's lines, read back from the last
        step only as far as the window reaches."""
        chunks: list[str] = []  # one per step, newest first
        size = -1  # length of the chunks joined by newlines
        for s in reversed(steps):
            if size > self.max_context_chars:
                break
            line = f"output {s.t}: {s.output}"
            chunks.append(f"input {s.t}: {s.input}\n{line}" if s.input else line)
            size += len(chunks[-1]) + 1
        text = "\n".join(reversed(chunks))
        if size > self.max_context_chars:
            text = text[-self.max_context_chars :]
            self.warnings.append({"t": steps[-1].t, "kind": "truncated"})
        return text


@dataclass(frozen=True)
class PropositionAccuracy:
    proposition: str
    accuracy: float
    half_width: float
    decisions: int


@dataclass(frozen=True)
class LabelerAccuracy:
    accuracy: float
    half_width: float
    decisions: int
    per_proposition: Mapping[str, PropositionAccuracy]


def confidence_half_width(accuracy: float, n: int) -> float:
    """Half-width of the normal-approximation 95% interval of an accuracy over ``n`` trials."""
    if n == 0:
        return 0.0
    return 1.96 * math.sqrt(accuracy * (1 - accuracy) / n)


def measure_labeler_accuracy(
    labeler: LabelingFunction, traces: Iterable[Trace]
) -> LabelerAccuracy:
    """Per-(step, proposition) agreement with ground-truth labels.

    Every trace must carry embedded ground-truth labels; the labeler
    relabels each trace through ``apply_labeler``, so it sees its own past
    labels and never the ground truth.
    """
    per_prop: dict[str, list[int]] = {p: [0, 0] for p in sorted(labeler.vocabulary)}  # [hits, decisions]
    for trace in traces:
        for record in trace.steps:
            if record.labels is None:
                raise ValueError(f"trace step {record.t} lacks ground-truth labels")
        for record, predicted in zip(trace.steps, apply_labeler(trace, labeler, overwrite=True).steps):
            for prop, counts in per_prop.items():
                counts[0] += (prop in predicted.labels) == (prop in record.labels)
                counts[1] += 1
    correct = sum(hits for hits, _ in per_prop.values())
    total = sum(n for _, n in per_prop.values())
    accuracy = correct / total if total else 0.0
    per_proposition = {
        p: PropositionAccuracy(
            p, hits / n if n else 0.0, confidence_half_width(hits / n if n else 0.0, n), n
        )
        for p, (hits, n) in per_prop.items()
    }
    return LabelerAccuracy(accuracy, confidence_half_width(accuracy, total), total, per_proposition)
