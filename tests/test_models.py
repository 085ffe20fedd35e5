"""Scripted and endpoint model adapters, labelers, and accuracy measurement."""

import base64
import collections
import gc
import json
import random
import re
import socket
import socketserver
import statistics
import threading
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ltlguard import trace
from ltlguard.models import (
    EndpointFormatError,
    EndpointLabeler,
    EndpointModel,
    EndpointError,
    EndpointStatusError,
    EndpointTimeoutError,
    RuleLabeler,
    SampleParams,
    ScriptedModel,
    derive_seed,
    measure_labeler_accuracy,
)
from ltlguard.synthbench.events import CATEGORIES, AttributeEvent, AttributeEventLabeler, load_vocabulary, render_step
from ltlguard.trace import LABEL_MEMO_SIZE, LabelingError, StepRecord, Trace
from mock_endpoint import MockEndpoint


def params(seed=0, temperature=0.0):
    return SampleParams(temperature=temperature, seed=seed)


class RawServer:
    """A local TCP server below HTTP.  Given a ``reply``, it reads each
    connection's request head and sends the reply; then it closes the
    connection.  ``heads`` holds one entry per connection, empty if unread."""

    def __init__(self, reply=None):
        heads = self.heads = []

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                head = b""
                while reply is not None and b"\r\n\r\n" not in head:
                    chunk = self.request.recv(4096)
                    if not chunk:
                        break
                    head += chunk
                heads.append(head)  # before the client can see the reply or the close
                if reply is not None:
                    self.request.sendall(reply)

        self.server = socketserver.TCPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,), daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        return False


class TestScriptedModel:
    def test_replays_script(self):
        model = ScriptedModel(outputs=("a", "b"))
        assert model.next_output([], "x", params()) == "a"
        assert model.next_output([("x", "a")], "", params()) == "b"

    def test_exhausted_script_emits_stop_token(self):
        model = ScriptedModel(outputs=("a",))
        assert model.next_output([("x", "a")], "", params()) == "DONE"

    def test_same_seed_same_draws(self):
        model = ScriptedModel(distributions=((("heads", 0.5), ("tails", 0.5)),))
        first = [model.next_output([("", "?")] * i, "", params(seed=42)) for i in range(50)]
        second = [model.next_output([("", "?")] * i, "", params(seed=42)) for i in range(50)]
        assert first == second

    def test_different_seeds_vary(self):
        model = ScriptedModel(distributions=((("heads", 0.5), ("tails", 0.5)),))
        draws = {model.next_output([], "", params(seed=s)) for s in range(40)}
        assert draws == {"heads", "tails"}

    def test_last_distribution_repeats(self):
        model = ScriptedModel(distributions=((("a", 1.0),), (("b", 1.0),)))
        assert model.next_output([], "", params()) == "a"
        assert model.next_output([("", "a")], "", params()) == "b"
        assert model.next_output([("", "a")] * 10, "", params()) == "b"

    def test_empirical_frequency_tracks_weights(self):
        model = ScriptedModel(distributions=((("bad", 0.3), ("ok", 0.7)),))
        counts = collections.Counter(
            model.next_output([], "", params(seed=s)) for s in range(4000)
        )
        assert counts["bad"] / 4000 == pytest.approx(0.3, abs=0.03)

    @pytest.mark.parametrize("bound", [8, LABEL_MEMO_SIZE])
    def test_memoized_draws_equal_fresh_draws(self, monkeypatch, bound):
        # Each draw, repeated or new, is the text a fresh Random(f"{seed}:{t}")
        # picks; two models never share a draw at the same (seed, t).
        monkeypatch.setattr(trace, "LABEL_MEMO_SIZE", bound)

        def fresh(dist, seed, t):
            roll = random.Random(f"{seed}:{t}").random() * sum(w for _, w in dist)
            acc = 0.0
            for text, weight in dist:
                acc += weight
                if roll < acc:
                    return text
            return dist[-1][0]

        scripts = [
            ((("a", 0.2), ("b", 0.5), ("c", 0.3)), (("d", 1.0), ("e", 1.0))),
            ((("x", 1.0), ("y", 3.0)),),
        ]
        models_ = [ScriptedModel(distributions=dists) for dists in scripts]
        rng = random.Random(2803)
        for i in range(3 * bound):
            seed = 10**6 + i if i % 3 == 0 else rng.randrange(4)  # a new draw, or mostly repeats
            t = rng.randint(1, 4)
            history = [StepRecord(j, "", "?") for j in range(1, t)]
            for model, dists in zip(models_, scripts):
                expected = fresh(dists[min(t, len(dists)) - 1], seed, t)
                assert model.next_output(history, "", params(seed=seed)) == expected
                assert len(model._draws) <= bound

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScriptedModel()
        with pytest.raises(ValueError):
            ScriptedModel(outputs=("a",), distributions=((("b", 1.0),),))
        with pytest.raises(ValueError):
            ScriptedModel(distributions=(((("a"), -1.0),),))


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed("a", 1) != derive_seed("b", 1)


class TestEndpointModel:
    def test_round_trip(self):
        with MockEndpoint(lambda body: "hello there") as mock:
            model = EndpointModel(base_url=mock.base_url, model="test-model")
            out = model.next_output([StepRecord(1, "hi", "yo")], "next?", params(temperature=0.2))
        assert out == "hello there"
        body = mock.requests[0]["body"]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.2
        assert [m["role"] for m in body["messages"]] == ["user", "assistant", "user"]

    def test_empty_inputs_skipped_in_messages(self):
        with MockEndpoint() as mock:
            model = EndpointModel(base_url=mock.base_url, model="m")
            model.next_output([StepRecord(1, "", "first"), StepRecord(2, "", "second")], "", params())
        roles = [m["role"] for m in mock.requests[0]["body"]["messages"]]
        assert roles == ["assistant", "assistant"]

    def test_system_prompt_prepended(self):
        with MockEndpoint() as mock:
            model = EndpointModel(base_url=mock.base_url, model="m", system_prompt="be safe")
            model.next_output([], "go", params())
        messages = mock.requests[0]["body"]["messages"]
        assert messages[0] == {"role": "system", "content": "be safe"}

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("TEST_GUARD_KEY", "sekret")
        with MockEndpoint() as mock:
            model = EndpointModel(base_url=mock.base_url, model="m", api_key_env="TEST_GUARD_KEY")
            model.next_output([], "go", params())
        assert mock.requests[0]["headers"].get("Authorization") == "Bearer sekret"

    def test_unreachable_url_raises_transport_error(self):
        model = EndpointModel(
            base_url="http://127.0.0.1:1/v1", model="m", retries=2, backoff=0.01
        )
        with pytest.raises(EndpointError):
            model.next_output([], "go", params())

    def test_client_error_not_retried(self):
        with MockEndpoint(status=400, raw_body=b'{"error": "bad"}') as mock:
            model = EndpointModel(base_url=mock.base_url, model="m", retries=3, backoff=0.01)
            with pytest.raises(EndpointStatusError) as err:
                model.next_output([], "go", params())
        assert err.value.status == 400
        assert len(mock.requests) == 1

    def test_server_error_retried_then_raised(self):
        with MockEndpoint(status=500, raw_body=b"oops") as mock:
            model = EndpointModel(base_url=mock.base_url, model="m", retries=2, backoff=0.01)
            with pytest.raises(EndpointStatusError):
                model.next_output([], "go", params())
        assert len(mock.requests) == 2

    def test_malformed_body(self):
        with MockEndpoint(raw_body=b'{"not_choices": []}') as mock:
            model = EndpointModel(base_url=mock.base_url, model="m")
            with pytest.raises(EndpointFormatError):
                model.next_output([], "go", params())

    def test_max_tokens_in_request_body(self):
        with MockEndpoint() as mock:
            EndpointModel(base_url=mock.base_url, model="m", max_tokens=7).next_output([], "go", params())
        assert mock.requests[0]["body"]["max_tokens"] == 7

    def test_slow_reply_times_out(self):
        def slow(body):
            time.sleep(0.5)
            return "late"

        with MockEndpoint(slow) as mock:
            model = EndpointModel(base_url=mock.base_url, model="m", timeout=0.1, retries=1)
            with pytest.raises(EndpointTimeoutError, match="timed out after 0.1s"):
                model.next_output([], "go", params())
        assert len(mock.requests) == 1

    def test_non_text_content(self):
        with MockEndpoint(lambda body: 5) as mock:
            model = EndpointModel(base_url=mock.base_url, model="m")
            with pytest.raises(EndpointFormatError, match="message content is not text: 5"):
                model.next_output([], "go", params())

    def test_non_json_body(self):
        with MockEndpoint(raw_body=b"<html>busy</html>") as mock:
            model = EndpointModel(base_url=mock.base_url, model="m")
            with pytest.raises(EndpointFormatError, match="response is not JSON"):
                model.next_output([], "go", params())

    def test_audit_log_written(self, tmp_path):
        log = tmp_path / "audit.jsonl"
        with MockEndpoint(lambda body: "fine") as mock:
            model = EndpointModel(base_url=mock.base_url, model="m", audit_log_path=str(log))
            model.next_output([], "go", params())
        entry = json.loads(log.read_text().splitlines()[0])
        assert entry["request"]["messages"][-1]["content"] == "go"
        assert entry["response"]["choices"]


class TestConnectionReuse:
    """Calls share a keep-alive connection and do not wait on delayed ACKs."""

    def test_calls_share_one_connection(self):
        with MockEndpoint(keep_alive=True) as mock:
            model = EndpointModel(base_url=mock.base_url, model="m")
            for i in range(30):
                model.next_output([], f"go {i}", params())
        assert len(mock.requests) == 30
        assert mock.connections == 1

    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK on this platform")
    def test_reused_connection_does_not_stall(self):
        # The mock writes headers and body separately; a client that delays
        # its ACK of the headers waits about 40 ms for the body.
        with MockEndpoint(keep_alive=True) as mock:
            model = EndpointModel(base_url=mock.base_url, model="m")
            times = []
            for i in range(30):
                start = time.perf_counter()
                model.next_output([], f"go {i}", params())
                times.append(time.perf_counter() - start)
        assert mock.connections == 1
        assert statistics.median(times) < 0.020


class TestEnvironmentProxy:
    """``HTTP_PROXY`` routes an ``http`` endpoint through the proxy, and
    ``HTTPS_PROXY`` an ``https`` one through a ``CONNECT`` tunnel."""

    def test_http_proxy_gets_absolute_target_and_credentials(self, monkeypatch):
        for name in ("http_proxy", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with MockEndpoint(keep_alive=True) as mock:
            host, port = mock.server.server_address
            monkeypatch.setenv("HTTP_PROXY", f"http://user:p%40ss@{host}:{port}")
            model = EndpointModel(base_url="http://ltlguard.invalid/v1", model="m")
            for i in range(3):
                assert model.next_output([], f"go {i}", params()) == "ok"
        assert [r["path"] for r in mock.requests] == ["http://ltlguard.invalid/v1/chat/completions"] * 3
        credentials = base64.b64encode(b"user:p@ss").decode("ascii")
        assert {r["headers"].get("Proxy-Authorization") for r in mock.requests} == {f"Basic {credentials}"}
        assert mock.connections == 1

    def test_https_proxy_gets_credentials_on_connect_only(self, monkeypatch):
        # The proxy refuses the tunnel, so no request is sent through it.
        for name in ("https_proxy", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with RawServer(b"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n") as proxy:
            host, port = proxy.server.server_address
            monkeypatch.setenv("HTTPS_PROXY", f"http://user:p%40ss@{host}:{port}")
            model = EndpointModel(base_url="https://ltlguard.invalid/v1", model="m", retries=1)
            with pytest.raises(EndpointError, match="Tunnel connection failed: 403"):
                model.next_output([], "go", params())
        (head,) = proxy.heads
        request_line, *headers = head.decode("latin-1").split("\r\n")
        assert request_line.startswith("CONNECT ltlguard.invalid:443 HTTP/1.")
        credentials = base64.b64encode(b"user:p@ss").decode("ascii")
        assert f"Proxy-Authorization: Basic {credentials}" in headers
        assert (model._target, model._proxy_headers) == ("/v1/chat/completions", {})


class TestStaleConnection:
    def test_connection_closed_while_idle_is_replaced(self):
        # The mock closes a connection idle for 0.1 s, so every call after
        # the first finds its kept connection closed by the server.
        with MockEndpoint(keep_alive=True, idle_timeout=0.1) as mock:
            model = EndpointModel(base_url=mock.base_url, model="m", retries=1)
            outputs = []
            for i in range(3):
                if i:
                    time.sleep(0.3)
                outputs.append(model.next_output([], f"go {i}", params()))
        assert outputs == ["ok"] * 3
        assert len(mock.requests) == 3
        assert mock.connections == 3

    def test_connection_closed_before_its_first_reply_fails_the_attempt(self):
        # Only a reused connection is replaced and the request sent again: a
        # new one that the server closes is a failed attempt, retried.
        with RawServer() as server:
            host, port = server.server.server_address
            model = EndpointModel(base_url=f"http://{host}:{port}/v1", model="m", retries=3, backoff=0)
            with pytest.raises(EndpointError, match="transport failure"):
                model.next_output([], "go", params())
        assert len(server.heads) == 3


class TestRuleLabeler:
    def test_keyword_match(self):
        labeler = RuleLabeler(frozenset({"stop"}), {"stop": r"STOP"})
        steps = [StepRecord(1, "", "STOP now")]
        assert labeler(steps) == frozenset({"stop"})

    def test_no_match(self):
        labeler = RuleLabeler(frozenset({"stop"}), {"stop": r"\bSTOP\b"})
        assert labeler([StepRecord(1, "", "go")]) == frozenset()

    def test_rules_must_be_declared(self):
        with pytest.raises(ValueError, match="undeclared"):
            RuleLabeler(frozenset({"a"}), {"b": "x"})

    def test_every_proposition_needs_a_rule(self):
        # A proposition without a rule could never be labeled, so a
        # constraint over it would pass the vocabulary check and never fire.
        with pytest.raises(ValueError, match=r"no rule for vocabulary propositions: \['b'\]"):
            RuleLabeler(frozenset({"a", "b"}), {"a": "x"})

    def test_deterministic(self):
        labeler = RuleLabeler(frozenset({"x", "y"}), {"x": "foo", "y": "bar"})
        steps = [StepRecord(1, "", "foo and bar")]
        assert labeler(steps) == labeler(steps) == frozenset({"x", "y"})

    @pytest.mark.parametrize("bound", [8, LABEL_MEMO_SIZE])
    def test_memoized_labels_equal_fresh_evaluation(self, monkeypatch, bound):
        # Every labeler that keeps labels by output (the rule labeler, and the
        # untagged and a tagged event labeler) answers repeated and new
        # outputs as a fresh evaluation does, its memo within the bound.
        monkeypatch.setattr(trace, "LABEL_MEMO_SIZE", bound)
        rules = {"bad": r"\bbad\b", "ok": r"\bok\b", "stop": r"STOP$"}
        rng = random.Random(2802)
        words = ("bad", "ok", "okay", "STOP", "move", "")

        def rule_output(i):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 4)))
            if i % 3 == 0:
                text += f" {i}"  # a new output, so that the memo fills
            return text, frozenset(p for p, rx in rules.items() if re.search(rx, text))

        def event_output(entities, tagged):
            vocab = load_vocabulary()
            few = {category: values[:2] for category, values in vocab.items()}

            def output(i):
                values = vocab if i % 3 == 0 else few  # mostly repeats, some new outputs
                events = [
                    AttributeEvent(e, *(rng.choice(values[category]) for category in CATEGORIES))
                    for e in range(1, entities + 1)
                ]
                text = render_step(events, rng.randint(1, 4), tagged)
                return text, frozenset().union(*(event.props(tagged) for event in events))

            return output

        cases = [
            (RuleLabeler(frozenset(rules), rules), rule_output),
            (AttributeEventLabeler(), event_output(1, False)),
            (AttributeEventLabeler(entities=3, tagged=True), event_output(3, True)),
        ]
        for labeler, output in cases:
            for i in range(3 * bound):
                text, expected = output(i)
                labels = labeler([StepRecord(1, "in", "ok"), StepRecord(2, "", text)])
                assert labels == expected
                assert len(labeler._labels) <= bound


@pytest.mark.parametrize(
    "build",
    [
        lambda: RuleLabeler(frozenset({"bad"}), {"bad": "bad"}),
        lambda: AttributeEventLabeler(entities=3),
        lambda: ScriptedModel(distributions=((("bad", 1.0),),)),
    ],
    ids=["rule", "event", "scripted"],
)
def test_memo_owner_is_freed_without_the_collector(build):
    # A memo's function holds no reference to its owner, so a labeler or
    # model dropped after use frees its memo at once, as a plain dict would.
    owner = build()
    if isinstance(owner, ScriptedModel):
        owner.next_output([], "", params())
    else:
        owner([StepRecord(1, "", "bad")])
    ref = weakref.ref(owner)
    gc.disable()
    try:
        del owner
        assert ref() is None
    finally:
        gc.enable()


class TestEndpointLabeler:
    def make(self, mock, vocab=("pickup", "putdown")):
        endpoint = EndpointModel(base_url=mock.base_url, model="labeler")
        return EndpointLabeler(endpoint=endpoint, vocabulary=frozenset(vocab))

    def test_parses_yes_no_lines(self):
        def reply(body):
            return "pickup: yes\nputdown: NO\n"

        with MockEndpoint(reply) as mock:
            labeler = self.make(mock)
            labels = labeler([StepRecord(1, "", "grab the box")])
        assert labels == frozenset({"pickup"})
        assert labeler.warnings == []

    def test_unparseable_reply_is_absent_with_warning(self):
        with MockEndpoint(lambda body: "cannot say") as mock:
            labeler = self.make(mock)
            labels = labeler([StepRecord(1, "", "grab")])
        assert labels == frozenset()
        assert {w["proposition"] for w in labeler.warnings} == {"pickup", "putdown"}

    def test_one_request_per_step_with_all_propositions(self):
        with MockEndpoint(lambda body: "pickup: yes\nputdown: no") as mock:
            labeler = self.make(mock)
            labeler([StepRecord(1, "", "grab")])
        assert len(mock.requests) == 1
        prompt = mock.requests[0]["body"]["messages"][-1]["content"]
        assert "pickup" in prompt and "putdown" in prompt

    def test_long_history_truncated_and_recorded(self):
        with MockEndpoint(lambda body: "pickup: no\nputdown: no") as mock:
            labeler = self.make(mock)
            labeler.max_context_chars = 50
            steps = [StepRecord(i, "", "x" * 40) for i in range(1, 5)]
            steps = [StepRecord(i + 1, "", "x" * 40) for i in range(0)] or [
                StepRecord(1, "", "x" * 40),
                StepRecord(2, "", "y" * 40),
            ]
            labeler(steps)
        assert any(w["kind"] == "truncated" for w in labeler.warnings)


def joined_then_sliced(steps, limit):
    """The context window as the whole history joined, then cut to its tail."""
    lines = []
    for s in steps:
        if s.input:
            lines.append(f"input {s.t}: {s.input}")
        lines.append(f"output {s.t}: {s.output}")
    text = "\n".join(lines)
    return (text[-limit:], True) if len(text) > limit else (text, False)


class TestEndpointLabelerContext:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.text(max_size=12), st.text(max_size=12)), min_size=1, max_size=8),
        st.data(),
    )
    def test_walk_back_matches_join_then_slice(self, pairs, data):
        steps = [StepRecord(t, inp, out) for t, (inp, out) in enumerate(pairs, 1)]
        full = len(joined_then_sliced(steps, 10**9)[0])
        # Limits around the full length, text exactly at the limit included.
        limit = data.draw(st.one_of(st.sampled_from([full - 1, full, full + 1]), st.integers(1, full + 5)))
        labeler = EndpointLabeler(endpoint=None, vocabulary=frozenset(), max_context_chars=limit)
        text = labeler._context(steps)
        expected, truncated = joined_then_sliced(steps, limit)
        assert text == expected
        assert labeler.warnings == ([{"t": len(steps), "kind": "truncated"}] if truncated else [])


class GroundTruthEcho:
    """Labeler that reproduces the embedded truth (for accuracy fixtures)."""

    def __init__(self, truth_by_step, vocabulary):
        self.truth_by_step = truth_by_step
        self.vocabulary = frozenset(vocabulary)

    def __call__(self, steps):
        return self.truth_by_step[steps[-1].t]


class TestMeasureLabelerAccuracy:
    def fixture_trace(self):
        return Trace(
            tuple(
                StepRecord(i, "", f"o{i}", labels)
                for i, labels in enumerate(
                    [frozenset({"a"}), frozenset(), frozenset({"a", "b"})], 1
                )
            )
        )

    def test_ground_truth_scores_one(self):
        trace = self.fixture_trace()
        labeler = GroundTruthEcho({s.t: s.labels for s in trace.steps}, {"a", "b"})
        result = measure_labeler_accuracy(labeler, [trace])
        assert result.accuracy == 1.0
        assert result.decisions == 6

    def test_flipped_labeler_scores_zero(self):
        trace = self.fixture_trace()
        vocab = frozenset({"a", "b"})
        labeler = GroundTruthEcho(
            {s.t: vocab - s.labels for s in trace.steps}, vocab
        )
        assert measure_labeler_accuracy(labeler, [trace]).accuracy == 0.0

    def test_single_error_rate(self):
        # 25 steps x 2 propositions = 50 decisions; exactly one wrong.
        labels = [frozenset({"a"}) for _ in range(25)]
        trace = Trace(
            tuple(StepRecord(i, "", "o", l) for i, l in enumerate(labels, 1))
        )
        truth = {s.t: s.labels for s in trace.steps}
        truth_wrong = dict(truth)
        truth_wrong[13] = frozenset({"a", "b"})
        labeler = GroundTruthEcho(truth_wrong, {"a", "b"})
        result = measure_labeler_accuracy(labeler, [trace])
        assert result.accuracy == pytest.approx(0.98)
        assert result.per_proposition["b"].accuracy == pytest.approx(24 / 25)

    def test_labeler_sees_its_own_past_labels_not_the_truth(self):
        trace = self.fixture_trace()
        seen = []

        class Recorder:
            vocabulary = frozenset({"a", "b"})

            def __call__(self, steps):
                seen.append([s.labels for s in steps])
                return frozenset({"b"})

        measure_labeler_accuracy(Recorder(), [trace])
        b = frozenset({"b"})
        assert seen == [[None], [b, None], [b, b, None]]

    def test_undeclared_proposition_raises(self):
        trace = self.fixture_trace()
        labeler = GroundTruthEcho({s.t: frozenset({"a", "zzz"}) for s in trace.steps}, {"a", "b"})
        with pytest.raises(LabelingError, match="step 1: undeclared proposition\\(s\\): zzz"):
            measure_labeler_accuracy(labeler, [trace])

    def test_requires_ground_truth(self):
        trace = Trace((StepRecord(1, "", "o"),))
        labeler = GroundTruthEcho({}, {"a"})
        with pytest.raises(ValueError, match="ground-truth"):
            measure_labeler_accuracy(labeler, [trace])


class TestSingleEgressPoint:
    def test_only_models_module_talks_http(self):
        # models.py holds the endpoint client; no other module may import a
        # network library or name the standard library's HTTP modules.
        src = Path(__file__).parent.parent / "src" / "ltlguard"
        offenders = []
        for path in src.rglob("*.py"):
            if path.name == "models.py":
                continue
            text = path.read_text(encoding="utf-8")
            imports = r"^\s*(import|from) (requests|urllib3|socket)|^\s*from (http|urllib) import (client|request)\b"
            if re.search(imports, text, re.MULTILINE):
                offenders.append(path.name)
            if "http.client" in text or "urllib.request" in text:
                offenders.append(path.name)
        assert offenders == []
