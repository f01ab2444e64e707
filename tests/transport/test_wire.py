"""Wire codec: entities, proxies and lease keys across the boundary.

The invariants the socket protocol rests on: server-side uids survive
the round trip (proxies are stable per remote uid, so identity
comparisons behave locally), unknown uids degrade to ``⊥E`` rather
than crashing, and lease dependency keys re-tuple exactly.
"""

from __future__ import annotations

import pytest

from repro.model.context import Context, context_object
from repro.model.entities import ObjectEntity, UNDEFINED_ENTITY
from repro.transport.framing import MAX_REST, dumps, loads
from repro.transport.wire import (DirectoryRegistry, EntityProxyCache,
                                  RemoteContext, RemoteDirectory,
                                  RemoteEntity, WireCodec, WireError,
                                  describe_entity, remote_uid_of)


def build_tree():
    root = context_object("root")
    usr = context_object("usr")
    root.state.bind("usr", usr)
    usr.state.bind("python", ObjectEntity("python3"))
    return root, usr


class TestDescriptors:
    def test_describe_undefined_is_none(self):
        assert describe_entity(None) is None
        assert describe_entity(UNDEFINED_ENTITY) is None

    def test_describe_carries_uid_label_dirness(self):
        root, usr = build_tree()
        d = describe_entity(usr)
        assert d == {"uid": usr.uid, "label": "usr", "dir": True}
        leaf = usr.state("python")
        assert describe_entity(leaf) == {
            "uid": leaf.uid, "label": "python3", "dir": False}

    def test_describe_proxy_reuses_remote_uid(self):
        proxy = RemoteDirectory(1234, "d")
        d = describe_entity(proxy)
        assert d["uid"] == 1234 and d["dir"]
        assert remote_uid_of(proxy) == 1234

    def test_descriptors_are_json_framable(self):
        root, usr = build_tree()
        d = describe_entity(usr)
        assert loads(dumps(d)) == d


class TestProxies:
    def test_cache_is_stable_per_uid(self):
        cache = EntityProxyCache()
        a = cache.proxy({"uid": 7, "label": "x", "dir": True})
        b = cache.proxy({"uid": 7, "label": "x", "dir": True})
        assert a is b
        assert len(cache) == 1

    def test_directory_proxy_walks_like_a_context(self):
        proxy = EntityProxyCache().proxy(
            {"uid": 9, "label": "d", "dir": True})
        assert isinstance(proxy, RemoteDirectory)
        assert proxy.is_context_object()
        assert isinstance(proxy.state, Context)
        assert isinstance(proxy.state, RemoteContext)
        # A remote context binds nothing locally: every local read
        # is ⊥E (the owning server answers the real bindings).
        assert not proxy.state("anything").is_defined()

    def test_leaf_proxy_is_not_a_directory(self):
        proxy = EntityProxyCache().proxy(
            {"uid": 3, "label": "f", "dir": False})
        assert isinstance(proxy, RemoteEntity)
        assert not isinstance(proxy, RemoteDirectory)
        assert not proxy.is_context_object()

    def test_none_descriptor_is_undefined(self):
        assert EntityProxyCache().proxy(None) is UNDEFINED_ENTITY

    def test_local_uid_never_crosses_the_wire(self):
        proxy = RemoteEntity(42, "x")
        assert proxy.uid != 42 or proxy.remote_uid == 42
        assert remote_uid_of(proxy) == 42


class TestRegistry:
    def test_register_tree_walks_context_states(self):
        root, usr = build_tree()
        registry = DirectoryRegistry()
        assert registry.register_tree(root) == 3  # root, usr, python
        assert registry.get(usr.uid) is usr

    def test_unknown_uid_degrades_to_undefined(self):
        registry = DirectoryRegistry()
        assert registry.get(999_999) is UNDEFINED_ENTITY

    def test_serves_exactly_what_is_registered(self):
        root, usr = build_tree()
        registry = DirectoryRegistry()
        registry.register_tree(root)
        assert registry.serves(None, usr, "python")
        assert not registry.serves(None, context_object("elsewhere"), "x")
        assert not registry.serves(None, UNDEFINED_ENTITY, "x")


class TestCodec:
    def test_lookup_request_round_trip(self):
        root, usr = build_tree()
        registry = DirectoryRegistry()
        registry.register_tree(root)
        server = WireCodec(registry=registry)
        client = WireCodec(proxies=EntityProxyCache())
        proxy = RemoteDirectory(usr.uid, "usr")
        request = {"lookup": {"request_id": 1, "seq": 1,
                              "directory": proxy, "component": "python",
                              "rest": ["a", "b"], "latency": 1.0}}
        framed = loads(dumps(client.encode(request)))
        decoded = server.decode(framed)
        assert decoded["lookup"]["directory"] is usr
        assert decoded["lookup"]["rest"] == ["a", "b"]

    def test_the_simulators_latency_hint_stays_off_the_wire(self):
        request = {"lookup": {"request_id": 1, "seq": 1,
                              "directory": RemoteDirectory(5, "d"),
                              "component": "x", "rest": [],
                              "latency": 1.0}}
        assert WireCodec().encode(request) == {"lookup": {
            "request_id": 1, "seq": 1, "directory": 5, "component": "x",
            "rest": []}}
        assert "latency" in request["lookup"]   # the payload is not edited

    def test_reply_round_trip_builds_stable_proxy(self):
        root, usr = build_tree()
        leaf = usr.state("python")
        server = WireCodec(registry=DirectoryRegistry())
        proxies = EntityProxyCache()
        client = WireCodec(proxies=proxies)
        reply = {"reply": {"request_id": 1, "seq": 1, "trail": [usr, leaf]}}
        framed = loads(dumps(server.encode(reply)))
        first = client.decode(framed)["reply"]["trail"]
        second = client.decode(framed)["reply"]["trail"]
        assert [a is b for a, b in zip(first, second)] == [True, True]
        assert isinstance(first[0], RemoteDirectory)
        assert first[1].label == "python3"
        assert remote_uid_of(first[1]) == leaf.uid

    def test_undefined_reply_stays_none(self):
        root, usr = build_tree()
        server = WireCodec(registry=DirectoryRegistry())
        client = WireCodec(proxies=EntityProxyCache())
        encoded = server.encode({"reply": {
            "request_id": 2, "seq": 1, "trail": [usr, UNDEFINED_ENTITY]}})
        assert encoded["reply"]["trail"][1] is None
        trail = client.decode(encoded)["reply"]["trail"]
        assert trail[1] is UNDEFINED_ENTITY and trail[0].is_defined()

    @pytest.mark.parametrize("rest", [
        None, "ab", [1], ["a", None], ["x"] * (MAX_REST + 1)])
    def test_a_bad_rest_is_a_wire_error(self, rest):
        request = {"request_id": 1, "seq": 1, "directory": 5,
                   "component": "x", "rest": rest}
        if rest is None:
            del request["rest"]
        with pytest.raises(WireError):
            WireCodec(registry=DirectoryRegistry()).decode(
                {"lookup": request})
        request["rest"] = ["x"] * MAX_REST      # the cap itself is fine
        WireCodec(registry=DirectoryRegistry()).decode({"lookup": request})

    @pytest.mark.parametrize("trail", [
        None, [], {"uid": 1}, [None, {"uid": 1}], [{"uid": "1"}], [7],
        [{"uid": 1}] * (MAX_REST + 2)])
    def test_a_bad_trail_is_a_wire_error(self, trail):
        with pytest.raises(WireError):
            WireCodec(proxies=EntityProxyCache()).decode(
                {"reply": {"request_id": 1, "seq": 1, "trail": trail}})

    def test_lease_dep_retuples(self):
        codec = WireCodec()
        dep = ("binding", 17, "usr")
        encoded = codec.encode({"lease": {"op": "break", "dep": dep}})
        assert encoded["lease"]["dep"] == ["binding", 17, "usr"]
        decoded = codec.decode(loads(dumps(encoded)))
        assert decoded["lease"]["dep"] == dep
        assert isinstance(decoded["lease"]["dep"], tuple)

    def test_foreign_payloads_pass_through(self):
        codec = WireCodec()
        payload = {"ctl": {"op": "hello"}, "n": 3}
        assert codec.encode(payload) == payload
        assert codec.decode(payload) == payload
        assert codec.encode("plain") == "plain"
