import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p4filter import tables as tb
from p4filter.packet import Ipv4Address, MacAddr
from p4filter.render import RuleRows

IP1 = Ipv4Address.from_text("10.0.2.2")
IP2 = Ipv4Address.from_text("10.0.2.3")
MAC1 = MacAddr.from_text("02:00:00:00:00:01")


def present_table():
    return tb.Table("present_table", (tb.KIND_IPV4,), tb.send_to_controller())


class TestCreate:
    def test_empty_with_default(self):
        t = present_table()
        action, hit = t.lookup((IP1,))
        assert not hit and action.kind == tb.SEND_TO_CONTROLLER

    def test_forward_table_default_drop(self):
        t = tb.Table("ipv4_forward", (tb.KIND_IPV4,), tb.drop())
        action, hit = t.lookup((IP1,))
        assert not hit and action.kind == tb.DROP

    def test_param_reads_one_value(self):
        assert tb.forward(7).data == 7
        assert tb.set_allowed(pos=2).data == 2
        assert tb.set_allowed().data is None

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            tb.Table("t", ("nonsense",), tb.drop())


class TestInsertLookup:
    def test_read_your_write(self):
        t = present_table()
        t.insert(tb.Rule((IP1,), tb.set_allowed()))
        action, hit = t.lookup((IP1,))
        assert hit and action.kind == tb.SET_ALLOWED

    def test_wrong_arity(self):
        t = present_table()
        with pytest.raises(tb.SchemaMismatch):
            t.insert(tb.Rule((IP1, MAC1), tb.drop()))

    def test_wrong_field_type(self):
        t = present_table()
        with pytest.raises(tb.SchemaMismatch):
            t.insert(tb.Rule((MAC1,), tb.drop()))
        with pytest.raises(tb.SchemaMismatch):
            t.lookup(("10.0.2.2",))

    def test_bool_is_not_a_port(self):
        t = tb.Table("check_ports", (tb.KIND_PORT_ID,), tb.set_direction(1))
        with pytest.raises(tb.SchemaMismatch):
            t.insert(tb.Rule((True,), tb.set_direction(0)))

    def test_bool_lookup_does_not_hit_int_rule(self):
        """True == 1 and hashes alike, so only the key check keeps a bool
        from matching the rule installed for port 1."""
        t = tb.Table("check_ports", (tb.KIND_PORT_ID,), tb.set_direction(1))
        t.insert(tb.Rule((1,), tb.set_direction(0)))
        with pytest.raises(tb.SchemaMismatch):
            t.lookup((True,))

    def test_equal_address_objects_hit_the_same_rule(self):
        t = present_table()
        t.insert(tb.Rule((IP1,), tb.set_allowed()))
        macs = tb.Table("check_mac", (tb.KIND_IPV4, tb.KIND_MAC), tb.drop())
        macs.insert(tb.Rule((IP1, MAC1), tb.set_allowed()))
        ip = Ipv4Address(bytes([10, 0, 2, 2]))
        mac = MacAddr(bytes([2, 0, 0, 0, 0, 1]))
        assert ip is not IP1 and mac is not MAC1
        assert t.lookup((ip,)) == (tb.set_allowed(), True)
        assert macs.lookup((ip, mac)) == (tb.set_allowed(), True)

    @pytest.mark.parametrize("field", [b"\n\x00\x02\x02", "10.0.2.2", True],
                             ids=["bytes", "str", "bool"])
    def test_raw_value_lookup_does_not_hit_address_rule(self, field):
        """An address equals and hashes like its raw octets, so only the key
        check keeps a bytes key from matching the rule installed for it."""
        t = present_table()
        t.insert(tb.Rule((IP1,), tb.set_allowed()))
        assert IP1 == b"\n\x00\x02\x02"
        with pytest.raises(tb.SchemaMismatch):
            t.lookup((field,))
        macs = tb.Table("check_mac", (tb.KIND_IPV4, tb.KIND_MAC), tb.drop())
        macs.insert(tb.Rule((IP1, MAC1), tb.set_allowed()))
        with pytest.raises(tb.SchemaMismatch):
            macs.lookup((IP1, bytes(MAC1)))
        with pytest.raises(tb.SchemaMismatch):
            macs.lookup((field, MAC1))

    @pytest.mark.parametrize("field", [b"\n\x00\x02\x02", "10.0.2.2", True],
                             ids=["bytes", "str", "bool"])
    def test_raw_value_insert_and_delete_are_refused(self, field):
        """insert and delete check a key as lookup does: a raw-bytes key
        neither installs a rule nor removes the one its address holds."""
        t = present_table()
        t.insert(tb.Rule((IP1,), tb.set_allowed()))
        macs = tb.Table("check_mac", (tb.KIND_IPV4, tb.KIND_MAC), tb.drop())
        macs.insert(tb.Rule((IP1, MAC1), tb.set_allowed()))
        before = (dict(t.rules), dict(macs.rules))
        for table, key in ((t, (field,)), (macs, (IP1, bytes(MAC1))),
                           (macs, (field, MAC1))):
            with pytest.raises(tb.SchemaMismatch):
                table.insert(tb.Rule(key, tb.drop()))
            with pytest.raises(tb.SchemaMismatch):
                table.delete(key)
        assert (t.rules, macs.rules) == before

    @pytest.mark.parametrize("key", [[IP1], (IP1, IP1), (), IP1],
                             ids=["list", "two-fields", "empty", "bare-address"])
    def test_lookup_of_a_misshapen_key(self, key):
        with pytest.raises(tb.SchemaMismatch):
            present_table().lookup(key)

    @pytest.mark.parametrize("key", [[IP1], (IP1, IP1), (), IP1],
                             ids=["list", "two-fields", "empty", "bare-address"])
    def test_insert_and_delete_of_a_misshapen_key(self, key):
        t = present_table()
        with pytest.raises(tb.SchemaMismatch, match="arity"):
            t.insert(tb.Rule(key, tb.drop()))
        with pytest.raises(tb.SchemaMismatch, match="arity"):
            t.delete(key)
        assert t.rules == {}

    def test_replacement_semantics(self):
        t = present_table()
        t.insert(tb.Rule((IP1,), tb.set_allowed()))
        t.insert(tb.Rule((IP1,), tb.drop()))
        action, hit = t.lookup((IP1,))
        assert hit and action.kind == tb.DROP
        assert len(t.rules) == 1


class TestDelete:
    def test_delete_restores_default(self):
        t = present_table()
        t.insert(tb.Rule((IP1,), tb.drop()))
        t.delete((IP1,))
        action, hit = t.lookup((IP1,))
        assert not hit and action.kind == tb.SEND_TO_CONTROLLER

    def test_delete_absent(self):
        t = present_table()
        with pytest.raises(tb.NotFound):
            t.delete((IP1,))

    def test_insert_delete_insert(self):
        t = present_table()
        t.insert(tb.Rule((IP1,), tb.drop()))
        t.delete((IP1,))
        t.insert(tb.Rule((IP1,), tb.set_allowed()))
        action, hit = t.lookup((IP1,))
        assert hit and action.kind == tb.SET_ALLOWED


class TestPairKeys:
    def test_ip_mac_binding(self):
        t = tb.Table("check_mac", (tb.KIND_IPV4, tb.KIND_MAC), tb.drop())
        t.insert(tb.Rule((IP1, MAC1), tb.set_allowed()))
        assert t.lookup((IP1, MAC1))[1]
        assert not t.lookup((IP2, MAC1))[1]


class TestDump:
    def test_jsonl_shape(self):
        t = tb.Table("ipv4_forward", (tb.KIND_IPV4,), tb.drop())
        t.insert(tb.Rule((IP1,), tb.forward(3)))
        check_mac = tb.Table("check_mac", (tb.KIND_IPV4, tb.KIND_MAC), tb.drop())
        check_mac.insert(tb.Rule((IP2, MAC1), tb.set_allowed()))
        rows = check_mac.dump() + t.dump()   # a switch's dump: tables by name
        assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
        assert rows == [("check_mac", ["10.0.2.3", "02:00:00:00:00:01"], "SetAllowed", None),
                        ("ipv4_forward", ["10.0.2.2"], "Forward", 3)]
        records = RuleRows(rows)
        assert {"table": "ipv4_forward", "key": ["10.0.2.2"],
                "action": "Forward", "params": {"port": 3}} in records
        assert {"table": "check_mac", "key": ["10.0.2.3", "02:00:00:00:00:01"],
                "action": "SetAllowed", "params": {}} in records

    def test_mutating_a_dump_leaves_later_dumps_alone(self):
        t = tb.Table("ipv4_forward", (tb.KIND_IPV4,), tb.drop())
        t.insert(tb.Rule((IP1,), tb.forward(3)))
        first = t.dump()
        first[0][1].append("x")
        record = RuleRows(first)[0]
        record["params"]["port"] = 99
        record["key"].append("y")
        assert RuleRows(t.dump()) == [{"table": "ipv4_forward", "key": ["10.0.2.2"],
                                       "action": "Forward", "params": {"port": 3}}]


class TestActions:
    @pytest.mark.parametrize("action, params", [
        (tb.forward(7), {"port": 7}),
        (tb.set_allowed(), {}),
        (tb.set_allowed(pos=2), {"pos": 2}),
        (tb.set_direction(0), {"dir": 0}),
        (tb.drop(), {}),
        (tb.send_to_controller(), {}),
        (tb.no_action(), {}),
    ], ids=["forward", "set_allowed", "set_allowed-pos", "set_direction", "drop",
            "send_to_controller", "no_action"])
    def test_factory_params_are_the_dumped_dict(self, action, params):
        t = present_table()
        t.insert(tb.Rule((IP1,), action))
        assert action.params == params
        assert t.dump() == [("present_table", ["10.0.2.2"], action.kind, action.data)]
        assert RuleRows(t.dump()) == [{"table": "present_table", "key": ["10.0.2.2"],
                                       "action": action.kind, "params": params}]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown action kind 'Teleport'"):
            present_table().read_rule(["10.0.2.2"], "Teleport", {})


class TestReadRule:
    def test_reads_the_text_the_dump_writes(self):
        t = tb.Table("knock_rules", (tb.KIND_IPV4, tb.KIND_PORT), tb.no_action())
        assert t.read_rule(("10.0.2.2", "2222"), tb.SET_ALLOWED, {"pos": 1}) == (
            (IP1, 2222), tb.set_allowed(pos=1))
        assert t.read_rule(["10.0.2.2", "0"], tb.DROP, {}) == ((IP1, 0), tb.drop())

    def test_wrong_arity(self):
        with pytest.raises(tb.SchemaMismatch, match="key arity 2 != schema arity 1"):
            present_table().read_rule(["10.0.2.2", "1"], tb.DROP, {})


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        ip = Ipv4Address(bytes([10, 0, 0, draw(st.integers(0, 7))]))
        if draw(st.booleans()):
            kind = draw(st.sampled_from([tb.DROP, tb.SET_ALLOWED]))
            ops.append(("insert", ip, kind))
        else:
            ops.append(("delete", ip, None))
    return ops


class TestProperties:
    @given(operations())
    @settings(max_examples=200)
    def test_matches_dict_model(self, ops):
        """After any insert/delete sequence the table behaves like a plain
        dict: same live keys, same visible actions, default on miss."""
        t = present_table()
        model = {}
        for op, ip, kind in ops:
            if op == "insert":
                t.insert(tb.Rule((ip,), tb.Action(kind)))
                model[ip] = kind
            else:
                try:
                    t.delete((ip,))
                    assert ip in model
                    del model[ip]
                except tb.NotFound:
                    assert ip not in model
        assert len(t.rules) == len(model)
        for n in range(8):
            ip = Ipv4Address(bytes([10, 0, 0, n]))
            action, hit = t.lookup((ip,))
            if ip in model:
                assert hit and action.kind == model[ip]
            else:
                assert not hit and action.kind == tb.SEND_TO_CONTROLLER

    @given(operations())
    @settings(max_examples=50)
    def test_lookup_is_deterministic(self, ops):
        results = []
        for _ in range(2):
            t = present_table()
            for op, ip, kind in ops:
                if op == "insert":
                    t.insert(tb.Rule((ip,), tb.Action(kind)))
                else:
                    try:
                        t.delete((ip,))
                    except tb.NotFound:
                        pass
            results.append([t.lookup((Ipv4Address(bytes([10, 0, 0, n])),))
                            for n in range(8)])
        assert results[0] == results[1]

    @given(operations())
    @settings(max_examples=100)
    def test_no_fabricated_forward(self, ops):
        """Lookups never invent a Forward that was not installed/configured."""
        t = present_table()
        for op, ip, kind in ops:
            if op == "insert":
                t.insert(tb.Rule((ip,), tb.Action(kind)))
            else:
                try:
                    t.delete((ip,))
                except tb.NotFound:
                    pass
        for n in range(8):
            action, _ = t.lookup((Ipv4Address(bytes([10, 0, 0, n])),))
            assert action.kind != tb.FORWARD
