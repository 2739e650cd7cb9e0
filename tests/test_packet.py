import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p4filter import packet as pk
from p4filter import tables
from p4filter.switch import P4Switch, PacketOut, SwitchConfig
from p4filter.verdict import FORWARDED

# Frames cross-checked against an independently written byte-layout and
# checksum builder; treat as frozen.
GOLDEN_SYN_TTL64 = bytes.fromhex(
    "02000000030302000000010108004500002800000000400662cd"
    "0a0001010a00030304d2005000000000000000005002ffff00000000")
GOLDEN_SYN_TTL63 = bytes.fromhex(
    "020000000303020000000101080045000028000000003f0663cd"
    "0a0001010a00030304d2005000000000000000005002ffff00000000")
GOLDEN_PAYLOAD = bytes.fromhex(
    "02000000030302000000010108004500002d000000003d0663c9"
    "0a0005010a0001029c4000160000000700000001501810000000"
    "000068656c6c6f")


def golden_packet():
    return pk.make_packet(
        src_ip="10.0.1.1", dst_ip="10.0.3.3",
        src_mac="02:00:00:00:01:01", dst_mac="02:00:00:00:03:03",
        sport=1234, dport=80, flags=pk.SYN, ttl=64)


class TestGoldenBytes:
    def test_serialize_matches_golden(self):
        assert pk.serialize_packet(golden_packet()) == GOLDEN_SYN_TTL64

    def test_parse_golden(self):
        p = pk.parse_packet(GOLDEN_SYN_TTL64)
        assert str(p.ip.src_ip) == "10.0.1.1"
        assert str(p.ip.dst_ip) == "10.0.3.3"
        assert p.tcp.src_port == 1234
        assert p.tcp.dst_port == 80
        assert p.ip.ttl == 64
        assert p.tcp.flags == pk.SYN
        assert p.tcp.is_pure_syn
        assert p.payload == b""

    def test_ttl_decrement_matches_golden(self):
        hopped = pk.decrement_ttl(pk.parse_packet(GOLDEN_SYN_TTL64))
        assert pk.serialize_packet(hopped) == GOLDEN_SYN_TTL63

    def test_payload_frame(self):
        p = pk.Packet(
            eth=pk.EthernetHeader(
                dst_mac=pk.MacAddr.from_text("02:00:00:00:03:03"),
                src_mac=pk.MacAddr.from_text("02:00:00:00:01:01")),
            ip=pk.Ipv4Header(
                src_ip=pk.Ipv4Address.from_text("10.0.5.1"),
                dst_ip=pk.Ipv4Address.from_text("10.0.1.2"), ttl=61),
            tcp=pk.TcpHeader(src_port=40000, dst_port=22,
                             flags=pk.tcp_flags("PSH", "ACK"),
                             seq=7, ack=1, window=4096),
            payload=b"hello")
        assert pk.serialize_packet(p) == GOLDEN_PAYLOAD


class TestRoundTrip:
    def test_golden_round_trip(self):
        assert pk.serialize_packet(pk.parse_packet(GOLDEN_SYN_TTL64)) == GOLDEN_SYN_TTL64
        assert pk.serialize_packet(pk.parse_packet(GOLDEN_PAYLOAD)) == GOLDEN_PAYLOAD

    @given(
        src=st.integers(0, 2**32 - 1), dst=st.integers(0, 2**32 - 1),
        sport=st.integers(0, 65535), dport=st.integers(0, 65535),
        flags=st.integers(0, 63), ttl=st.integers(0, 255),
        seq=st.integers(0, 2**32 - 1), ack=st.integers(0, 2**32 - 1),
        window=st.integers(0, 65535),
        payload=st.binary(max_size=64),
    )
    @settings(max_examples=300)
    def test_parse_serialize_identity(self, src, dst, sport, dport, flags,
                                      ttl, seq, ack, window, payload):
        p = pk.Packet(
            eth=pk.EthernetHeader(
                dst_mac=pk.MacAddr(b"\x02\x00\x00\x00\x00\x01"),
                src_mac=pk.MacAddr(b"\x02\x00\x00\x00\x00\x02")),
            ip=pk.Ipv4Header(
                src_ip=pk.Ipv4Address(src.to_bytes(4, "big")),
                dst_ip=pk.Ipv4Address(dst.to_bytes(4, "big")),
                ttl=ttl),
            tcp=pk.TcpHeader(src_port=sport, dst_port=dport, flags=flags,
                             seq=seq, ack=ack, window=window),
            payload=payload)
        wire = pk.serialize_packet(p)
        back = pk.parse_packet(wire)
        assert pk.serialize_packet(back) == wire
        assert back.tcp == p.tcp
        assert back.payload == payload
        assert back.ip.src_ip == p.ip.src_ip and back.ip.ttl == ttl

    def test_ttl_zero_serializes(self):
        p = pk.make_packet("1.2.3.4", "5.6.7.8", "02:00:00:00:00:01",
                           "02:00:00:00:00:02", 1, 2, ttl=0)
        assert pk.parse_packet(pk.serialize_packet(p)).ip.ttl == 0


class TestParseErrors:
    def test_truncated(self):
        with pytest.raises(pk.Truncated):
            pk.parse_packet(GOLDEN_SYN_TTL64[:53])

    def test_length_field_mismatch(self):
        with pytest.raises(pk.Truncated):
            pk.parse_packet(GOLDEN_SYN_TTL64 + b"x")

    def test_bad_ethertype(self):
        frame = bytearray(GOLDEN_SYN_TTL64)
        frame[12:14] = b"\x86\xdd"
        with pytest.raises(pk.UnsupportedEthertype):
            pk.parse_packet(bytes(frame))

    def test_bad_ip_protocol(self):
        frame = bytearray(GOLDEN_SYN_TTL64)
        frame[23] = 17   # UDP
        with pytest.raises(pk.UnsupportedProtocol):
            pk.parse_packet(bytes(frame))

    def test_ip_options_rejected(self):
        frame = bytearray(GOLDEN_SYN_TTL64)
        frame[14] = 0x46   # ihl 6
        with pytest.raises(pk.UnsupportedProtocol):
            pk.parse_packet(bytes(frame))

    def test_tcp_options_rejected(self):
        frame = bytearray(GOLDEN_SYN_TTL64)
        frame[46] = 0x60   # data offset 6
        with pytest.raises(pk.UnsupportedProtocol):
            pk.parse_packet(bytes(frame))

    def test_bad_checksum(self):
        frame = bytearray(GOLDEN_SYN_TTL64)
        frame[24] ^= 0xFF
        with pytest.raises(pk.BadChecksum):
            pk.parse_packet(bytes(frame))


class TestTtl:
    def test_decrement(self):
        assert pk.decrement_ttl(golden_packet()).ip.ttl == 63

    def test_boundary_one(self):
        p = pk.make_packet("1.1.1.1", "2.2.2.2", "02:00:00:00:00:01",
                           "02:00:00:00:00:02", 1, 2, ttl=1)
        assert pk.decrement_ttl(p).ip.ttl == 0

    def test_expired(self):
        p = pk.make_packet("1.1.1.1", "2.2.2.2", "02:00:00:00:00:01",
                           "02:00:00:00:00:02", 1, 2, ttl=0)
        with pytest.raises(pk.TtlExpired):
            pk.decrement_ttl(p)

    @given(
        src=st.binary(min_size=4, max_size=4), dst=st.binary(min_size=4, max_size=4),
        ttl=st.integers(1, 255), protocol=st.integers(0, 255),
        total_length=st.integers(0, 65535), tos=st.integers(0, 255),
        identification=st.integers(0, 65535), flags_frag=st.integers(0, 65535),
    )
    @settings(max_examples=500)
    def test_decrement_ttl_changes_only_the_ttl(
            self, src, dst, ttl, protocol, total_length, tos, identification,
            flags_frag):
        ip = pk.Ipv4Header(
            src_ip=pk.Ipv4Address(src), dst_ip=pk.Ipv4Address(dst), ttl=ttl,
            protocol=protocol, total_length=total_length, tos=tos,
            identification=identification, flags_frag=flags_frag)
        p = pk.Packet(
            eth=pk.EthernetHeader(dst_mac=pk.MacAddr(b"\x02" * 6),
                                  src_mac=pk.MacAddr(b"\x04" * 6)),
            ip=ip,
            tcp=pk.TcpHeader(src_port=1, dst_port=2),
            payload=b"data")
        assert pk.decrement_ttl(p) == p._replace(ip=ip._replace(ttl=ttl - 1))


class TestHeaderValues:
    @pytest.mark.parametrize("value, field", [
        (golden_packet(), "payload"),
        (golden_packet(), "ip"),
        (golden_packet().ip, "ttl"),
        (golden_packet().eth, "ethertype"),
        (golden_packet().tcp, "src_port"),
        (golden_packet().tcp, "note"),     # no field: TcpHeader has no __dict__
    ])
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)

    def test_decrement_ttl_leaves_its_input_unchanged(self):
        p = pk.parse_packet(GOLDEN_PAYLOAD)
        before = copy.deepcopy(p)
        pk.decrement_ttl(p)
        assert p == before
        assert pk.serialize_packet(p) == GOLDEN_PAYLOAD

    def test_tcp_port_range_is_checked(self):
        with pytest.raises(ValueError):
            pk.TcpHeader(70000, 1)

    @pytest.mark.parametrize("build", [
        lambda: pk.TcpHeader(1, -1, pk.SYN),
        lambda: pk.TcpHeader(src_port=1, dst_port=0x10000),
        lambda: pk.TcpHeader(dst_port=1, src_port=-1, window=0),
        lambda: pk.TcpHeader._make((70000, 1, 0, 0, 0, 65535, 0, 0)),
        lambda: pk.TcpHeader._make([1, 0x10000, 0, 0, 0, 65535, 0, 0]),
        lambda: pk.TcpHeader(1, 2)._replace(src_port=70000),
        lambda: pk.TcpHeader(1, 2)._replace(dst_port=-1, flags=pk.ACK),
    ], ids=["positional_dst", "keyword_dst", "keyword_src", "make_src", "make_dst",
            "replace_src", "replace_dst"])
    def test_tcp_port_range_is_checked_by_every_constructor(self, build):
        with pytest.raises(ValueError, match="TCP port out of range"):
            build()

    def test_tcp_header_is_a_value(self):
        tcp = pk.TcpHeader(1234, 80, pk.SYN)
        assert tcp == pk.TcpHeader(src_port=1234, dst_port=80, flags=pk.SYN, seq=0,
                                   ack=0, window=65535, checksum=0, urgent=0)
        assert tcp == pk.TcpHeader._make(tcp) == tcp._replace()
        assert tcp != pk.TcpHeader(1234, 81, pk.SYN)
        assert hash(tcp) == hash(pk.TcpHeader(1234, 80, pk.SYN)) == hash(
            (1234, 80, pk.SYN, 0, 0, 65535, 0, 0))
        assert repr(tcp) == ("TcpHeader(src_port=1234, dst_port=80, flags=2, seq=0,"
                             " ack=0, window=65535, checksum=0, urgent=0)")
        assert type(tcp._replace(dst_port=22)) is pk.TcpHeader
        assert copy.deepcopy(tcp) == tcp and tcp.is_pure_syn
        assert not tcp._replace(flags=pk.SYN | pk.ACK).is_pure_syn

    def test_serialize_rewrites_a_stale_total_length(self):
        right = pk.make_packet("10.0.5.1", "10.0.1.2", "02:00:00:00:05:01",
                               "02:00:00:00:01:02", 40000, 22, payload=b"hello")
        stale = right._replace(ip=right.ip._replace(total_length=right.ip.total_length - 5))
        assert pk.serialize_packet(stale) == pk.serialize_packet(right)
        assert pk.parse_packet(pk.serialize_packet(stale)) == right


class TestMakePacket:
    @given(src=st.binary(min_size=4, max_size=4), dst=st.binary(min_size=4, max_size=4),
           sport=st.integers(0, 65535), dport=st.integers(0, 65535),
           flags=st.integers(0, 63), ttl=st.integers(0, 255),
           payload=st.binary(max_size=64))
    @settings(max_examples=300)
    def test_checksum_is_the_serialized_headers(self, src, dst, sport, dport, flags,
                                                ttl, payload):
        # parse_packet raises BadChecksum unless the frame's checksum is its
        # header's, and the packet carries none of its own to compare
        p = pk.make_packet(pk.Ipv4Address(src), pk.Ipv4Address(dst),
                           pk.MacAddr(b"\x02" * 6), pk.MacAddr(b"\x04" * 6),
                           sport, dport, flags=flags, ttl=ttl, payload=payload)
        assert pk.parse_packet(pk.serialize_packet(p)) == p

    @pytest.mark.parametrize("fields, message", [
        ({"ttl": -1}, "TTL -1 outside 0..255"),
        ({"ttl": 256}, "TTL 256 outside 0..255"),
        ({"payload": bytes(0xFFFF - 39)}, "total_length 65536 exceeds 65535"),
        ({"sport": 70000}, "TCP port out of range"),
        ({"dport": -1}, "TCP port out of range"),
    ])
    def test_out_of_range_fields_raise_value_error(self, fields, message):
        args = {"sport": 1234, "dport": 80, **fields}
        with pytest.raises(ValueError, match=message):
            pk.make_packet("10.0.1.1", "10.0.3.3", "02:00:00:00:01:01",
                           "02:00:00:00:03:03", **args)

    def test_longest_payload_round_trips(self):
        p = pk.make_packet("10.0.1.1", "10.0.3.3", "02:00:00:00:01:01",
                           "02:00:00:00:03:03", 1234, 80, ttl=255,
                           payload=bytes(0xFFFF - 40))
        assert p.ip.total_length == 0xFFFF
        assert pk.parse_packet(pk.serialize_packet(p)) == p

    def test_text_and_parsed_addresses_give_equal_packets(self):
        args = ("10.0.1.1", "10.0.3.3", "02:00:00:00:01:01", "02:00:00:00:03:03")
        parsed = (pk.Ipv4Address.from_text(args[0]), pk.Ipv4Address.from_text(args[1]),
                  pk.MacAddr.from_text(args[2]), pk.MacAddr.from_text(args[3]))
        kwargs = dict(sport=1234, dport=80, flags=pk.ACK, ttl=7, payload=b"hi",
                      seq=5, ack=9)
        from_text = pk.make_packet(*args, **kwargs)
        assert pk.make_packet(*parsed, **kwargs) == from_text
        assert pk.serialize_packet(pk.make_packet(*parsed, **kwargs)) == (
            pk.serialize_packet(from_text))


class TestFlowKey:
    def _packet(self):
        return pk.make_packet("10.0.0.1", "10.0.0.2", "02:00:00:00:00:01",
                              "02:00:00:00:00:02", 1000, 80)

    def test_internal_orientation(self):
        k = pk.flow_key(self._packet(), 0)
        assert (str(k.a_ip), str(k.b_ip), k.a_port, k.b_port) == \
            ("10.0.0.1", "10.0.0.2", 1000, 80)

    def test_external_orientation(self):
        k = pk.flow_key(self._packet(), 1)
        assert (str(k.a_ip), str(k.b_ip), k.a_port, k.b_port) == \
            ("10.0.0.2", "10.0.0.1", 80, 1000)

    def test_reply_symmetry(self):
        reply = pk.make_packet("10.0.0.2", "10.0.0.1", "02:00:00:00:00:02",
                               "02:00:00:00:00:01", 80, 1000)
        assert pk.flow_key(self._packet(), 0) == pk.flow_key(reply, 1)

    @given(src=st.integers(0, 2**32 - 1), dst=st.integers(0, 2**32 - 1),
           sport=st.integers(0, 65535), dport=st.integers(0, 65535))
    @settings(max_examples=200)
    def test_symmetry_property(self, src, dst, sport, dport):
        a, b = (pk.Ipv4Address(x.to_bytes(4, "big")) for x in (src, dst))
        p = pk.Packet(
            eth=pk.EthernetHeader(pk.MacAddr(b"\x02" + b"\x00" * 5),
                                  pk.MacAddr(b"\x04" + b"\x00" * 5)),
            ip=pk.Ipv4Header(src_ip=a, dst_ip=b, ttl=64),
            tcp=pk.TcpHeader(src_port=sport, dst_port=dport))
        swapped = pk.Packet(
            eth=p.eth,
            ip=pk.Ipv4Header(src_ip=b, dst_ip=a, ttl=64),
            tcp=pk.TcpHeader(src_port=dport, dst_port=sport))
        assert pk.flow_key(p, 0) == pk.flow_key(swapped, 1)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            pk.flow_key(self._packet(), 2)


_ipv4 = st.binary(min_size=4, max_size=4).map(pk.Ipv4Address)
_mac = st.binary(min_size=6, max_size=6).map(pk.MacAddr)


def _types(value):
    """The exact class of a value and, for a packet, of each header."""
    if type(value) is pk.Packet:
        return [type(value)] + [type(header) for header in value[:3]]
    return [type(value)]


class TestHopValues:
    """make_packet, decrement_ttl, flow_key and a routed pass build their
    values with tuple.__new__ once the fields are checked; each is the value
    the NamedTuple class call builds, of exactly that class."""

    @given(src=_ipv4, dst=_ipv4, src_mac=_mac, dst_mac=_mac,
           sport=st.integers(0, 65535), dport=st.integers(0, 65535),
           flags=st.integers(0, 63), ttl=st.integers(0, 255),
           payload=st.binary(max_size=64), seq=st.integers(0, 2**32 - 1),
           ack=st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    def test_hop_values_are_the_class_calls(self, src, dst, src_mac, dst_mac, sport,
                                            dport, flags, ttl, payload, seq, ack):
        p = pk.make_packet(src, dst, src_mac, dst_mac, sport, dport, flags, ttl,
                           payload, seq, ack)
        built = pk.Packet(
            eth=pk.EthernetHeader(dst_mac=dst_mac, src_mac=src_mac),
            ip=pk.Ipv4Header(src_ip=src, dst_ip=dst, ttl=ttl,
                             total_length=pk.IPV4_LEN + pk.TCP_LEN + len(payload)),
            tcp=pk.TcpHeader(src_port=sport, dst_port=dport, flags=flags, seq=seq,
                             ack=ack),
            payload=payload)
        assert p == built and _types(p) == _types(built)
        assert hash(p) == hash(built) and repr(p) == repr(built)

        for direction, fields in ((0, (src, dst, sport, dport)),
                                  (1, (dst, src, dport, sport))):
            key = pk.flow_key(p, direction)
            assert key == pk.FlowKey(*fields) and type(key) is pk.FlowKey

        if ttl == 0:
            with pytest.raises(pk.TtlExpired):
                pk.decrement_ttl(p)
            return
        hop = pk.decrement_ttl(p)
        expected = pk.Packet(p.eth, pk.Ipv4Header(*p.ip[:2], ttl - 1, *p.ip[3:]),
                             p.tcp, p.payload)
        assert hop == expected and _types(hop) == _types(expected)

        sw = P4Switch(SwitchConfig(switch_id="s1", ports=(1, 2)))
        sw.ipv4_forward.insert(tables.Rule((dst,), tables.forward(2)))
        stage, verdict, out = sw.process_packet(1, p)
        assert (stage, verdict.kind) == ("forward", FORWARDED)
        assert out == PacketOut(2, expected) and type(out) is PacketOut
        assert _types(out.packet) == _types(expected)


class TestAddressText:
    def test_mac_round_trip(self):
        mac = pk.MacAddr.from_text("02:ab:cd:ef:01:99")
        assert str(mac) == "02:ab:cd:ef:01:99"

    def test_ip_round_trip(self):
        assert str(pk.Ipv4Address.from_text("192.168.0.254")) == "192.168.0.254"

    def test_ip_text_does_not_enter_equality(self):
        a, b = pk.Ipv4Address(b"\x0a\x00\x01\x02"), pk.Ipv4Address.from_text("10.0.1.2")
        assert a == b and hash(a) == hash(b) and str(a) == "10.0.1.2"
        assert repr(a) == "Ipv4Address(octets=b'\\n\\x00\\x01\\x02')"
        mac = pk.MacAddr(bytes([2, 0xAB, 0, 0, 1, 2]))
        same = pk.MacAddr.from_text("02:ab:00:00:01:02")
        assert mac == same and not mac != same and hash(mac) == hash(same)
        assert {mac: 1}[same] == 1
        assert repr(mac) == "MacAddr(octets=b'\\x02\\xab\\x00\\x00\\x01\\x02')"

    @pytest.mark.parametrize("text", [
        "10.0.1.+2", " 10.0.1.2", "10.0.1.2 ", "10.0.1.\u0662", "010.0.1.2",
        "10.0.1_0.2", "10.0.1.256", "10.0.1.2\n", "10..1.2",
    ])
    def test_ip_text_must_be_canonical(self, text):
        with pytest.raises(ValueError, match="bad IPv4 address"):
            pk.Ipv4Address.from_text(text)

    @pytest.mark.parametrize("text", [
        "0_2:00:00:00:01:02", "0x2:00:00:00:01:02", "+2:00:00:00:01:02",
        "2:0:0:0:1:2", "02:00:00:00:01:0A", "02:00:00:00:01:02\n",
        "002:00:00:00:01:02",
    ])
    def test_mac_text_must_be_canonical(self, text):
        with pytest.raises(ValueError, match="bad MAC address"):
            pk.MacAddr.from_text(text)

    def test_bad_lengths(self):
        for octets in (b"\x00" * 5, b"\x00" * 7):
            with pytest.raises(ValueError, match="must be 6 octets"):
                pk.MacAddr(octets)
        for octets in (b"", b"\x00" * 3, b"\x00" * 5):
            with pytest.raises(ValueError, match="must be 4 octets"):
                pk.Ipv4Address(octets)
        with pytest.raises(ValueError):
            pk.Ipv4Address.from_text("1.2.3")


class TestAddressValues:
    """Addresses are values over their octets."""

    def test_octets_are_plain_bytes(self):
        a = pk.Ipv4Address.from_text("10.0.1.2")
        assert type(bytes(a)) is bytes and bytes(a) == b"\n\x00\x01\x02"
        mac = pk.MacAddr.from_text("02:00:00:00:01:02")
        assert type(bytes(mac)) is bytes and bytes(mac) == bytes([2, 0, 0, 0, 1, 2])

    def test_sort_order_is_octet_order(self):
        texts = ["10.0.1.10", "9.255.255.255", "10.0.1.2", "10.0.0.200", "192.168.0.1"]
        ips = [pk.Ipv4Address.from_text(t) for t in texts]
        by_octets = sorted(ips, key=bytes)
        assert sorted(ips) == by_octets
        assert [str(ip) for ip in by_octets] == [
            "9.255.255.255", "10.0.0.200", "10.0.1.2", "10.0.1.10", "192.168.0.1"]

    def test_text_is_rendered_once(self):
        a = pk.Ipv4Address.from_text("10.0.1.2")
        assert str(a) is str(a) is a.text
        assert str(pk.Ipv4Address(bytes(a))) == "10.0.1.2"
        mac = pk.MacAddr.from_text("02:ab:00:0f:10:ff")
        assert str(mac) is str(mac) is mac.text
        assert str(pk.MacAddr(bytes(mac))) == "02:ab:00:0f:10:ff"

    @given(mac=_mac)
    def test_mac_text_is_two_lowercase_hex_digits_an_octet(self, mac):
        text = ":".join(f"{b:02x}" for b in mac)
        assert str(mac) == text and pk.MacAddr.from_text(text) == mac


def test_random_frame_loop_round_trip():
    rng = random.Random(1)
    for _ in range(500):
        p = pk.make_packet(
            src_ip=".".join(str(rng.randrange(256)) for _ in range(4)),
            dst_ip=".".join(str(rng.randrange(256)) for _ in range(4)),
            src_mac="02:00:00:%02x:%02x:%02x" % tuple(rng.randrange(256) for _ in range(3)),
            dst_mac="02:00:01:%02x:%02x:%02x" % tuple(rng.randrange(256) for _ in range(3)),
            sport=rng.randrange(65536), dport=rng.randrange(65536),
            flags=rng.randrange(64), ttl=rng.randrange(256),
            payload=bytes(rng.randrange(256) for _ in range(rng.randrange(32))))
        wire = pk.serialize_packet(p)
        assert pk.serialize_packet(pk.parse_packet(wire)) == wire
