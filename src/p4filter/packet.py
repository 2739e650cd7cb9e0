"""Byte-exact Ethernet II / IPv4 / TCP frame model.

Fixed 20-byte IPv4 and TCP headers (no options, no fragmentation), since
the pipeline only ever filters plain TCP. Values are immutable; every
transformation returns a new object, which keeps packet processing
deterministic and safe to replay. A packet carries no IPv4 header
checksum: as in a P4 program's compute-checksum control, the deparser
(serialize_packet) computes it once, when a frame is emitted, and
parse_packet checks it on a frame that comes in.
"""

from __future__ import annotations

import re
import struct
from functools import cached_property
from typing import NamedTuple

ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6

ETH_LEN = 14
IPV4_LEN = 20
TCP_LEN = 20
MIN_FRAME = ETH_LEN + IPV4_LEN + TCP_LEN

# TCP flag bits (low 6 of the flags byte)
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20

FLAG_BITS = {"FIN": FIN, "SYN": SYN, "RST": RST, "PSH": PSH, "ACK": ACK, "URG": URG}


class PacketError(Exception):
    """Base class for frame parsing failures."""


class Truncated(PacketError):
    """Frame shorter than the fixed headers, or length fields inconsistent
    with the actual frame size."""


class UnsupportedEthertype(PacketError):
    """Ethertype is not IPv4."""


class UnsupportedProtocol(PacketError):
    """Not plain TCP-in-IPv4 (wrong IP proto, IP/TCP options, or version)."""


class BadChecksum(PacketError):
    """Stored IPv4 header checksum does not match the header contents."""


class TtlExpired(PacketError):
    """TTL is already 0; the packet cannot be forwarded another hop."""


# Addresses parse only in the spelling the report prints, so one address
# never has two spellings in an input file. [0-9] and [0-9a-f] match ASCII
# only, where int() would also take a sign, spaces, "_" and other digits.
_MAC_TEXT = re.compile(r"[0-9a-f]{2}(?::[0-9a-f]{2}){5}")
_IPV4_OCTET = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4_TEXT = re.compile(r"\.".join([_IPV4_OCTET] * 4))


# The addresses are bytes, so hashing and equality (every table match, every
# knock-stage and store lookup) run in C. They keep a __dict__ (no
# __slots__) for the cached text, so every trace row of one host shares one
# string. Equal bytes of another type compare equal too: tables keep raw
# bytes out by the exact type of each key field.
class MacAddr(bytes):
    def __new__(cls, octets: bytes) -> "MacAddr":
        if len(octets) != 6:
            raise ValueError("MAC address must be 6 octets")
        return super().__new__(cls, octets)

    @classmethod
    def from_text(cls, text: str) -> "MacAddr":
        """Parse the spelling str() prints: six colon-separated parts of two
        lowercase hex digits."""
        if not isinstance(text, str) or _MAC_TEXT.fullmatch(text) is None:
            raise ValueError(f"bad MAC address {text!r}")
        return cls(bytes.fromhex(text.replace(":", "")))

    def __repr__(self) -> str:
        return f"MacAddr(octets={bytes(self)!r})"

    @cached_property
    def text(self) -> str:
        """The colon-separated lowercase hex text, rendered once, in C."""
        return self.hex(":")

    def __str__(self) -> str:
        return self.text


class Ipv4Address(bytes):
    def __new__(cls, octets: bytes) -> "Ipv4Address":
        if len(octets) != 4:
            raise ValueError("IPv4 address must be 4 octets")
        return super().__new__(cls, octets)

    @classmethod
    def from_text(cls, text: str) -> "Ipv4Address":
        """Parse the spelling str() prints: four dotted decimal parts 0-255
        with no sign, space, underscore or leading zero."""
        match = _IPV4_TEXT.fullmatch(text) if isinstance(text, str) else None
        if match is None:
            raise ValueError(f"bad IPv4 address {text!r}")
        return cls(bytes(map(int, match.groups())))

    def __repr__(self) -> str:
        return f"Ipv4Address(octets={bytes(self)!r})"

    @cached_property
    def text(self) -> str:
        """The dotted text, rendered once: it goes into every trace row."""
        return ".".join(map(str, self))

    def __str__(self) -> str:
        return self.text


# The headers and the packet are NamedTuples: every forwarding hop rebuilds
# two of them, and a tuple is built at a fraction of a frozen dataclass's
# cost. TcpHeader is a NamedTuple subclass whose __new__ checks the ports.
# Where the fields are already checked, the hot path builds a value with
# _new_tuple(cls, fields) instead of cls(*fields): a NamedTuple class call
# runs a Python-level __new__, tuple.__new__ runs in C, and both give the
# same value of the same class.
_new_tuple = tuple.__new__


class EthernetHeader(NamedTuple):
    dst_mac: MacAddr
    src_mac: MacAddr
    ethertype: int = ETHERTYPE_IPV4


class Ipv4Header(NamedTuple):
    src_ip: Ipv4Address
    dst_ip: Ipv4Address
    ttl: int
    protocol: int = PROTO_TCP
    total_length: int = IPV4_LEN + TCP_LEN
    tos: int = 0
    identification: int = 0
    flags_frag: int = 0


class _TcpFields(NamedTuple):
    # the defaults are TcpHeader.__new__'s
    src_port: int
    dst_port: int
    flags: int
    seq: int
    ack: int
    window: int
    checksum: int   # carried, never validated; 0 on synthesized frames
    urgent: int


class TcpHeader(_TcpFields):
    __slots__ = ()

    def __new__(cls, src_port: int, dst_port: int, flags: int = 0, seq: int = 0,
                ack: int = 0, window: int = 65535, checksum: int = 0,
                urgent: int = 0) -> "TcpHeader":
        if not 0 <= src_port <= 0xFFFF or not 0 <= dst_port <= 0xFFFF:
            raise ValueError("TCP port out of range")
        return tuple.__new__(cls, (src_port, dst_port, flags, seq, ack, window,
                                   checksum, urgent))

    @classmethod
    def _make(cls, iterable) -> "TcpHeader":
        # NamedTuple's _make, which _replace calls, would skip __new__
        return cls(*iterable)

    @property
    def is_pure_syn(self) -> bool:
        """SYN set with ACK clear: a fresh connection attempt (or knock)."""
        return self.flags & (SYN | ACK) == SYN


def tcp_flags(*names: str) -> int:
    """Build a flags byte from names, e.g. tcp_flags("SYN", "ACK")."""
    value = 0
    for name in names:
        value |= FLAG_BITS[name.upper()]
    return value


class Packet(NamedTuple):
    eth: EthernetHeader
    ip: Ipv4Header
    tcp: TcpHeader
    payload: bytes = b""


class FlowKey(NamedTuple):
    """Direction-normalized 4-tuple; build only via flow_key()."""

    a_ip: Ipv4Address
    b_ip: Ipv4Address
    a_port: int
    b_port: int


def ipv4_checksum(header: bytes) -> int:
    """Standard one's-complement sum over 16-bit words, checksum field zeroed
    by the caller."""
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _ipv4_header_bytes(ip: Ipv4Header, checksum: int) -> bytes:
    return struct.pack(
        "!BBHHHBBH4s4s",
        (4 << 4) | 5,
        ip.tos,
        ip.total_length,
        ip.identification,
        ip.flags_frag,
        ip.ttl,
        ip.protocol,
        checksum,
        ip.src_ip,
        ip.dst_ip,
    )


def serialize_packet(p: Packet) -> bytes:
    """Emit the wire frame; the IPv4 checksum is always recomputed."""
    eth = p.eth.dst_mac + p.eth.src_mac + struct.pack("!H", p.eth.ethertype)
    total_length = IPV4_LEN + TCP_LEN + len(p.payload)
    ip = p.ip if p.ip.total_length == total_length else p.ip._replace(total_length=total_length)
    checksum = ipv4_checksum(_ipv4_header_bytes(ip, 0))
    ipv4 = _ipv4_header_bytes(ip, checksum)
    tcp = struct.pack(
        "!HHIIBBHHH",
        p.tcp.src_port,
        p.tcp.dst_port,
        p.tcp.seq,
        p.tcp.ack,
        5 << 4,
        p.tcp.flags,
        p.tcp.window,
        p.tcp.checksum,
        p.tcp.urgent,
    )
    return eth + ipv4 + tcp + p.payload


def parse_packet(frame: bytes) -> Packet:
    """Parse a wire frame, validating layout and the IPv4 checksum.

    Raises Truncated, UnsupportedEthertype, UnsupportedProtocol or
    BadChecksum; a frame that parses cleanly round-trips byte-exactly
    through serialize_packet.
    """
    if len(frame) < MIN_FRAME:
        raise Truncated(f"frame is {len(frame)} bytes, need at least {MIN_FRAME}")
    dst_mac = MacAddr(frame[0:6])
    src_mac = MacAddr(frame[6:12])
    (ethertype,) = struct.unpack("!H", frame[12:14])
    if ethertype != ETHERTYPE_IPV4:
        raise UnsupportedEthertype(f"ethertype 0x{ethertype:04x}")

    (ver_ihl, tos, total_length, ident, flags_frag, ttl, proto, checksum,
     src_ip, dst_ip) = struct.unpack("!BBHHHBBH4s4s", frame[14:34])
    if ver_ihl >> 4 != 4 or ver_ihl & 0x0F != 5:
        raise UnsupportedProtocol(f"IPv4 version/ihl byte 0x{ver_ihl:02x}")
    if proto != PROTO_TCP:
        raise UnsupportedProtocol(f"IP protocol {proto}")
    if len(frame) != ETH_LEN + total_length:
        raise Truncated(
            f"total_length {total_length} inconsistent with frame of {len(frame)} bytes")
    stripped = frame[14:24] + b"\x00\x00" + frame[26:34]
    if ipv4_checksum(stripped) != checksum:
        raise BadChecksum(f"stored 0x{checksum:04x}")

    (sport, dport, seq, ack, offset_byte, flags, window, tcp_sum,
     urgent) = struct.unpack("!HHIIBBHHH", frame[34:54])
    if offset_byte >> 4 != 5:
        raise UnsupportedProtocol(f"TCP data offset {offset_byte >> 4}")

    return Packet(
        eth=EthernetHeader(dst_mac=dst_mac, src_mac=src_mac, ethertype=ethertype),
        ip=Ipv4Header(
            src_ip=Ipv4Address(src_ip), dst_ip=Ipv4Address(dst_ip), ttl=ttl,
            protocol=proto, total_length=total_length, tos=tos,
            identification=ident, flags_frag=flags_frag),
        tcp=TcpHeader(src_port=sport, dst_port=dport, flags=flags, seq=seq,
                      ack=ack, window=window, checksum=tcp_sum, urgent=urgent),
        payload=frame[54:],
    )


def decrement_ttl(p: Packet) -> Packet:
    """One forwarding hop: ttl - 1, and nothing else. Raises TtlExpired
    when the incoming ttl is already 0."""
    eth, ip, tcp, payload = p
    src_ip, dst_ip, ttl, protocol, total_length, tos, identification, flags_frag = ip
    if ttl == 0:
        raise TtlExpired("ttl is 0")
    return _new_tuple(Packet, (eth, _new_tuple(Ipv4Header, (
        src_ip, dst_ip, ttl - 1, protocol, total_length, tos, identification,
        flags_frag)), tcp, payload))


def flow_key(p: Packet, direction: int) -> FlowKey:
    """4-tuple normalized so both directions of one flow share a key.

    direction 0 (packet from the internal side) keeps (src, dst, sport,
    dport); direction 1 swaps to (dst, src, dport, sport).
    """
    _, ip, tcp, _ = p
    if direction == 0:
        return _new_tuple(FlowKey, (ip.src_ip, ip.dst_ip, tcp.src_port, tcp.dst_port))
    if direction == 1:
        return _new_tuple(FlowKey, (ip.dst_ip, ip.src_ip, tcp.dst_port, tcp.src_port))
    raise ValueError(f"direction must be 0 or 1, got {direction}")


def make_packet(src_ip: str | Ipv4Address, dst_ip: str | Ipv4Address,
                src_mac: str | MacAddr, dst_mac: str | MacAddr,
                sport: int, dport: int, flags: int = SYN, ttl: int = 64,
                payload: bytes = b"", seq: int = 0, ack: int = 0) -> Packet:
    """Convenience constructor used by hosts and tests. Addresses may be
    text or already-parsed values. Raises ValueError for a TTL outside
    0..255, a payload too long for the 16-bit total_length, or a port
    outside 0..65535."""
    if isinstance(src_ip, str):
        src_ip = Ipv4Address.from_text(src_ip)
    if isinstance(dst_ip, str):
        dst_ip = Ipv4Address.from_text(dst_ip)
    if isinstance(src_mac, str):
        src_mac = MacAddr.from_text(src_mac)
    if isinstance(dst_mac, str):
        dst_mac = MacAddr.from_text(dst_mac)
    if not 0 <= ttl <= 0xFF:
        raise ValueError(f"TTL {ttl} outside 0..255")
    total_length = IPV4_LEN + TCP_LEN + len(payload)
    if total_length > 0xFFFF:
        raise ValueError(f"total_length {total_length} exceeds 65535")
    return _new_tuple(Packet, (
        _new_tuple(EthernetHeader, (dst_mac, src_mac, ETHERTYPE_IPV4)),
        _new_tuple(Ipv4Header, (src_ip, dst_ip, ttl, PROTO_TCP, total_length, 0, 0, 0)),
        TcpHeader(sport, dport, flags, seq, ack),    # its __new__ checks the ports
        payload,
    ))
