import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p4filter import tables as tb
from p4filter.packet import Ipv4Address, MacAddr, make_packet
from p4filter.stateless import stateless_check
from p4filter.verdict import DROPPED, FORWARDED, PUNTED

H2_IP = "10.0.1.2"
H2_MAC = "02:00:00:00:01:02"
OTHER_MAC = "02:00:00:00:0f:0f"


@pytest.fixture
def firewall_tables():
    check_ip = tb.Table("check_ip", (tb.KIND_IPV4,), tb.send_to_controller())
    check_mac = tb.Table("check_mac", (tb.KIND_IPV4, tb.KIND_MAC), tb.drop())
    return check_ip, check_mac


def allow_host(check_ip, check_mac, ip, mac):
    check_ip.insert(tb.Rule((Ipv4Address.from_text(ip),), tb.set_allowed()))
    check_mac.insert(tb.Rule((Ipv4Address.from_text(ip),
                              MacAddr.from_text(mac)), tb.set_allowed()))


def packet_from(ip, mac):
    return make_packet(src_mac=mac, dst_mac="02:00:00:00:05:01",
                       src_ip=ip, dst_ip="10.0.5.1", sport=40000, dport=80)


class TestVerdicts:
    def test_registered_source_allowed(self, firewall_tables):
        check_ip, check_mac = firewall_tables
        allow_host(check_ip, check_mac, H2_IP, H2_MAC)
        v = stateless_check(packet_from(H2_IP, H2_MAC), check_ip, check_mac)
        assert v.kind == FORWARDED and v.reason == "stateless allow"

    def test_unknown_source_punted(self, firewall_tables):
        check_ip, check_mac = firewall_tables
        v = stateless_check(packet_from(H2_IP, H2_MAC), check_ip, check_mac)
        assert v.kind == PUNTED and v.reason == "check_ip punt"

    def test_denied_source_dropped(self, firewall_tables):
        check_ip, check_mac = firewall_tables
        check_ip.insert(tb.Rule((Ipv4Address.from_text(H2_IP),), tb.drop()))
        v = stateless_check(packet_from(H2_IP, H2_MAC), check_ip, check_mac)
        assert v.kind == DROPPED and v.reason == "check_ip drop"

    def test_known_ip_wrong_mac_dropped(self, firewall_tables):
        """A spoofer borrowing an allowed IP without its MAC is dropped, not
        punted: the IP stage passes but the exact (IP, MAC) binding misses."""
        check_ip, check_mac = firewall_tables
        allow_host(check_ip, check_mac, H2_IP, H2_MAC)
        v = stateless_check(packet_from(H2_IP, OTHER_MAC), check_ip, check_mac)
        assert v.kind == DROPPED and v.reason == "check_mac drop"

    def test_mac_binding_is_per_ip(self, firewall_tables):
        """The same MAC talking from an unregistered IP does not inherit the
        registered host's allowance."""
        check_ip, check_mac = firewall_tables
        allow_host(check_ip, check_mac, H2_IP, H2_MAC)
        v = stateless_check(packet_from("10.0.1.9", H2_MAC),
                            check_ip, check_mac)
        assert v.kind == PUNTED

    def test_destination_never_consulted(self, firewall_tables):
        """Only the source addresses matter; a denied IP in the destination
        column does not affect the verdict."""
        check_ip, check_mac = firewall_tables
        allow_host(check_ip, check_mac, H2_IP, H2_MAC)
        check_ip.insert(tb.Rule((Ipv4Address.from_text("10.0.5.1"),),
                                tb.drop()))
        v = stateless_check(packet_from(H2_IP, H2_MAC), check_ip, check_mac)
        assert v.kind == FORWARDED


class TestProperties:
    @given(st.integers(0, 255), st.integers(0, 255), st.booleans())
    @settings(max_examples=200)
    def test_never_allows_without_both_rules(self, ip_byte, mac_byte,
                                             install_ip_only):
        """Allow requires the IP rule AND the matching MAC binding; any
        partial install yields Drop or ToController, never Allow."""
        check_ip = tb.Table("check_ip", (tb.KIND_IPV4,),
                            tb.send_to_controller())
        check_mac = tb.Table("check_mac", (tb.KIND_IPV4, tb.KIND_MAC),
                             tb.drop())
        ip = f"10.0.9.{ip_byte}"
        mac = f"02:00:00:00:09:{mac_byte:02x}"
        if install_ip_only:
            check_ip.insert(tb.Rule((Ipv4Address.from_text(ip),),
                                    tb.set_allowed()))
        v = stateless_check(packet_from(ip, mac), check_ip, check_mac)
        assert v.kind != FORWARDED

    @given(st.integers(0, 255))
    @settings(max_examples=50)
    def test_deny_beats_allow_history(self, ip_byte):
        """Re-pointing an IP rule at Drop wins regardless of an intact MAC
        binding (deny is monotone over later lookups)."""
        check_ip = tb.Table("check_ip", (tb.KIND_IPV4,),
                            tb.send_to_controller())
        check_mac = tb.Table("check_mac", (tb.KIND_IPV4, tb.KIND_MAC),
                             tb.drop())
        ip = f"10.0.9.{ip_byte}"
        allow_host(check_ip, check_mac, ip, H2_MAC)
        check_ip.insert(tb.Rule((Ipv4Address.from_text(ip),), tb.drop()))
        v = stateless_check(packet_from(ip, H2_MAC), check_ip, check_mac)
        assert v.kind == DROPPED and v.reason == "check_ip drop"
