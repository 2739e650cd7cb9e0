import copy

import pytest

from p4filter.bundled import default_topology_path
from p4filter.packet import Ipv4Address
from p4filter.topology import (InvalidTopology, build_network, compute_routes,
                               load_topology, parse_topology)


def ip(text):
    return Ipv4Address.from_text(text)


def minimal():
    """One switch, two hosts — the smallest network that can carry
    traffic."""
    return {
        "switches": [{"id": "s1", "ports": [1, 2]}],
        "hosts": [
            {"name": "h1", "ip": "10.0.0.1", "mac": "02:00:00:00:00:01",
             "switch": "s1", "port": 1},
            {"name": "h2", "ip": "10.0.0.2", "mac": "02:00:00:00:00:02",
             "switch": "s1", "port": 2},
        ],
        "links": [],
    }


def pair():
    """Two switches joined by one link, a host on each."""
    return {
        "switches": [{"id": "s1", "ports": [1, 2]},
                     {"id": "s2", "ports": [1, 2]}],
        "hosts": [
            {"name": "h1", "ip": "10.0.0.1", "mac": "02:00:00:00:00:01",
             "switch": "s1", "port": 1},
            {"name": "h2", "ip": "10.0.0.2", "mac": "02:00:00:00:00:02",
             "switch": "s2", "port": 1},
        ],
        "links": [["s1", 2, "s2", 2]],
    }


class TestDefaultTopology:
    def test_loads_and_validates(self):
        spec = load_topology(default_topology_path())
        assert len(spec.switches) == 6
        assert len(spec.hosts) == 7
        assert {h.name for h in spec.hosts} == {"h1", "h2", "h3", "h4",
                                                "h5", "h6", "h7"}

    def test_every_switch_reaches_every_host(self):
        spec = load_topology(default_topology_path())
        routes = compute_routes(spec)
        for sid, table in routes.items():
            assert set(table) == {h.ip for h in spec.hosts}, sid

    def test_knocking_switches_start_unrouted(self):
        """Forwarding on knocking switches is controller-installed, so a
        freshly built network has no routes there, but full static routes
        everywhere else."""
        spec = load_topology(default_topology_path())
        network = build_network(spec, compute_routes(spec))
        assert len(network["s6"].tables["ipv4_forward"].rules) == 0
        for sid in ("s1", "s2", "s3", "s4", "s5"):
            assert len(network[sid].tables["ipv4_forward"].rules) == 7

    def test_internal_ports_prepopulated(self):
        spec = load_topology(default_topology_path())
        network = build_network(spec, compute_routes(spec))
        table = network["s1"].tables["check_ports"]
        for port, expect_hit in ((1, True), (2, True), (3, False)):
            action, hit = table.lookup((port,))
            assert hit == expect_hit
            assert action.param_dict["dir"] == (0 if expect_hit else 1)


class TestValidation:
    def test_minimal_accepted(self):
        spec = parse_topology(minimal())
        assert spec.host_by_name()["h1"].port == 1

    @pytest.fixture
    def broken(self):
        return copy.deepcopy(pair())

    def test_rejects_non_object(self):
        with pytest.raises(InvalidTopology):
            parse_topology([1, 2, 3])

    def test_rejects_missing_section(self, broken):
        del broken["links"]
        with pytest.raises(InvalidTopology, match="links"):
            parse_topology(broken)

    def test_rejects_duplicate_switch_ids(self, broken):
        broken["switches"].append({"id": "s1", "ports": [9]})
        with pytest.raises(InvalidTopology, match="duplicate switch"):
            parse_topology(broken)

    def test_rejects_duplicate_host_names(self, broken):
        broken["hosts"][1]["name"] = "h1"
        with pytest.raises(InvalidTopology, match="duplicate host names"):
            parse_topology(broken)

    def test_rejects_duplicate_ips(self, broken):
        broken["hosts"][1]["ip"] = "10.0.0.1"
        with pytest.raises(InvalidTopology, match="duplicate host IPs"):
            parse_topology(broken)

    def test_rejects_duplicate_macs(self, broken):
        broken["hosts"][1]["mac"] = "02:00:00:00:00:01"
        with pytest.raises(InvalidTopology, match="duplicate host MACs"):
            parse_topology(broken)

    def test_rejects_unknown_switch_attachment(self, broken):
        broken["hosts"][0]["switch"] = "s9"
        with pytest.raises(InvalidTopology, match="unknown switch"):
            parse_topology(broken)

    def test_rejects_missing_port(self, broken):
        broken["hosts"][0]["port"] = 7
        with pytest.raises(InvalidTopology, match="missing port"):
            parse_topology(broken)

    def test_rejects_link_to_missing_port(self, broken):
        broken["links"][0] = ["s1", 2, "s2", 9]
        with pytest.raises(InvalidTopology, match="missing port"):
            parse_topology(broken)

    def test_rejects_double_attachment(self, broken):
        broken["hosts"][1]["switch"] = "s1"
        broken["hosts"][1]["port"] = 1
        with pytest.raises(InvalidTopology, match="attached more than once"):
            parse_topology(broken)

    def test_rejects_port_shared_by_host_and_link(self, broken):
        broken["links"][0] = ["s1", 1, "s2", 2]
        with pytest.raises(InvalidTopology, match="attached more than once"):
            parse_topology(broken)

    def test_rejects_self_link(self, broken):
        broken["switches"][0]["ports"] = [1, 2, 3]
        broken["links"].append(["s1", 2, "s1", 3])
        with pytest.raises(InvalidTopology, match="attached more than once|self-link"):
            parse_topology(broken)

    def test_rejects_disconnected_graph(self, broken):
        broken["links"] = []
        with pytest.raises(InvalidTopology, match="not connected"):
            parse_topology(broken)

    def test_rejects_bad_feature(self, broken):
        broken["switches"][0]["features"] = ["Quantum"]
        with pytest.raises(InvalidTopology):
            parse_topology(broken)

    def test_rejects_internal_ports_outside_ports(self, broken):
        broken["switches"][0]["internal_ports"] = [9]
        with pytest.raises(InvalidTopology):
            parse_topology(broken)

    def test_rejects_cpu_port_collision(self, broken):
        broken["switches"][0]["ports"] = [1, 2, 55]
        with pytest.raises(InvalidTopology):
            parse_topology(broken)

    @pytest.mark.parametrize("path, value", [
        (("switches", 0, "ports"), ["a", 1, 2]),
        (("switches", 0, "ports"), [True, 2]),
        (("switches", 0, "internal_ports"), [True]),
        (("switches", 0, "cpu_port"), "55"),
        (("hosts", 0, "port"), True),
        (("hosts", 0, "port"), 1.0),
        (("links", 0, 1), "2"),
        (("links", 0, 3), 2.0),
        (("switches", 0, "ports"), [-1, 1, 2]),
        (("switches", 0, "cpu_port"), 65536),
        (("switches", 0, "ports"), [1, 2, 2**70]),
        (("hosts", 0, "port"), 2**70),
    ], ids=["ports-str", "ports-bool", "internal-bool", "cpu-str",
            "host-bool", "host-float", "link-a-str", "link-b-float",
            "ports-negative", "cpu-65536", "ports-2**70", "host-2**70"])
    def test_rejects_non_integer_port(self, broken, path, value):
        *parents, last = path
        target = broken
        for step in parents:
            target = target[step]
        target[last] = value
        with pytest.raises(InvalidTopology, match="is not an integer"):
            parse_topology(broken)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InvalidTopology):
            load_topology(str(tmp_path / "absent.json"))

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text("{nope")
        with pytest.raises(InvalidTopology):
            load_topology(str(path))


class TestRoutes:
    def test_local_hosts_use_attachment_port(self):
        routes = compute_routes(parse_topology(pair()))
        assert routes["s1"][ip("10.0.0.1")] == 1
        assert routes["s2"][ip("10.0.0.2")] == 1

    def test_remote_hosts_use_link_port(self):
        routes = compute_routes(parse_topology(pair()))
        assert routes["s1"][ip("10.0.0.2")] == 2
        assert routes["s2"][ip("10.0.0.1")] == 2

    def test_default_topology_spot_checks(self):
        spec = load_topology(default_topology_path())
        routes = compute_routes(spec)
        # s1 reaches everything beyond itself through its uplink port 3
        assert routes["s1"][ip("10.0.1.1")] == 1
        assert routes["s1"][ip("10.0.1.2")] == 2
        assert routes["s1"][ip("10.0.5.1")] == 3
        assert routes["s1"][ip("10.0.2.1")] == 3
        # s3 fans out: s1-side hosts via port 1, s2 via 3, the rest via 2
        assert routes["s3"][ip("10.0.1.1")] == 1
        assert routes["s3"][ip("10.0.2.1")] == 3
        assert routes["s3"][ip("10.0.5.1")] == 2
        assert routes["s3"][ip("10.0.6.1")] == 2
        # s4 splits s5-side and s6-side hosts
        assert routes["s4"][ip("10.0.5.1")] == 3
        assert routes["s4"][ip("10.0.6.1")] == 2

    def test_routes_deterministic(self):
        spec = load_topology(default_topology_path())
        assert compute_routes(spec) == compute_routes(spec)


class TestMinimalNetworkEndToEnd:
    def test_one_switch_carries_traffic(self):
        from p4filter.packet import make_packet
        spec = parse_topology(minimal())
        network = build_network(spec, compute_routes(spec))
        sw = network["s1"]
        p = make_packet(src_mac="02:00:00:00:00:01",
                        dst_mac="02:00:00:00:00:02",
                        src_ip="10.0.0.1", dst_ip="10.0.0.2",
                        sport=1234, dport=80)
        _, _, out = sw.process_packet(1, p)
        assert out.egress_port == 2
        assert out.packet.ip.ttl == 63
