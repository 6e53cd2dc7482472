"""Exact TOSCA deployment orders, including ties between ready templates.

Among templates whose requirements are all deployed, the one with the
smallest name deploys first.  These lists pin that order on topologies
with several roots, so any change of the topological sort shows up as
a different list, not just a different-but-valid order.
"""

import pytest

from repro.hpcwaas import NodeTemplate, TOSCAError, Topology, topology_from_yaml
from repro.workflow.tosca import CASE_STUDY_TOSCA


def _topology(*templates):
    topo = Topology("t")
    for name, requirements in templates:
        topo.add(NodeTemplate(name, "x", requirements=list(requirements)))
    return topo


def _order(topo):
    return [t.name for t in topo.deployment_order()]


class TestDeploymentOrder:
    def test_two_roots_with_ties(self):
        topo = _topology(
            ("zeta", []),
            ("beta", ["zeta", "alpha"]),
            ("app", ["mid", "beta"]),
            ("mid", ["alpha"]),
            ("alpha", []),
        )
        assert _order(topo) == ["alpha", "mid", "zeta", "beta", "app"]

    def test_three_roots_and_a_diamond(self):
        topo = _topology(
            ("sink", ["left", "right"]),
            ("right", ["root_b"]),
            ("left", ["root_b", "root_c"]),
            ("root_c", []),
            ("root_b", []),
            ("lone", []),
        )
        assert _order(topo) == ["lone", "root_b", "right", "root_c", "left", "sink"]

    def test_duplicate_requirements(self):
        topo = _topology(("b", ["a", "a"]), ("a", []), ("c", []))
        assert _order(topo) == ["a", "b", "c"]

    def test_case_study_topology(self):
        topo = topology_from_yaml(CASE_STUDY_TOSCA)
        assert _order(topo) == [
            "zeus", "climate_image", "compss_env", "tc_model_data", "extremes_app",
        ]

    def test_demo_service_topologies(self):
        from repro.service import demo

        esm = topology_from_yaml(demo._ESM_TOSCA)
        analytics = topology_from_yaml(demo._ANALYTICS_TOSCA)
        assert _order(esm) == ["compute", "esm_app"]
        assert _order(analytics) == ["compute", "analytics_app"]


class TestCycleRejection:
    def test_cycle_is_named(self):
        topo = _topology(
            ("outside_dependent", ["loop_one"]),
            ("loop_one", ["loop_two"]),
            ("loop_two", ["loop_three"]),
            ("loop_three", ["loop_one"]),
            ("standalone", []),
        )
        with pytest.raises(TOSCAError, match="requirement cycle") as info:
            topo.validate()
        message = str(info.value)
        for name in ("loop_one", "loop_two", "loop_three"):
            assert name in message
        assert "outside_dependent" not in message
        assert "standalone" not in message
        with pytest.raises(TOSCAError, match="requirement cycle"):
            topo.deployment_order()

    def test_self_requirement_is_a_cycle(self):
        topo = _topology(("solo", ["solo"]), ("other", []))
        with pytest.raises(TOSCAError, match="solo"):
            topo.deployment_order()
