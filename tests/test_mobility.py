import json

import pytest
from hypothesis import given, strategies as st

from legsynth import cli
from legsynth.mobility import MechanismGraph, mobility, reference_graphs


class TestFixtures:
    def test_planar_tripod_scheme(self):
        graph = MechanismGraph(space="planar", moving_links=7, p5=9)
        assert mobility(graph).dof == 3

    def test_spatial_tripod_is_rational(self):
        graph = MechanismGraph(space="spatial", moving_links=10, p5=9, p3=3,
                               actuated_inputs=6)
        result = mobility(graph)
        assert result.dof == 6
        assert result.rational
        assert result.diagnosis == "rational"

    def test_rigid_octopod_is_irrational(self):
        graph = MechanismGraph(space="spatial", moving_links=13, p5=12, p3=4,
                               actuated_inputs=12)
        result = mobility(graph)
        assert result.dof == 6
        assert result.actuated_inputs == 12
        assert not result.rational
        assert result.diagnosis == "redundant-actuation"

    def test_segmented_octopod_is_rational(self):
        graph = MechanismGraph(space="spatial", moving_links=15, p5=14, p3=4,
                               actuated_inputs=8)
        result = mobility(graph)
        assert result.dof == 8
        assert result.rational

    def test_reference_set_reproduces_all_four(self):
        results = [mobility(g) for g in reference_graphs()]
        assert [r.dof for r in results] == [3, 6, 6, 8]
        assert [r.rational for r in results] == [None, True, False, True]


class TestFormula:
    def test_free_rigid_body_in_space(self):
        graph = MechanismGraph(space="spatial", moving_links=1)
        assert mobility(graph).dof == 6

    def test_planar_higher_pair(self):
        # cam pair removes one planar freedom
        graph = MechanismGraph(space="planar", moving_links=2, p5=2, p4=1)
        assert mobility(graph).dof == 1

    def test_under_actuated_diagnosis(self):
        graph = MechanismGraph(space="planar", moving_links=7, p5=9,
                               actuated_inputs=1)
        assert mobility(graph).diagnosis == "under-actuated"

    def test_empty_report(self, tmp_path, capsys):
        # no graphs and no fixtures: a table of the header alone
        config = tmp_path / "mobility.json"
        config.write_text(json.dumps({"graphs": [],
                                      "use_reference_fixtures": False}))
        out = tmp_path / "out"
        assert cli.main(["mobility", "--config", str(config),
                         "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "mobility.csv").read_text().splitlines()
        assert lines[1:] == ["label,dof,actuated_inputs,rational,diagnosis"]
        assert capsys.readouterr().out == ""

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MechanismGraph(space="planar", moving_links=-1)

    def test_over_actuation_rejected(self):
        with pytest.raises(ValueError):
            MechanismGraph(space="planar", moving_links=3, p5=2,
                           actuated_inputs=3)

    def test_bad_space_rejected(self):
        with pytest.raises(ValueError):
            MechanismGraph(space="hyperbolic", moving_links=1)

    @pytest.mark.parametrize("pair", ["p3", "p2", "p1"])
    def test_planar_rejects_spatial_pairs(self, pair):
        # W = 3n - 2 p5 - p4 has no term for them: with p3 = 5 this
        # graph read W = 1, "rational"
        with pytest.raises(ValueError, match="planar"):
            MechanismGraph(space="planar", moving_links=3, p5=4,
                           actuated_inputs=1, **{pair: 5})

    @pytest.mark.parametrize("pair", ["p3", "p2", "p1"])
    def test_spatial_takes_every_pair(self, pair):
        graph = MechanismGraph(space="spatial", moving_links=3, **{pair: 1})
        assert mobility(graph).dof == 18 - {"p3": 3, "p2": 2, "p1": 1}[pair]


counts = st.integers(min_value=0, max_value=20)


class TestAdditivity:
    @given(n1=counts, p5a=counts, p3a=counts, n2=counts, p5b=counts,
           p3b=counts)
    def test_disjoint_union_adds_dof(self, n1, p5a, p3a, n2, p5b, p3b):
        a = MechanismGraph(space="spatial", moving_links=n1, p5=p5a, p3=p3a)
        b = MechanismGraph(space="spatial", moving_links=n2, p5=p5b, p3=p3b)
        union = MechanismGraph(space="spatial", moving_links=n1 + n2,
                               p5=p5a + p5b, p3=p3a + p3b)
        assert mobility(union).dof == mobility(a).dof + mobility(b).dof

    def test_no_automatic_space_conversion(self):
        # evaluating a planar census with the spatial formula is a
        # different number unless the caller supplies the spatialized
        # counterpart; the module offers no converter
        import legsynth.mobility as mod
        assert not any("convert" in name or "spatialize" in name
                       for name in dir(mod))
