"""One member table: what each family member decides (its names, its
index and grid, its mean links and its dispersion model) is read from
``family._MEMBERS`` through the ``FamilySpec``, the README's "Families"
table states the same facts, and a grid in p reaches a member only
where it means something."""

from pathlib import Path

import numpy as np
import pytest

from conftest import make_instance, spec_for
from static_scan import MODULES, SCANS, attribute_reads, imported_modules
from twdglm import family as fam
from twdglm.errors import ConfigError
from twdglm.family import FamilySpec, Member, default_p_grid
from twdglm.graph import PenaltyMode, assemble_penalty
from twdglm.optimizer import FitConfig, fit
from twdglm.tuning import GridSpec, grid_search

# the closed forms per (member, link), which may branch on the member
KERNELS = {"likelihood.py": {"_mean_exponent", "_saddle_rows",
                             "_lognorm_terms"}}
FIXED = [m for m in Member if m is not Member.COMPOUND_POISSON_GAMMA]


def _stray_member_reads(path):
    """Lines outside ``family.py`` and the kernels that read a Member."""
    if path.name == "family.py":
        return []
    tree = SCANS[path].tree
    allowed = {id(node) for fn in tree.body
               if getattr(fn, "name", None) in KERNELS.get(path.name, ())
               for node in attribute_reads(fn, "Member")}
    return [node.lineno for node in attribute_reads(tree, "Member")
            if id(node) not in allowed]


class TestOneHome:
    @pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
    def test_members_are_read_only_in_the_table_and_kernels(self, path):
        stray = _stray_member_reads(path)
        assert not stray, (f"{path.name} reads Member.<X> at lines {stray}: "
                           "ask the FamilySpec instead")

    def test_links_import_nothing_from_family(self):
        links = SCANS[MODULES[0].parent / "links.py"]
        assert "family" not in imported_modules(links.tree)


class TestSpecAnswers:
    @pytest.mark.parametrize("member", list(Member))
    def test_named_round_trip(self, member):
        for name in fam._MEMBERS[member].names:
            spec = FamilySpec.named(name.upper())
            assert spec.member is member
            assert spec.p == fam._MEMBERS[member].start

    def test_unknown_name(self):
        with pytest.raises(ConfigError) as err:
            FamilySpec.named("Weibull")
        assert str(err.value) == "unknown family 'weibull'"

    def test_only_the_compound_member_profiles_p(self):
        assert [m for m in Member if spec_for(m).free_index] == [
            Member.COMPOUND_POISSON_GAMMA]

    def test_only_poisson_lacks_a_dispersion_model(self):
        assert [m for m in Member if not spec_for(m).has_dispersion] == [
            Member.POISSON]


def _readme_families():
    """The rows of the README's "Families" table, without the member
    column."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("## Families")
    head = next(i for i in range(start, len(lines))
                if lines[i].startswith("| Member |"))
    rows = []
    for line in lines[head + 2:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip() for c in line.strip("|").split("|")][1:])
    return rows


def _table_row(member):
    """The README row that the member table implies."""
    facts = fam._MEMBERS[member]
    spec = FamilySpec.named(facts.names[0])
    if spec.free_index:
        grid = default_p_grid(spec)
        step = (grid[-1] - grid[0]) / (grid.size - 1)
        np.testing.assert_allclose(np.diff(grid), step)
        index = (f"profiled over `{grid[0]:g}:{grid[-1]:g}:{step:g}`, "
                 f"from {spec.p:g}")
    else:
        index = f"fixed at {spec.p:g}"
    links = ", ".join(f"**`{k.value}`**" if k is spec.default_link
                      else f"`{k.value}`" for k in facts.mean_links)
    return [", ".join(f"`{n}`" for n in facts.names), index, links,
            "yes" if spec.has_dispersion else "no: φ = 1"]


def test_readme_families_table_matches_the_code():
    assert _readme_families() == [_table_row(m) for m in Member]


class TestIndexGrid:
    @pytest.mark.parametrize("member", FIXED)
    def test_fixed_member_refuses_a_grid(self, member):
        spec = spec_for(member)
        with pytest.raises(ConfigError) as err:
            spec.index_grid([1.1, 1.5])
        assert str(err.value) == (f"p_grid does not apply to "
                                  f"{member.value}, whose index is fixed "
                                  f"at p = {spec.p}")

    @pytest.mark.parametrize("member", FIXED)
    def test_fixed_member_takes_no_grid_or_its_own_point(self, member):
        spec = spec_for(member)
        for grid in ([], [spec.p]):
            got, walk = spec.index_grid(grid)
            assert got == spec and walk.tolist() == [spec.p]

    def test_compound_member_snaps_to_the_default_grid(self):
        spec = FamilySpec.compound_poisson_gamma(1.52)
        got, walk = spec.index_grid([])
        np.testing.assert_array_equal(walk, default_p_grid(spec))
        assert got == spec.with_p(1.5)

    def test_compound_grid_outside_the_range(self):
        with pytest.raises(ConfigError) as err:
            FamilySpec.compound_poisson_gamma(1.5).index_grid([0.5, 1.5])
        assert str(err.value) == "p_grid must lie inside (1, 2)"


def _gamma_problem():
    data, _, spec, links = make_instance(Member.GAMMA, "log", seed=1)
    pen = assemble_penalty(PenaltyMode.SPATIAL_ONLY, 1.0, 1.0, data.k_beta,
                           data.graph, data.k_gamma)
    return data, spec, links, pen


class TestFitHonoursTheGrid:
    """``FitConfig.p_grid`` on a fixed-index member either means what it
    says or fails: it was once dropped without a word."""

    MESSAGE = "p_grid does not apply to gamma, whose index is fixed at p = 2.0"

    def test_fit_refuses_a_grid(self):
        data, spec, links, pen = _gamma_problem()
        with pytest.raises(ConfigError) as err:
            fit(data, spec, links, FitConfig(penalty=pen,
                                             p_grid=[1.1, 1.5]))
        assert str(err.value) == self.MESSAGE

    def test_grid_search_refuses_before_any_cell(self):
        data, spec, links, pen = _gamma_problem()
        with pytest.raises(ConfigError) as err:
            grid_search(data, spec, links,
                        FitConfig(penalty=pen, p_grid=[1.1, 1.5]),
                        GridSpec([0.0], [0.0]))
        assert str(err.value) == self.MESSAGE

    def test_own_point_fits_as_no_grid(self):
        data, spec, links, pen = _gamma_problem()
        a = fit(data, spec, links, FitConfig(penalty=pen))
        b = fit(data, spec, links, FitConfig(penalty=pen, p_grid=[2.0]))
        assert a.p_hat == b.p_hat == 2.0
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
