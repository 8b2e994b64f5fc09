import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from bibkit import verify
from bibkit.harness import _labels_rows, load_corpus, read_labels, tsv_lines
from bibkit.model import ALL_SLOTS, BibEntry, FieldLabel, FieldSlot, parse_entry, serialize_entry, slot_of
from bibkit.normalize import VenueSynonymTable
from bibkit.verify import (
    CANNOT_ASSESS,
    CriterionVerdict,
    EVALUABLE_SLOTS,
    GroundTruth,
    GroundTruthVersion,
    MET,
    PENDING,
    STAGE2_LABELS,
    UNMET,
    aggregate_stats,
    classify_error_mode,
    classify_stage1,
    classify_stage2,
    verdict_from_criteria,
    verify_entry,
)

from conftest import FIXTURES, load_fixture, slot_labels
from reference_impls import (
    brute_co_error,
    brute_tally,
    parent_aggregate_stats,
    parent_classify_error_mode,
    parent_classify_stage1,
    parent_slot_of,
    parent_values_for,
    parent_verify_entry,
)

TABLE = VenueSynonymTable.default()


def stage2_slots(vector: tuple[FieldLabel, ...]) -> set[FieldSlot]:
    """The slots stage 2 labelled: those whose label is one of ``STAGE2_LABELS``."""
    return {slot for slot, label in zip(ALL_SLOTS, vector) if label in STAGE2_LABELS}


# -- fixture papers ----------------------------------------------------------


def isolated_ground_truth() -> GroundTruth:
    return GroundTruth(
        paper_id="mcauley2012",
        versions=(
            GroundTruthVersion(
                "proceedings",
                {
                    "entry_type": "inproceedings",
                    "author": "Julian J. McAuley, Jure Leskovec",
                    "title": "Learning to Discover Social Circles in Ego Networks",
                    "year": "2012",
                    "venue": "Advances in Neural Information Processing Systems 25",
                    "pages": "548--556",
                },
            ),
        ),
    )


ISOLATED_ENTRY = parse_entry(
    "@inproceedings{mcauley2012,"
    " author={Julian McAuley, Jure Leskovec},"
    " title={Learning to Discover Social Circles in Ego Networks},"
    " booktitle={Advances in Neural Information Processing Systems 25},"
    " year={2012},"
    " pages={539--547}}"
)


def wholesale_ground_truth() -> GroundTruth:
    return GroundTruth(
        paper_id="yamashita2016",
        versions=(
            GroundTruthVersion(
                "journal",
                {
                    "entry_type": "article",
                    "author": "Yamashita, Shinichi and Ito, Akihiro",
                    "title": "Impact of relapse site on oncological outcomes after radical nephroureterectomy",
                    "year": "2016",
                    "venue": "Journal of Clinical Oncology",
                    "volume": "34",
                    "number": "2_suppl",
                    "pages": "426--426",
                    "doi": "10.1200/jco.2016.34.2_suppl.426",
                },
            ),
        ),
        known_aliases=(
            {
                "title": "Clinical implications of intravesical recurrence after radical nephroureterectomy",
                "venue": "International Journal of Urology",
                "doi": "10.1111/iju.13054",
            },
        ),
    )


WHOLESALE_ENTRY = parse_entry(
    "@article{yamashita2016,"
    " author={Yamashita, Shinichi and Ito, Akihiro},"
    " title={Clinical implications of intravesical recurrence after radical nephroureterectomy},"
    " journal={International Journal of Urology},"
    " year={2016},"
    " volume={23},"
    " number={5},"
    " pages={378--384},"
    " doi={10.1111/iju.13054}}"
)


def two_version_ground_truth() -> GroundTruth:
    return GroundTruth(
        paper_id="attention2017",
        versions=(
            GroundTruthVersion(
                "arxiv",
                {
                    "entry_type": "misc",
                    "author": "Vaswani, Ashish and Shazeer, Noam",
                    "title": "Attention Is All You Need",
                    "year": "2017",
                    "venue": "arXiv",
                    "doi": "10.48550/arXiv.1706.03762",
                    "eprint": "1706.03762",
                },
            ),
            GroundTruthVersion(
                "journal",
                {
                    "entry_type": "article",
                    "author": "Vaswani, Ashish and Shazeer, Noam",
                    "title": "Attention Is All You Need",
                    "year": "2018",
                    "venue": "Journal of Machine Learning Research",
                    "volume": "21",
                    "number": "1",
                    "pages": "1--15",
                    "doi": "10.5555/3295222.3295349",
                },
            ),
        ),
    )


ARXIV_MATCHING_ENTRY = parse_entry(
    "@misc{vaswani2017,"
    " author={Vaswani, Ashish and Shazeer, Noam},"
    " title={Attention Is All You Need},"
    " year={2017},"
    " journal={arXiv},"
    " doi={10.48550/arXiv.1706.03762}}"
)


# -- verdict mapping (golden, every criterion combination) ----------------------


@pytest.mark.parametrize(
    "partial,different,label",
    [
        (MET, MET, FieldLabel.P),
        (MET, UNMET, FieldLabel.P),
        (UNMET, MET, FieldLabel.S),
        (UNMET, UNMET, FieldLabel.F),
        (UNMET, CANNOT_ASSESS, FieldLabel.F),
        (CANNOT_ASSESS, MET, FieldLabel.S),
        (CANNOT_ASSESS, UNMET, FieldLabel.F),
        (CANNOT_ASSESS, CANNOT_ASSESS, FieldLabel.F),
    ],
)
def test_verdict_mapping_golden(partial, different, label):
    assert verdict_from_criteria(CriterionVerdict(partial, different)) is label


def test_verdict_mapping_met_any_is_p():
    for different in (MET, UNMET, CANNOT_ASSESS):
        assert verdict_from_criteria(CriterionVerdict(MET, different)) is FieldLabel.P


# -- failure-mode fixtures -----------------------------------------------------


def test_isolated_entry_labels():
    vector = verify_entry(ISOLATED_ENTRY, isolated_ground_truth(), TABLE)
    labels = slot_labels(vector)
    assert labels[FieldSlot.TITLE] is FieldLabel.C
    assert labels[FieldSlot.AUTHOR] is FieldLabel.C
    assert labels[FieldSlot.YEAR] is FieldLabel.C
    assert labels[FieldSlot.VENUE] is FieldLabel.C
    assert labels[FieldSlot.PAGES] is FieldLabel.F
    assert labels[FieldSlot.ENTRY_KEY] is FieldLabel.X
    assert classify_error_mode(vector) == "isolated"
    assert stage2_slots(vector) == {FieldSlot.PAGES}


def test_wholesale_entry_labels():
    vector = verify_entry(WHOLESALE_ENTRY, wholesale_ground_truth(), TABLE)
    labels = slot_labels(vector)
    assert labels[FieldSlot.TITLE] is FieldLabel.S
    assert labels[FieldSlot.VENUE] is FieldLabel.S
    assert labels[FieldSlot.DOI] is FieldLabel.S
    assert labels[FieldSlot.VOLUME] is FieldLabel.F
    assert labels[FieldSlot.NUMBER] is FieldLabel.F
    assert labels[FieldSlot.PAGES] is FieldLabel.F
    assert labels[FieldSlot.AUTHOR] is FieldLabel.C
    assert labels[FieldSlot.YEAR] is FieldLabel.C
    assert labels[FieldSlot.ENTRY_TYPE] is FieldLabel.C
    substituted = sum(1 for l in labels.values() if l is FieldLabel.S)
    assert substituted >= 3
    assert classify_error_mode(vector) == "wholesale"


# -- calibration triple --------------------------------------------------------


def calibration_ground_truth() -> GroundTruth:
    return GroundTruth(
        paper_id="calibration",
        versions=(
            GroundTruthVersion(
                "proceedings",
                {
                    "author": "Vaswani, Ashish and Shazeer, Noam and Parmar, Niki and Polosukhin, Illia",
                    "title": "Attention Is All You Need",
                    "venue": "Advances in Neural Information Processing Systems (NeurIPS) 2017",
                    "year": "2017",
                    "doi": "10.1038/s41586-020-1234-5",
                },
            ),
        ),
    )


def test_calibration_author_truncation_is_partial():
    cv = classify_stage2("Vaswani, A. et al.", FieldSlot.AUTHOR, calibration_ground_truth())
    assert (cv.partial_match, cv.different_paper) == (MET, UNMET)
    assert verdict_from_criteria(cv) is FieldLabel.P


def test_calibration_venue_cross_substitution_is_substituted():
    context = {FieldSlot.TITLE: FieldLabel.S, FieldSlot.YEAR: FieldLabel.F}
    cv = classify_stage2("ICML 2020", FieldSlot.VENUE, calibration_ground_truth(), context)
    assert (cv.partial_match, cv.different_paper) == (UNMET, MET)
    assert verdict_from_criteria(cv) is FieldLabel.S


def test_calibration_fabricated_doi_is_fabrication():
    cv = classify_stage2("10.1234/fake.5678", FieldSlot.DOI, calibration_ground_truth())
    assert (cv.partial_match, cv.different_paper) == (UNMET, UNMET)
    assert verdict_from_criteria(cv) is FieldLabel.F


# -- version awareness ---------------------------------------------------------


def test_arxiv_version_match_scores_all_correct():
    vector = verify_entry(ARXIV_MATCHING_ENTRY, two_version_ground_truth(), TABLE)
    for slot, label in slot_labels(vector).items():
        assert label in (FieldLabel.C, FieldLabel.X), (slot, label)
    assert classify_error_mode(vector) == "none"
    # year 2017 only exists in the arXiv version; 2018 is the journal year
    assert slot_labels(vector)[FieldSlot.YEAR] is FieldLabel.C


# -- stage 1 rules --------------------------------------------------------------


def test_stage1_entry_key_always_x():
    assert classify_stage1(ISOLATED_ENTRY, FieldSlot.ENTRY_KEY, isolated_ground_truth()) is FieldLabel.X


def test_stage1_inapplicable_slot_is_x():
    gt = wholesale_ground_truth()  # has volume/number/pages in ground truth
    entry = parse_entry("@misc{k, title={Impact of relapse site}}")
    for slot in (FieldSlot.VOLUME, FieldSlot.NUMBER, FieldSlot.PAGES):
        assert classify_stage1(entry, slot, gt) is FieldLabel.X


def test_stage1_absent_from_all_versions_is_x():
    gt = isolated_ground_truth()  # no doi in any version
    assert classify_stage1(ISOLATED_ENTRY, FieldSlot.DOI, gt) is FieldLabel.X


def test_stage1_missing_value_is_m():
    gt = wholesale_ground_truth()
    entry = parse_entry("@article{k, title={Whatever}}")
    assert classify_stage1(entry, FieldSlot.DOI, gt) is FieldLabel.M
    blank = parse_entry("@article{k, doi={}}")
    assert classify_stage1(blank, FieldSlot.DOI, gt) is FieldLabel.M


def test_stage1_normalized_match_is_c():
    gt = isolated_ground_truth()
    entry = parse_entry(
        "@inproceedings{k, title={{Learning} to {Discover} Social Circles in Ego Networks}}"
    )
    assert classify_stage1(entry, FieldSlot.TITLE, gt, TABLE) is FieldLabel.C


def test_stage1_mismatch_is_pending():
    gt = isolated_ground_truth()
    assert classify_stage1(ISOLATED_ENTRY, FieldSlot.PAGES, gt) is PENDING


def test_stage1_soundness_c_labels_recheck():
    gt = isolated_ground_truth()
    vector = verify_entry(ISOLATED_ENTRY, gt, TABLE)
    for slot, label in slot_labels(vector).items():
        if label is FieldLabel.C and slot not in stage2_slots(vector):
            assert classify_stage1(ISOLATED_ENTRY, slot, gt, TABLE) is FieldLabel.C


# -- stage 1 against its copy from before the lookups were bound --------------------


def _gt(*versions: dict[str, str]) -> GroundTruth:
    return GroundTruth("p", tuple(GroundTruthVersion("journal", fields) for fields in versions))


def _entry(entry_type: str, /, **fields: str) -> BibEntry:
    return BibEntry(entry_type, "k", fields)


#: One case per stage-1 rule: (entry, slot, ground truth, table, label).
STAGE1_RULE_CASES = [
    # X: the citation key, an inapplicable slot, no ground-truth value
    (_entry("article", title="A"), FieldSlot.ENTRY_KEY, _gt({"entry_key": "k"}), None, FieldLabel.X),
    (_entry("inproceedings", volume="5"), FieldSlot.VOLUME, _gt({"volume": "5"}), None, FieldLabel.X),
    (_entry("misc", pages="1-2"), FieldSlot.PAGES, _gt({"pages": "1-2"}), None, FieldLabel.X),
    (_entry("article", doi="10.1/x"), FieldSlot.DOI, _gt({"title": "A"}, {"doi": "  "}), None, FieldLabel.X),
    (_entry("article", title="A"), FieldSlot.TITLE, GroundTruth("p", ()), None, FieldLabel.X),
    # M: absent, blank, a literal venue field, a blank journal before a booktitle
    (_entry("article"), FieldSlot.TITLE, _gt({"title": "A"}), None, FieldLabel.M),
    (_entry("article", title=" "), FieldSlot.TITLE, _gt({"title": "A"}), None, FieldLabel.M),
    (_entry("article", venue="NeurIPS"), FieldSlot.VENUE, _gt({"venue": "NeurIPS"}), None, FieldLabel.M),
    (_entry("inproceedings", journal=" ", booktitle="ICML"), FieldSlot.VENUE, _gt({"venue": "ICML"}), None, FieldLabel.M),
    # C: equal after normalization, through the venue table, in a later version, the entry type
    (
        _entry("article", title="Attention Is All You Need"), FieldSlot.TITLE,
        _gt({"title": "attention is all you need"}), None, FieldLabel.C,
    ),
    (
        _entry("inproceedings", booktitle="NeurIPS"), FieldSlot.VENUE,
        _gt({"venue": "Advances in Neural Information Processing Systems"}), TABLE, FieldLabel.C,
    ),
    (_entry("article", year="2017"), FieldSlot.YEAR, _gt({"year": "2018"}, {"year": "2017"}), None, FieldLabel.C),
    (_entry("article"), FieldSlot.ENTRY_TYPE, _gt({"entry_type": " Article"}), None, FieldLabel.C),
    # pending: a value with no normal form equals nothing, even one without a normal form
    (_entry("article", year="n.d."), FieldSlot.YEAR, _gt({"year": "n.d."}), None, PENDING),
    (_entry("article", title="A"), FieldSlot.TITLE, _gt({"title": "B"}), None, PENDING),
]


@pytest.mark.parametrize("entry, slot, gt, table, label", STAGE1_RULE_CASES)
def test_stage1_rule_cases(entry, slot, gt, table, label):
    assert classify_stage1(entry, slot, gt, table) == label


#: Values that entries and ground truths share, so that drawn pairs reach every
#: rule: blanks, spellings that normalize equal and spellings that do not.
_VALUES = st.sampled_from(
    [
        "", "  ", "Smith, Jane and Doe, John", "Jane Smith and John Doe", "Smith, J.",
        "Attention Is All You Need", "attention is all you need!", "2017", "2017a", "2018", "n.d.",
        "NeurIPS", "Advances in Neural Information Processing Systems", "ICML", "10.1000/X",
        "https://doi.org/10.1000/x", "1--10", "1-10", "pp. 1-10", "5", "05", "article", "inproceedings", "misc",
    ]
) | st.text(max_size=6)
_ENTRY_TYPES = st.sampled_from(["article", "inproceedings", "misc", "incollection", "book"]) | st.text(max_size=4)
#: The fields an entry may hold: every slot's, both venue fields, the literal
#: virtual slot names, and one no slot reads.
_FIELD_NAMES = st.sampled_from(
    [
        "author", "title", "year", "journal", "booktitle", "volume", "number", "pages", "doi",
        "venue", "entry_type", "entry_key", "publisher",
    ]
)
ENTRIES = st.builds(
    BibEntry,
    entry_type=_ENTRY_TYPES,
    citation_key=st.sampled_from(["k", "smith2017"]),
    fields=st.dictionaries(_FIELD_NAMES, _VALUES, max_size=8),
)
GROUND_TRUTHS = st.builds(
    GroundTruth,
    paper_id=st.just("p"),
    versions=st.lists(
        st.builds(
            GroundTruthVersion,
            version_type=st.sampled_from(["arxiv", "proceedings", "journal"]),
            fields=st.dictionaries(st.sampled_from([slot.value for slot in FieldSlot]), _VALUES, max_size=10),
        ),
        max_size=3,
    ).map(tuple),
)


@settings(max_examples=300)
@given(ENTRIES)
@example(_entry("article", venue="V", entry_type="misc", entry_key="x"))
@example(_entry("inproceedings", journal="J", booktitle="B"))
@example(_entry("inproceedings", booktitle=""))
def test_slot_of_agrees_with_parent(entry):
    for slot in FieldSlot:
        assert slot_of(entry, slot) == parent_slot_of(entry, slot), slot


@st.composite
def stage1_inputs(draw):
    """An entry, a slot and a ground truth; often the entry holds a ground-truth value of the slot."""
    entry, slot, gt = draw(ENTRIES), draw(st.sampled_from(list(FieldSlot))), draw(GROUND_TRUTHS)
    values = [v for version in gt.versions if (v := version.fields.get(slot)) is not None]
    if values and draw(st.booleans()):
        value = draw(st.sampled_from(values))
        if slot is FieldSlot.ENTRY_TYPE:
            entry = BibEntry(value, entry.citation_key, entry.fields)
        else:
            name = draw(st.sampled_from(["journal", "booktitle"])) if slot is FieldSlot.VENUE else slot.value
            entry = BibEntry(entry.entry_type, entry.citation_key, {**entry.fields, name: value})
    return entry, slot, gt


def _rule_examples(test):
    for entry, slot, gt, table, _ in STAGE1_RULE_CASES:
        test = example((entry, slot, gt), table)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(stage1_inputs(), st.sampled_from([None, TABLE]))
@_rule_examples
def test_classify_stage1_agrees_with_parent(inputs, table):
    entry, slot, gt = inputs
    assert gt.values_for(slot) == parent_values_for(gt, slot)
    assert classify_stage1(entry, slot, gt, table) is parent_classify_stage1(entry, slot, gt, table)


@settings(max_examples=500, deadline=None)
@given(ENTRIES, GROUND_TRUTHS, st.sampled_from([None, TABLE]))
@example(  # the author and title, labelled F before the venue, are two suspects that make it S
    _entry("article", author="Ann Bell", title="Xylophone Yards", journal="Zebra Letters"),
    _gt({"author": "Cy Dunn", "title": "Pears Quarry", "venue": "Quantum Review"}),
    None,
)
def test_verify_entry_agrees_with_the_two_dict_parent(entry, gt, table):
    """One dict, its pending slots replaced by their stage-2 labels, gives the labels of two."""
    parent = parent_verify_entry(entry, gt, table)
    assert list(parent) == list(ALL_SLOTS)
    assert verify_entry(entry, gt, table) == tuple(parent.values())


# -- stage 2 specifics -----------------------------------------------------------


def test_stage2_pages_overlap_is_partial():
    gt = isolated_ground_truth()
    cv = classify_stage2("540--550", FieldSlot.PAGES, gt)
    assert cv.partial_match == MET  # 540-550 overlaps 548-556


def test_stage2_pages_past_the_int_string_limit_get_a_label():
    # 5000 digits, past Python's int-string limit (4300): page numbers compare as digit runs
    big = "1" * 5000
    gt = isolated_ground_truth()
    entry = parse_entry(serialize_entry(ISOLATED_ENTRY).replace("539--547", big))
    assert slot_labels(verify_entry(entry, gt, TABLE))[FieldSlot.PAGES] is FieldLabel.F
    gt = GroundTruth("p", (GroundTruthVersion("journal", {"pages": f"1{big}--3{big}"}),))
    assert classify_stage2(f"2{big}--4{big}", FieldSlot.PAGES, gt).partial_match == MET
    assert classify_stage2(f"0004{big}", FieldSlot.PAGES, gt).partial_match == UNMET
    assert classify_stage2(f"{big}--{big}", FieldSlot.PAGES, gt).partial_match == UNMET


#: ASCII digits to ASCII, fullwidth or Arabic-Indic ones; ``int()`` reads each script.
SCRIPTS = [str.maketrans("0123456789", "".join(map(chr, range(zero, zero + 10)))) for zero in (0x30, 0xFF10, 0x660)]


@given(
    st.integers(0, 10**30), st.integers(0, 10**30), st.integers(0, 2), st.integers(0, 2),
    st.sampled_from(SCRIPTS), st.sampled_from(SCRIPTS),
)
@example(1, 2, 0, 0, SCRIPTS[1], SCRIPTS[0])  # fullwidth 1 before ASCII 2
def test_page_numbers_order_as_the_integers_they_write(a, b, zeros_a, zeros_b, script_a, script_b):
    first = verify._page_range(("0" * zeros_a + str(a)).translate(script_a))[0]
    last = verify._page_range(f"p. {'0' * zeros_b}{b}".translate(script_b))[1]  # one number: its own range end
    assert (first <= last) == (a <= b)


def test_stage2_year_off_by_one_is_partial():
    gt = isolated_ground_truth()
    assert classify_stage2("2013", FieldSlot.YEAR, gt).partial_match == MET
    assert classify_stage2("2015", FieldSlot.YEAR, gt).partial_match == UNMET


def test_stage2_doi_same_registrant_similar_suffix():
    gt = GroundTruth(
        "p",
        (GroundTruthVersion("journal", {"doi": "10.1002/adma.202001234"}),),
    )
    assert classify_stage2("10.1002/adma.202001235", FieldSlot.DOI, gt).partial_match == MET
    assert classify_stage2("10.1002/zzzz.999", FieldSlot.DOI, gt).partial_match == UNMET


def test_stage2_preprint_doi_of_arxiv_version_is_partial():
    gt = GroundTruth(
        "p",
        (
            GroundTruthVersion("arxiv", {"eprint": "2510.16227"}),
            GroundTruthVersion("journal", {"doi": "10.1162/TACL.a.611"}),
        ),
    )
    cv = classify_stage2("10.48550/arXiv.2510.16227", FieldSlot.DOI, gt)
    assert cv.partial_match == MET
    assert verdict_from_criteria(cv) is FieldLabel.P


def arxiv_gt(**arxiv_fields) -> GroundTruth:
    """An arXiv version with ``arxiv_fields`` and a journal version whose DOI has another registrant."""
    return GroundTruth(
        "p",
        (
            GroundTruthVersion("arxiv", arxiv_fields),
            GroundTruthVersion("journal", {"doi": "10.1000/deep.nets.2021"}),
        ),
    )


DEEP_NETS = arxiv_gt(year="2021", url="https://arxiv.org/abs/2101.00123", title="Deep Nets")


@pytest.mark.parametrize(
    "doi, partial",
    [
        ("10.48550/arXiv.2101.00123", MET),
        ("10.48550/arXiv.2101.99999", UNMET),
        ("10.48550/arXiv.20", UNMET),  # in the year 2021
        ("10.48550/arXiv.abs", UNMET),  # in the URL
        ("10.48550/arXiv.nets", UNMET),  # in the title
    ],
    ids=["same-id", "other-id", "year-substring", "url-substring", "title-substring"],
)
def test_stage2_arxiv_doi_compares_the_stated_arxiv_id(doi, partial):
    assert classify_stage2(doi, FieldSlot.DOI, DEEP_NETS).partial_match == partial


@pytest.mark.parametrize(
    "doi, stated",
    [
        ("10.48550/arXiv.2101.00123v2", "https://arxiv.org/abs/2101.00123"),
        ("10.48550/arXiv.2101.00123", "https://arxiv.org/abs/2101.00123v3"),
        ("10.48550/arXiv.2101.00123v1", "arXiv:2101.00123v2"),
    ],
)
def test_stage2_arxiv_doi_matches_without_a_version_suffix(doi, stated):
    assert classify_stage2(doi, FieldSlot.DOI, arxiv_gt(url=stated)).partial_match == MET


@pytest.mark.parametrize(
    "doi, partial",
    [
        ("10.48550/arXiv.hep-th/9901001", MET),
        ("10.48550/arXiv.hep-th/9901001v2", MET),
        ("10.48550/arXiv.hep-th/990100", UNMET),  # a prefix of the id
        ("10.48550/arXiv.hep-th/99010", UNMET),
        ("10.48550/arXiv.hep-th", UNMET),
    ],
)
def test_stage2_old_style_arxiv_doi_matches_itself_only(doi, partial):
    gt = arxiv_gt(eprint="hep-th/9901001")
    assert classify_stage2(doi, FieldSlot.DOI, gt).partial_match == partial


def test_stage2_arxiv_doi_ignores_a_longer_id_holding_its_own():
    gt = arxiv_gt(note="see 12101.001234 and hep-th/99010012")
    for doi in ("10.48550/arXiv.2101.00123", "10.48550/arXiv.hep-th/9901001"):
        assert classify_stage2(doi, FieldSlot.DOI, gt).partial_match == UNMET


def test_stage2_entry_type_related_is_partial():
    gt = GroundTruth("p", (GroundTruthVersion("journal", {"entry_type": "article"}),))
    cv = classify_stage2("misc", FieldSlot.ENTRY_TYPE, gt, context={})
    assert cv.partial_match == MET
    assert verdict_from_criteria(cv) is FieldLabel.P


def test_stage2_entry_type_with_suspect_context_is_fabrication():
    gt = GroundTruth("p", (GroundTruthVersion("journal", {"entry_type": "article"}),))
    context = {FieldSlot.TITLE: FieldLabel.S, FieldSlot.AUTHOR: FieldLabel.S}
    cv = classify_stage2("misc", FieldSlot.ENTRY_TYPE, gt, context)
    assert verdict_from_criteria(cv) is FieldLabel.F


def test_stage2_unrelated_entry_type_is_fabrication():
    gt = GroundTruth("p", (GroundTruthVersion("journal", {"entry_type": "article"}),))
    cv = classify_stage2("book", FieldSlot.ENTRY_TYPE, gt, context={})
    assert verdict_from_criteria(cv) is FieldLabel.F


def test_stage2_no_ground_truth_values_cannot_assess():
    gt = GroundTruth("p", (GroundTruthVersion("journal", {"title": "T"}),))
    cv = classify_stage2("anything", FieldSlot.VENUE, gt)
    assert cv.partial_match == CANNOT_ASSESS


def test_stage2_conservative_default_unmet():
    # one suspect context slot is not enough evidence of substitution
    gt = calibration_ground_truth()
    context = {FieldSlot.TITLE: FieldLabel.S}
    cv = classify_stage2("ICML 2020", FieldSlot.VENUE, gt, context)
    assert cv.different_paper == UNMET
    assert verdict_from_criteria(cv) is FieldLabel.F


def _criteria(value, slot, gt, context=None):
    cv = classify_stage2(value, slot, gt, context, TABLE)
    return cv.partial_match, cv.different_paper, verdict_from_criteria(cv)


def test_stage2_title_token_overlap_is_partial():
    # 4 of the 6 ground-truth title tokens
    title = "Learning to Discover Social Circles"
    assert _criteria(title, FieldSlot.TITLE, isolated_ground_truth()) == (MET, UNMET, FieldLabel.P)


def test_stage2_token_overlap_with_alias_is_substituted():
    # no token in common with the ground truth, most of the alias title
    title = "Clinical implications of intravesical recurrence"
    assert _criteria(title, FieldSlot.TITLE, wholesale_ground_truth()) == (UNMET, MET, FieldLabel.S)


def test_stage2_alias_without_the_slot_is_skipped():
    # the alias carries no author, so only the context can show substitution
    gt = wholesale_ground_truth()
    assert _criteria("Smith, John", FieldSlot.AUTHOR, gt) == (UNMET, UNMET, FieldLabel.F)
    context = {FieldSlot.TITLE: FieldLabel.S, FieldSlot.VENUE: FieldLabel.S}
    assert _criteria("Smith, John", FieldSlot.AUTHOR, gt, context) == (UNMET, MET, FieldLabel.S)


@pytest.mark.parametrize("alias_title", ["", "   "])
def test_stage2_blank_alias_value_is_absent(alias_title):
    # "A" has no tokens; a blank alias value is absent, as a blank ground-truth value is
    gt = GroundTruth(
        "p",
        (GroundTruthVersion("journal", {"title": "Deep Residual Learning"}),),
        known_aliases=({"title": alias_title},),
    )
    assert _criteria("A", FieldSlot.TITLE, gt) == (UNMET, UNMET, FieldLabel.F)


def test_stage2_doi_alias_needs_equal_doi_not_token_overlap():
    # shares the alias's tokens "10", "1111" and "iju", but a DOI is an identifier
    gt = wholesale_ground_truth()
    assert _criteria("10.1111/iju.13055", FieldSlot.DOI, gt) == (UNMET, UNMET, FieldLabel.F)
    assert _criteria("https://doi.org/10.1111/IJU.13054", FieldSlot.DOI, gt) == (UNMET, MET, FieldLabel.S)


def test_stage2_author_without_last_names():
    # the entry side: "et al." alone has no last name to compare
    assert _criteria("et al.", FieldSlot.AUTHOR, isolated_ground_truth()) == (UNMET, UNMET, FieldLabel.F)
    # the ground-truth side: a version without last names is skipped, the
    # other shares one of the two last names
    gt = GroundTruth(
        "p",
        (
            GroundTruthVersion("arxiv", {"author": "et al."}),
            GroundTruthVersion("journal", {"author": "McAuley, Julian and Leskovec, Jure"}),
        ),
    )
    value = "Julian McAuley and Someone Else"
    assert _criteria(value, FieldSlot.AUTHOR, gt) == (MET, UNMET, FieldLabel.P)


def test_stage2_equality_rules_hold_on_direct_calls():
    # verify_entry never sends these to stage 2: stage 1 labels them C
    gt = wholesale_ground_truth()
    assert _criteria(" 34 ", FieldSlot.VOLUME, gt) == (MET, UNMET, FieldLabel.P)
    assert _criteria("10.1200/JCO.2016.34.2_suppl.426", FieldSlot.DOI, gt) == (MET, UNMET, FieldLabel.P)
    # a DOI without a suffix matches only through exact equality
    bare = GroundTruth("p", (GroundTruthVersion("journal", {"doi": "10.1234"}),))
    assert _criteria("doi:10.1234", FieldSlot.DOI, bare) == (MET, UNMET, FieldLabel.P)


@pytest.mark.parametrize(
    "slot,value,version,label",
    [
        # malformed values fail normalization in stage 1 and go to stage 2
        ("year", "2017a", {"year": "2017"}, FieldLabel.P),
        ("year", "17", {"year": "2017"}, FieldLabel.F),
        ("pages", "548", {"pages": "548--556"}, FieldLabel.P),  # a single page
        ("pages", "pp. x", {"pages": "548--556"}, FieldLabel.F),  # no digits
        # no last name and no token in common, with every other slot missing
        ("author", "et al.", {"author": "McAuley, Julian", "title": "T", "year": "2012"}, FieldLabel.S),
        ("pages", "\uff15\uff14\uff10--\uff15\uff15\uff10", {"pages": "540--550"}, FieldLabel.P),  # fullwidth digits
        ("pages", "\u0665\u0664\u0660--\u0665\u0665\u0660", {"pages": "540--550"}, FieldLabel.P),  # Arabic-Indic
    ],
)
def test_malformed_values_are_labelled_in_stage2(slot, value, version, label):
    entry = parse_entry("@inproceedings{k, %s={%s}}" % (slot, value))
    gt = GroundTruth("p", (GroundTruthVersion("proceedings", version),))
    vector = verify_entry(entry, gt, TABLE)
    assert slot_labels(vector)[FieldSlot(slot)] is label
    assert FieldSlot(slot) in stage2_slots(vector)


#: One near miss per README stage-2 rule: (rule, slot, ground truth, context,
#: a value the rule just takes, a value it just misses, the miss's label).
#: A value the rule takes gets P (rules 1-9) or S (rules 10-11).
NEAR_MISSES = [
    # overlap with "deep residual learning image recognition": 3/6 = 0.5, then 3/7
    (
        1, FieldSlot.TITLE, _gt({"title": "Deep Residual Learning for Image Recognition"}), None,
        "Deep Residual Learning of Networks", "Deep Residual Learning of Sparse Networks", FieldLabel.F,
    ),
    # token overlap under 0.5 both times; the last names share 2, then 1, of the shorter list's 3
    (
        2, FieldSlot.AUTHOR, _gt({"author": "Alpha, Ann and Beta, Bob and Gamma, Cy"}), None,
        "Ann Alpha and Bob Beta and Dan Delta and Eve Epsilon", "Ann Alpha and Dan Delta and Eve Epsilon",
        FieldLabel.F,
    ),
    # the ranges share page 556, then miss it by one
    (3, FieldSlot.PAGES, _gt({"pages": "548--556"}), None, "556--560", "557--560", FieldLabel.F),
    (4, FieldSlot.YEAR, _gt({"year": "2014"}), None, "2015", "2016", FieldLabel.F),
    # a DOI without a suffix matches by equality alone: rule 6 needs both suffixes
    (5, FieldSlot.DOI, _gt({"doi": "10.1234"}), None, "doi:10.1234", "10.1234/a", FieldLabel.F),
    # suffix similarity to "adma.202001234": 0.857, then 0.786
    (
        6, FieldSlot.DOI, _gt({"doi": "10.1002/adma.202001234"}), None,
        "10.1002/adma.202001299", "10.1002/adma.202001999", FieldLabel.F,
    ),
    # the stated id, then the next one
    (
        7, FieldSlot.DOI, arxiv_gt(eprint="2101.00123"), None,
        "10.48550/arXiv.2101.00123", "10.48550/arXiv.2101.00124", FieldLabel.F,
    ),
    # equal after trimming, then a leading zero, which nothing strips
    (8, FieldSlot.VOLUME, _gt({"volume": "34"}), None, " 34 ", "034", FieldLabel.F),
    (9, FieldSlot.ENTRY_TYPE, _gt({"entry_type": "article"}), None, "inproceedings", "proceedings", FieldLabel.F),
    # overlap 0 with the ground truth; with the alias's 4 tokens 2/4, then 2/5
    (
        10, FieldSlot.TITLE,
        GroundTruth(
            "p", _gt({"title": "Deep Residual Learning"}).versions,
            known_aliases=({"title": "Clinical implications of intravesical recurrence"},),
        ),
        None, "Clinical implications", "Clinical implications in bladder", FieldLabel.F,
    ),
    # two other identity slots suspect; overlap 0, then one shared token (1/8)
    (
        11, FieldSlot.TITLE, _gt({"title": "Deep Residual Learning for Image Recognition"}),
        {FieldSlot.AUTHOR: FieldLabel.S, FieldSlot.VENUE: FieldLabel.S},
        "Bladder Cancer Outcomes", "Bladder Cancer Image Outcomes", FieldLabel.F,
    ),
]


@pytest.mark.parametrize(
    "rule, slot, gt, context, hit, miss, label", NEAR_MISSES, ids=[f"rule-{case[0]}" for case in NEAR_MISSES]
)
def test_stage2_rule_near_miss(rule, slot, gt, context, hit, miss, label):
    assert _criteria(hit, slot, gt, context)[2] is (FieldLabel.P if rule <= 9 else FieldLabel.S)
    assert _criteria(miss, slot, gt, context)[2] is label


# -- error-mode classification ----------------------------------------------------


def _labels(**overrides) -> dict:
    labels = {slot: FieldLabel.C for slot in FieldSlot}
    labels[FieldSlot.ENTRY_KEY] = FieldLabel.X
    for name, label in overrides.items():
        labels[FieldSlot(name)] = FieldLabel(label)
    return labels


@pytest.mark.parametrize(
    "overrides,mode",
    [
        ({}, "none"),
        ({"pages": "F"}, "isolated"),
        ({"pages": "F", "doi": "M"}, "isolated"),
        ({"title": "S", "venue": "S"}, "isolated"),  # 2 S is not wholesale
        ({"title": "S", "venue": "S", "doi": "S"}, "wholesale"),
        ({"title": "S", "venue": "S", "doi": "S", "volume": "F", "number": "F", "pages": "F"}, "wholesale"),
        ({"title": "M", "venue": "F", "doi": "P"}, "mixed"),
        ({"title": "S", "venue": "S", "doi": "F", "pages": "F"}, "mixed"),
    ],
)
def test_error_mode_partition(overrides, mode):
    assert classify_error_mode(_labels(**overrides).values()) == mode


@given(
    st.dictionaries(
        st.sampled_from([s for s in FieldSlot if s is not FieldSlot.ENTRY_KEY]),
        st.sampled_from(list(FieldLabel)),
        max_size=9,
    )
)
def test_error_mode_total_partition(overrides):
    labels = _labels()
    labels.update(overrides)
    labels[FieldSlot.ENTRY_KEY] = FieldLabel.X
    assert classify_error_mode(labels.values()) in ("none", "isolated", "wholesale", "mixed")


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries({slot: st.sampled_from(list(FieldLabel)) for slot in ALL_SLOTS}),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@example(_labels(title="S", venue="S", doi="S", pages="F"), True, random.Random(0))
def test_error_mode_of_a_vector_equals_the_dict_parent(labels, by_name, rnd):
    """The labels in any order, as members or names, give the mode their dict gave."""
    vector = tuple(map(labels.__getitem__, ALL_SLOTS))
    if by_name:
        labels, vector = _named(labels), tuple(map(str, vector))
    want = parent_classify_error_mode(labels)
    assert classify_error_mode(vector) == want
    shuffled = list(vector)
    rnd.shuffle(shuffled)
    assert classify_error_mode(shuffled) == want


# -- co-error matrix ----------------------------------------------------------


def make_vector(labels: dict) -> tuple[FieldLabel, ...]:
    """The label vector of ``labels``, labels by slot name: C for a slot it omits, X for the citation key."""
    full = {slot: FieldLabel(labels.get(slot.value, "C")) for slot in FieldSlot}
    full[FieldSlot.ENTRY_KEY] = FieldLabel.X
    return tuple(full.values())


def co_error(vectors: list[tuple[FieldLabel, ...]]) -> dict:
    """The "co_error" section the tally gives for ``vectors``."""
    return aggregate_stats(Counter((v, "", "", "") for v in vectors))["co_error"]


def test_co_error_perfect_coupling():
    vectors = [make_vector({"title": "F", "author": "F"}) for _ in range(3)]
    matrix = co_error(vectors)
    assert matrix[FieldSlot.TITLE][FieldSlot.AUTHOR] == 1.0
    assert matrix[FieldSlot.AUTHOR][FieldSlot.TITLE] == 1.0


def test_co_error_zero_denominator_is_undefined():
    vectors = [make_vector({"pages": "F"})]
    matrix = co_error(vectors)
    assert matrix[FieldSlot.PAGES][FieldSlot.PAGES] == 1.0
    assert matrix[FieldSlot.TITLE][FieldSlot.TITLE] is None
    assert matrix[FieldSlot.TITLE][FieldSlot.PAGES] is None


def test_co_error_of_no_entries_is_empty():
    assert co_error([]) == {}


def test_co_error_matches_brute_force_on_50_synthetic_verdicts():
    rng = random.Random(50)
    slot_names = [s.value for s in FieldSlot if s is not FieldSlot.ENTRY_KEY]
    rows = []
    for _ in range(50):
        rows.append({name: rng.choice(["C", "M", "F", "P", "S", "X"]) for name in slot_names})
    vectors = [make_vector(row) for row in rows]
    matrix = co_error(vectors)
    expected = brute_co_error(rows)
    for i in FieldSlot:
        if i is FieldSlot.ENTRY_KEY:
            continue
        for j in FieldSlot:
            if j is FieldSlot.ENTRY_KEY:
                continue
            want = expected[i.value][j.value]
            assert matrix[i][j] == (None if want is None else round(want, 6)), (i, j)


def test_co_error_cells_are_probabilities():
    rng = random.Random(7)
    slot_names = [s.value for s in FieldSlot if s is not FieldSlot.ENTRY_KEY]
    vectors = [
        make_vector({n: rng.choice(["C", "M", "F", "P", "S"]) for n in slot_names})
        for _ in range(20)
    ]
    matrix = co_error(vectors)
    for i, row in matrix.items():
        for value in row.values():
            if value is not None:
                assert 0.0 <= value <= 1.0
        if row[i] is not None:
            assert row[i] == 1.0


# -- aggregates -----------------------------------------------------------------


def test_aggregate_arithmetic():
    # 10 entries, 9 evaluable slots each, 81 C out of 90
    vectors = [make_vector({}) for _ in range(9)]
    vectors.append(
        make_vector({n: "F" for n in ["entry_type", "author", "title", "year", "venue", "volume", "number", "pages", "doi"]})
    )
    report = aggregate_stats(Counter((v, "m", "popular", "ai") for v in vectors))["aggregate"]
    assert report["overall"] == {"evaluable": 90, "correct": 81, "pct_c": 90.0}
    assert report["fully_correct"] == {"count": 9, "pct": 90.0}


def test_aggregate_excludes_x_from_denominator():
    report = aggregate_stats(Counter([(make_vector({"volume": "X", "number": "X"}), "", "", "")]))["aggregate"]
    assert report["overall"]["evaluable"] == 7
    assert report["per_field"]["volume"]["evaluable"] == 0
    assert report["per_field"]["volume"]["pct_c"] is None


def test_aggregate_permutation_invariant():
    rng = random.Random(3)
    slot_names = [s.value for s in FieldSlot if s is not FieldSlot.ENTRY_KEY]
    tagged = [
        (
            make_vector({n: rng.choice(["C", "M", "F", "P", "S", "X"]) for n in slot_names}),
            rng.choice(["m1", "m2"]),
            rng.choice(["popular", "recent"]),
            rng.choice(["ai", "medicine"]),
        )
        for _ in range(25)
    ]
    shuffled = tagged[:]
    rng.shuffle(shuffled)
    assert aggregate_stats(Counter(tagged)) == aggregate_stats(Counter(shuffled))


def test_aggregate_empty_input():
    tally = aggregate_stats(Counter())
    assert tally["aggregate"]["entries"] == 0
    assert tally["aggregate"]["overall"]["pct_c"] is None
    assert tally["error_modes"] == {}


ENTRY_LABELS = st.one_of(
    st.fixed_dictionaries({slot: st.sampled_from(list(FieldLabel)) for slot in EVALUABLE_SLOTS}),
    st.just({slot: FieldLabel.X for slot in EVALUABLE_SLOTS}),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRY_LABELS, max_size=20))
@example([])
@example([{slot: FieldLabel.X for slot in EVALUABLE_SLOTS}])
def test_aggregate_matches_brute_tally(entries):
    # the citation key, which no entry here labels, is X
    vectors = [tuple(labels.get(slot, FieldLabel.X) for slot in ALL_SLOTS) for labels in entries]
    want = brute_tally(
        [(f"p{i}", "t", {s.value: l.value for s, l in labels.items()}) for i, labels in enumerate(entries)]
    )
    tally = aggregate_stats(Counter((v, "", "", "") for v in vectors))
    report = tally["aggregate"]
    assert report["entries"] == want["entries"]
    assert report["overall"] == {k: want[k] for k in ("evaluable", "correct", "pct_c")}
    assert report["fully_correct"]["count"] == want["fully_correct"]
    assert report["label_distribution"] == want["label_distribution"]
    assert report["per_field"] == want["per_field"]
    assert tally["error_modes"] == want["error_modes"]
    assert report["fully_correct"]["count"] == tally["error_modes"].get("none", 0)
    brute = brute_co_error([{s.value: l.value for s, l in labels.items()} for labels in entries])
    rounded = {i: {j: None if v is None else round(v, 6) for j, v in row.items()} for i, row in brute.items()}
    assert tally["co_error"] == (rounded if entries else {})


_TAGS = st.tuples(
    st.sampled_from(["", "m1", "m2"]), st.sampled_from(["", "popular", "recent"]), st.sampled_from(["", "ai", "bio"])
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(ENTRY_LABELS, st.sampled_from(list(FieldLabel)), _TAGS), max_size=12),
    st.integers(0, 12),
    st.randoms(use_true_random=False),
)
@example([], 0, random.Random(0))
@example([({slot: FieldLabel.X for slot in EVALUABLE_SLOTS}, FieldLabel.X, ("m1", "popular", "ai"))], 1, random.Random(0))
@example(
    [
        ({slot: FieldLabel.S for slot in EVALUABLE_SLOTS}, FieldLabel.X, ("m1", "recent", "bio")),
        ({slot: FieldLabel.C for slot in EVALUABLE_SLOTS}, FieldLabel.M, ("m2", "popular", "ai")),
    ],
    2,
    random.Random(1),
)
def test_counted_aggregate_equals_the_parent_over_shuffled_verdicts(entries, repeats, rnd):
    """Counting each distinct label vector once, weighted, gives what walking every entry's labels gave.

    The first ``repeats`` entries appear twice, so vectors repeat; the
    citation key's label is drawn too, as a labels file may state any.
    """
    tagged = [(labels | {FieldSlot.ENTRY_KEY: key}, *tags) for labels, key, tags in entries]
    tagged += tagged[:repeats]
    rnd.shuffle(tagged)
    counts = Counter((tuple(map(labels.__getitem__, ALL_SLOTS)), *tags) for labels, *tags in tagged)
    assert aggregate_stats(counts) == parent_aggregate_stats(tagged)


def test_monotonicity_fixing_one_error_never_lowers_accuracy():
    wrong = make_vector({"pages": "F", "doi": "M"})
    fixed = make_vector({"doi": "M"})
    before = aggregate_stats(Counter([(wrong, "", "", "")]))["aggregate"]
    after = aggregate_stats(Counter([(fixed, "", "", "")]))["aggregate"]
    assert after["overall"]["pct_c"] >= before["overall"]["pct_c"]
    clean = make_vector({})
    assert classify_error_mode(clean) == "none"
    assert aggregate_stats(Counter([(clean, "", "", "")]))["aggregate"]["fully_correct"]["count"] == 1


# -- label totality and file I/O -------------------------------------------------


def test_label_totality():
    for entry, gt in [
        (ISOLATED_ENTRY, isolated_ground_truth()),
        (WHOLESALE_ENTRY, wholesale_ground_truth()),
        (ARXIV_MATCHING_ENTRY, two_version_ground_truth()),
    ]:
        vector = verify_entry(entry, gt, TABLE)
        assert type(vector) is tuple and len(vector) == len(ALL_SLOTS)
        assert all(type(label) is FieldLabel for label in vector)
        assert slot_labels(vector)[FieldSlot.ENTRY_KEY] is FieldLabel.X


def test_labels_file_round_trip(tmp_path):
    triples = [
        ("isolated", "cand1", verify_entry(ISOLATED_ENTRY, isolated_ground_truth(), TABLE)),
        ("wholesale", "cand1", verify_entry(WHOLESALE_ENTRY, wholesale_ground_truth(), TABLE)),
        ("wholesale", "cand2", verify_entry(ARXIV_MATCHING_ENTRY, wholesale_ground_truth(), TABLE)),
    ]
    assert any(stage2_slots(vector) for _, _, vector in triples)
    path = tmp_path / "labels.tsv"
    path.write_text("".join(tsv_lines(_labels_rows(triples))), "utf-8")
    assert read_labels(path) == triples
    # in any row order, each vector holds its labels in slot order
    path.write_text("".join(tsv_lines(reversed(_labels_rows(triples)))), "utf-8")
    assert read_labels(path) == triples[::-1]


def test_labels_file_rejects_unknown_format(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("something else\n", "utf-8")
    with pytest.raises(ValueError):
        read_labels(path)


# -- normalization memo -------------------------------------------------------------


def test_changing_the_venue_table_changes_the_labels():
    # two tables used in turn with no clear_memo() between them: each must see
    # its own labels, never the other's from the memo
    gt = GroundTruth("p", (GroundTruthVersion("proceedings", {"venue": "Alpha Conference"}),))
    entry = parse_entry("@inproceedings{k, booktitle={AC}}")
    empty, mapped = VenueSynonymTable(), VenueSynonymTable({"Alpha Conference": {"AC"}})
    verify.clear_memo()
    for table, label in [(empty, FieldLabel.F), (mapped, FieldLabel.C)] * 2:
        assert slot_labels(verify_entry(entry, gt, table))[FieldSlot.VENUE] is label


def _golden_direct_labels(table):
    out = {}
    for record in load_corpus(FIXTURES / "golden_corpus.jsonl"):
        for tag, _, entry in record.candidates:
            v = verify_entry(entry, record.ground_truth, table)
            labels = {slot.value: label.value for slot, label in slot_labels(v).items()}
            out[(record.paper_id, tag)] = (labels, sorted(s.value for s in stage2_slots(v)), classify_error_mode(v))
    return out


def test_direct_verify_entry_calls_give_the_hand_labels(monkeypatch):
    expected = {
        (e["paper_id"], e["tag"]): (e["labels"], e["stage2_slots"], e["error_mode"])
        for e in load_fixture("golden_labels.json")["entries"]
    }
    verify.clear_memo()
    assert _golden_direct_labels(TABLE) == expected  # empty memo
    assert verify._normalized.cache_info().currsize > 0
    assert _golden_direct_labels(TABLE) == expected  # memo filled by the first pass
    monkeypatch.setattr(verify, "_normalized", verify._normalized.__wrapped__)
    assert _golden_direct_labels(TABLE) == expected  # no memo


# -- a slot or a label as its name --------------------------------------------------


def test_a_slot_name_does_not_poison_the_memo_for_its_member():
    verify.clear_memo()  # neither call may find the value already normalized
    assert verify._normalized("title", "The Title!", None) == "the title!"
    assert verify._normalized(FieldSlot.TITLE, "The Title!", None) == "the title!"


def _named(labels: dict) -> dict:
    """``labels`` keyed by slot name, with each label (or ``PENDING``) as its name."""
    return {slot.value: str(label) for slot, label in labels.items()}


@settings(max_examples=300, deadline=None)
@given(
    ENTRIES,
    GROUND_TRUTHS,
    st.sampled_from([None, TABLE]),
    st.lists(ENTRY_LABELS, max_size=4),
    st.integers(0, (1 << 16) - 1),
)
@example(  # slots whose stage-1 and stage-2 rules an identity test gets wrong for a name
    _entry("article", title="The Title!", journal="J", pages="1--10", year="2020"),
    _gt({"title": "the title!", "venue": "J", "pages": "5--12", "year": "2021"}),
    None,
    [{slot: FieldLabel.S for slot in EVALUABLE_SLOTS}],
    0,
)
def test_a_name_gets_the_result_of_its_member(entry, gt, table, label_sets, order):
    """Every public function that takes a slot or a label gives its name the member's result.

    ``order`` picks, call by call, whether the name or the member goes first,
    and the memo is never cleared: a call with one may not change a later
    call with the other.
    """
    turns = itertools.count()

    def alike(call, member_args, name_args):
        if order >> next(turns) % 16 & 1:
            by_name, by_member = call(*name_args), call(*member_args)
        else:
            by_member, by_name = call(*member_args), call(*name_args)
        assert by_name == by_member, (call.__name__, member_args)
        return by_member

    stage1 = {}
    for slot in FieldSlot:
        alike(slot_of, (entry, slot), (entry, slot.value))
        alike(gt.values_for, (slot,), (slot.value,))
        stage1[slot] = alike(classify_stage1, (entry, slot, gt, table), (entry, slot.value, gt, table))
    for slot in FieldSlot:
        value = slot_of(entry, slot) or ""
        alike(classify_stage2, (value, slot, gt, stage1, table), (value, slot.value, gt, _named(stage1), table))

    # the citation key, which no label set labels, is X
    vectors = [verify_entry(entry, gt, table)]
    vectors += [tuple(labels.get(slot, FieldLabel.X) for slot in ALL_SLOTS) for labels in label_sets]
    for vector in vectors:
        alike(classify_error_mode, (vector,), (tuple(map(str, vector)),))
    alike(
        aggregate_stats,
        (Counter((v, "", "", "") for v in vectors),),
        (Counter((tuple(map(str, v)), "", "", "") for v in vectors),),
    )
