"""Golden segmentation table for the bundled fixture vocabularies.

Each row pins the exact piece sequence produced by the base-style
tokenizer and by the merged (base + domain) tokenizer for one medical
phrase. The expected sequences are frozen here on purpose; regenerating
them from the code under test would make the test vacuous. Punctuation
pieces are left out of the comparison on both sides.
"""

import pytest

from support import fixture_tokenizer

GOLDEN_ROWS = [
    ("ibuprofen",
     ["ib", "##up", "##ro", "##fen"],
     ["ibuprofen"]),
    ("gastroesophageal reflux",
     ["gas", "##tro", "##es", "##op", "##ha", "##ge", "##al", "ref", "##lux"],
     ["gastroesophageal", "reflux"]),
    ("electrocardiogram",
     ["electro", "##card", "##io", "##gram"],
     ["electrocardiogram"]),
    ("endoscopy",
     ["end", "##os", "##co", "##py"],
     ["endoscopy"]),
    ("acetaminophen",
     ["ace", "##tam", "##ino", "##ph", "##en"],
     ["acet", "##aminophen"]),
    ("prednisone",
     ["pre", "##d", "##nis", "##one"],
     ["prednisone"]),
    ("chronic obstructive pulmonary disease",
     ["chronic", "ob", "##st", "##ru", "##ctive", "pulmonary", "disease"],
     ["chronic", "obstructive", "pulmonary", "disease"]),
    ("cirrhosis",
     ["ci", "##rr", "##hosis"],
     ["cirrhosis"]),
    ("angioplasty",
     ["ang", "##io", "##pl", "##ast", "##y"],
     ["angioplasty"]),
    ("colonoscopy",
     ["colon", "##os", "##co", "##py"],
     ["colonoscopy"]),
    ("amoxicillin",
     ["am", "##ox", "##ici", "##llin"],
     ["amoxicillin"]),
    ("myocardial infarction necessitates immediate thrombolytic therapy",
     ["my", "##oca", "##rdial", "in", "##far", "##ction", "nec", "##ess",
      "##itate", "##s", "immediate", "th", "##rom", "##bol", "##ytic",
      "therapy"],
     ["myocardial", "infarction", "nec", "##ess", "##itates", "immediate",
      "thrombolytic", "therapy"]),
    ("aceclofenac tablet has lorazepam",
     ["ace", "##cl", "##of", "##ena", "##c", "tablet", "has", "lo", "##raz",
      "##ep", "##am"],
     ["acecl", "##ofenac", "tablet", "has", "lorazepam"]),
    ("laparoscopic cholecystectomy minimizes postoperative pain",
     ["lap", "##aro", "##scopic", "cho", "##le", "##cy", "##ste", "##ct",
      "##omy", "minimize", "##s", "post", "##oper", "##ative", "pain"],
     ["laparoscopic", "cholecystectomy", "minimize", "##s", "postoperative",
      "pain"]),
    ("antipyretic medications has Isoniazid to alleviate pyrexia",
     ["anti", "##py", "##ret", "##ic", "medications", "has", "iso", "##nia",
      "##zi", "##d", "to", "alleviate", "p", "##yre", "##xia"],
     ["antipyretic", "medications", "has", "isoniazid", "to", "alleviate",
      "pyrexia"]),
    ("hyperglycemia predisposes neuropathy, retinopathy, and nephropathy",
     ["hyper", "##gly", "##ce", "##mia", "pre", "##dis", "##pose", "##s",
      "ne", "##uro", "##pathy", "re", "##tino", "##pathy", "and", "ne",
      "##ph", "##rop", "##athy"],
     ["hyperglycemia", "predis", "##pose", "##s", "neuropathy", "retinopathy",
      "and", "nephropathy"]),
]


def alnum_tokens(model, text):
    return [t for t in model.tokens(text) if any(ch.isalnum() for ch in t)]


@pytest.fixture(scope="module")
def base():
    return fixture_tokenizer("base")


@pytest.fixture(scope="module")
def merged():
    return fixture_tokenizer("merged")


@pytest.mark.parametrize(
    "text,expected", [(t, b) for t, b, _ in GOLDEN_ROWS],
    ids=[t[:24] for t, _, _ in GOLDEN_ROWS])
def test_base_segmentation(base, text, expected):
    assert alnum_tokens(base, text) == expected


@pytest.mark.parametrize(
    "text,expected", [(t, m) for t, _, m in GOLDEN_ROWS],
    ids=[t[:24] for t, _, _ in GOLDEN_ROWS])
def test_merged_segmentation(merged, text, expected):
    assert alnum_tokens(merged, text) == expected


def test_merged_is_strict_reduction_overall(base, merged):
    total_base = sum(len(b) for _, b, _ in GOLDEN_ROWS)
    total_merged = sum(len(m) for _, _, m in GOLDEN_ROWS)
    assert total_merged < total_base
    got_base = sum(len(alnum_tokens(base, t)) for t, _, _ in GOLDEN_ROWS)
    got_merged = sum(len(alnum_tokens(merged, t)) for t, _, _ in GOLDEN_ROWS)
    assert (got_base, got_merged) == (total_base, total_merged)


def test_no_unk_in_golden_rows(base, merged):
    for text, _, _ in GOLDEN_ROWS:
        assert "[UNK]" not in base.tokens(text)
        assert "[UNK]" not in merged.tokens(text)
