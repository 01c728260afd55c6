"""The typed reader: every mistyped field exits 2, and nothing escapes a reader.

Each regression below names a document edit that the field-by-field
readers read as something else (a boolean or string as a number, `null`
or a number as an id) or died on with a traceback.  The fuzz test then
replaces every leaf and subtree of a valid document of each type and
requires the documented outcome: exit 0, 1 or 2, no exception, and
stdout empty or one canonical report.
"""
import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from born_kernel import (
    MeasurementFamily,
    WeightedMeasurement,
    generate_rich_family,
    induced_ordering,
    make_rich_measurement,
)
from born_kernel.cli import main
from born_kernel.formats import (
    FormatError,
    assignment_from_json,
    assignment_to_json,
    canonical_dumps,
    family_from_json,
    family_to_json,
    model_from_json,
    model_to_json,
    ordering_from_json,
    ordering_to_json,
    policy_from_json,
    quadruple_from_json,
    rational_from_json,
    rational_to_json,
    tiers_to_json,
)
from conftest import own_weights
from test_golden import QUADRUPLE


def run_main(*argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# A family whose id and labels look like what str() makes of null and 1:
# the field-by-field reader turned {"id": null} into this very family.
NONE_FAMILY = MeasurementFamily(
    (WeightedMeasurement("None", ("1", "b"), (Fraction(1, 2), Fraction(1, 2))),)
)


def _none_ordering():
    doc = ordering_to_json(induced_ordering(NONE_FAMILY))
    del doc["family_digest"]
    return doc


def _pair_label_number(doc):
    for pair in doc["pairs"]:
        for ref in pair:
            ref["event"] = [1 if o == "1" else o for o in ref["event"]]


PAIR_EDITS = {
    "measurement-id-null": ("family", lambda d: d["measurements"][0].update(id=None)),
    "outcome-number": ("family", lambda d: d["measurements"][0]["outcomes"].__setitem__(0, 1)),
    "pair-label-number": ("ordering", _pair_label_number),
}


@pytest.mark.parametrize("command", ["check", "derive"])
@pytest.mark.parametrize("edit", sorted(PAIR_EDITS))
def test_check_and_derive_mistyped_family_or_ordering_exit_2(tmp_path, command, edit):
    docs = {"family": family_to_json(NONE_FAMILY), "ordering": _none_ordering()}
    args = [command, "--family", write(tmp_path / "f.json", docs["family"]),
            "--ordering", write(tmp_path / "o.json", docs["ordering"])]
    if command == "derive":
        args += ["-K", "2", "--out", str(tmp_path / "a.json")]
    assert run_main(*args)[0] == 0
    which, change = PAIR_EDITS[edit]
    change(docs[which])
    write(tmp_path / ("f.json" if which == "family" else "o.json"), docs[which])
    rc, out, err = run_main(*args)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


QUAD_EDITS = {
    "components-null": lambda d: d["state"].update(components=None),
    "components-number": lambda d: d["state"].update(components=5),
    "eigenvalue-true": lambda d: d["observable"]["spectral_pairs"][1].update(eigenvalue=True),
    "projector-entry-string": lambda d: d["observable"]["spectral_pairs"][0]["projector"][0][0]
    .__setitem__(0, "0.5"),
    "event-true": lambda d: d.update(event=[True]),
    "observable-dim-string": lambda d: d["observable"].update(dim="x"),
    "observable-dim-mismatch": lambda d: d["observable"].update(dim=4),
    "quadruple-dim-string": lambda d: d.update(dim="x"),
    "quadruple-dim-mismatch": lambda d: d.update(dim=2),
}


@pytest.mark.parametrize("edit", sorted(QUAD_EDITS) + ["policy-true", "policy-string"])
def test_canon_mistyped_field_exit_2(tmp_path, edit):
    doc = copy.deepcopy(QUADRUPLE)
    args = ["canon", "--quad", str(tmp_path / "q.json")]
    if edit in QUAD_EDITS:
        QUAD_EDITS[edit](doc)
    else:
        policy = {"norm_tol": True} if edit == "policy-true" else {"norm_tol": "0.5"}
        args += ["--numeric-policy", write(tmp_path / "p.json", policy)]
    write(tmp_path / "q.json", doc)
    rc, out, err = run_main(*args)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


def test_model_convention_list_is_a_format_error():
    doc = model_to_json(make_rich_measurement([Fraction(1, 2), Fraction(1, 2)]))
    doc["convention"] = ["o1"]
    with pytest.raises(FormatError, match="convention"):
        model_from_json(doc)


@pytest.mark.parametrize("num, den, field", [
    ("0_1", "٢", "num"),  # int() reads these as 1 and 2
    ("1", "٢", "den"),
    (" 3", "4", "num"),
    ("3", "4\n", "den"),
    ("1_000", "1", "num"),
    ("+3", "4", "num"),
    ("３", "4", "num"),
    ("", "4", "num"),
    ("-", "4", "num"),
])
def test_rational_strings_are_ascii_decimals(num, den, field):
    """A rational's num and den strings are what `rational_to_json`
    writes: ASCII digits, optionally after one "-"."""
    with pytest.raises(FormatError, match=f"weights\\[0\\]: field '{field}' must be a decimal"):
        rational_from_json({"num": num, "den": den}, "weights[0]")
    doc = family_to_json(generate_rich_family(2, 2))
    doc["measurements"][0]["weights"][0] = {"num": num, "den": den}
    with pytest.raises(FormatError, match=f"field '{field}'"):
        family_from_json(doc)


def test_rational_decimals_and_integers_still_read():
    assert rational_from_json({"num": "-12", "den": "0034"}) == Fraction(-6, 17)
    assert rational_from_json({"num": 3, "den": 4}) == Fraction(3, 4)
    big = Fraction(10**40 + 1, 3 * 10**39)
    assert rational_from_json(rational_to_json(big)) == big


@pytest.mark.parametrize(
    "edit", [lambda m: m.update(id=None), lambda m: m["outcomes"].__setitem__(0, 1)],
    ids=["id-null", "outcome-number"],
)
def test_family_ids_and_labels_must_be_strings(edit):
    doc = family_to_json(NONE_FAMILY)
    edit(doc["measurements"][0])
    with pytest.raises(FormatError):
        family_from_json(doc)


# -- the v2 tiers reader -------------------------------------------------

TIERS_FAMILY = generate_rich_family(2, 2)  # tiers: 2 empty events, 2 halves, 2 certain


def _flatten(d):
    d["tiers"] = [ref for tier in d["tiers"] for ref in tier]


TIERS_EDITS = {
    "event-in-two-tiers": (lambda d: d["tiers"][1].append(dict(d["tiers"][0][0])),
                           r"event \{\}\|k1-1 is listed twice"),
    "missing-event": (lambda d: d["tiers"][0].pop(),
                      r"1 of 6 events are not listed, the first \{\}\|k2"),
    "empty-tier": (lambda d: d["tiers"].insert(1, []), r"tiers\[1\]: a tier is never empty"),
    "unknown-measurement": (lambda d: d["tiers"][0][0].update(measurement="nope"),
                            "unknown measurement 'nope'"),
    "unknown-outcome": (lambda d: d["tiers"][2][0].update(event=["nope"]),
                        "unknown outcome 'nope'"),
    "tiers-not-list-of-lists": (_flatten, "each item a list"),
    "wrong-family-digest": (lambda d: d.update(family_digest="0" * 64),
                            "family_digest does not match"),
}


@pytest.mark.parametrize("edit", sorted(TIERS_EDITS))
def test_bad_tiers_document_is_a_format_error_and_exit_2(tmp_path, edit):
    doc = tiers_to_json(induced_ordering(TIERS_FAMILY))
    change, message = TIERS_EDITS[edit]
    change(doc)
    with pytest.raises(FormatError, match=message):
        ordering_from_json(doc, TIERS_FAMILY)
    family = write(tmp_path / "f.json", family_to_json(TIERS_FAMILY))
    rc, out, err = run_main("check", "--family", family,
                            "--ordering", write(tmp_path / "o.json", doc))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# -- fuzz ---------------------------------------------------------------

REPLACEMENTS = [None, [], {}, "x", "0.5", True, 1e308, -1, 2**70, 2.7, float("nan")]

FAMILY = generate_rich_family(2, 2)
FAMILY_DOC = family_to_json(FAMILY)
ORDERING_DOC = ordering_to_json(induced_ordering(FAMILY))
TIERS_DOC = tiers_to_json(induced_ordering(FAMILY))
ASSIGNMENT_DOC = assignment_to_json(own_weights(FAMILY))
MODEL_DOC = model_to_json(make_rich_measurement([Fraction(1, 4), Fraction(3, 4)]))
POLICY_DOC = {"norm_tol": 1e-12, "projector_tol": 1e-10, "eigenvalue_tol": 1e-9,
              "rational_tol": 1e-9}

READERS = {
    "family": (FAMILY_DOC, family_from_json),
    "ordering": (ORDERING_DOC, lambda d: ordering_from_json(d, FAMILY)),
    "tiers": (TIERS_DOC, lambda d: ordering_from_json(d, FAMILY)),
    "assignment": (ASSIGNMENT_DOC, lambda d: assignment_from_json(d, FAMILY)),
    "model": (MODEL_DOC, model_from_json),
    "quadruple": (QUADRUPLE, quadruple_from_json),
    "policy": (POLICY_DOC, policy_from_json),
}


def subtree_paths(doc, prefix=()):
    """The path of every subtree of doc, the whole document first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from subtree_paths(value, prefix + (key,))


PATHS = {name: list(subtree_paths(doc)) for name, (doc, _) in READERS.items()}


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def mutants(draw, names=tuple(READERS)):
    name = draw(st.sampled_from(sorted(names)))
    path = draw(st.sampled_from(PATHS[name]))
    return name, replaced(READERS[name][0], path, draw(st.sampled_from(REPLACEMENTS)))


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(mutants())
def test_library_readers_return_or_raise_format_error(mutant):
    name, doc = mutant
    try:
        READERS[name][1](doc)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(mutant=mutants(("family", "ordering", "tiers", "quadruple", "policy")))
def test_cli_exit_code_contract_under_mutation(fuzz_dir, mutant):
    name, doc = mutant
    docs = {"family": FAMILY_DOC, "ordering": ORDERING_DOC, "tiers": TIERS_DOC,
            "quadruple": QUADRUPLE, "policy": POLICY_DOC, name: doc}
    paths = {k: write(fuzz_dir / f"{k}.json", v) for k, v in docs.items()}
    if name in ("family", "ordering", "tiers"):
        which = "tiers" if name == "tiers" else "ordering"
        argv = ["check", "--family", paths["family"], "--ordering", paths[which]]
    else:
        argv = ["canon", "--quad", paths["quadruple"], "--numeric-policy", paths["policy"]]
    rc, out, _ = run_main(*argv)
    assert rc in (0, 1, 2)
    assert out == "" or canonical_dumps(json.loads(out)) == out
