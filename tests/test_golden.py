"""Golden bytes: the CLI's reports and written files on fixed small inputs.

Every report and artifact below is pinned by its sha256, so a refactor
of the kernel's internals must leave each of them byte-identical.
`gen-rich` writes the v2 tiers ordering; `check` and `derive` are pinned
on the v1 pair list of the same relation (the bytes `ordering_to_json`
writes) and again on the v2 file, where only `inputs_digest` may differ.
The `--text` reports of the same runs are pinned too, and so is the
stderr of every run that writes any: `derive -K 2` is refused in text
mode with an empty stdout and one error line.  So is the stdout of the
two demos that print exact verdicts and rationals.
The properties at the end pin the two facts the byte identity rests on:
the subset-sum helper equals the per-mask sum, and canonical position
order is (measurement id, event bitmask) order.
"""
import hashlib
import json
import runpy
from fractions import Fraction
from pathlib import Path

from hypothesis import given, strategies as st

from born_kernel import EventRef, MeasurementFamily, WeightedMeasurement, induced_ordering
from born_kernel.cli import main
from born_kernel.formats import canonical_dumps, family_from_json, ordering_to_json
from born_kernel.ordering import _scale, subset_sums

# A d=3 bet: eigenvalues 0, 1, 2 on (|0>+|1>)/sqrt2, (|0>-|1>)/sqrt2, |2>;
# state 0.6|0> + 0.8|2>, event {0, 2}, weight 0.18 + 0.64 = 0.82.
QUADRUPLE = {
    "schema": "v1",
    "dim": 3,
    "state": {"dim": 3, "components": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]]},
    "observable": {
        "dim": 3,
        "spectral_pairs": [
            {"eigenvalue": 0.0, "projector": [
                [[0.5, 0.0], [0.5, 0.0], [0.0, 0.0]],
                [[0.5, 0.0], [0.5, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]},
            {"eigenvalue": 1.0, "projector": [
                [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]],
                [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]},
            {"eigenvalue": 2.0, "projector": [
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]},
        ],
    },
    "event": [0.0, 2.0],
}

ROOT = Path(__file__).resolve().parents[1]
# The demos that print exact rationals and verdicts only; the ones that
# print floats from numpy's linear algebra are left unpinned.
EXACT_DEMOS = ("demos/erasure_games.py", "demos/branching_refinement.py")

GOLDEN = {
    "gen-rich:stdout":
        "da8197acc61a2609a990b4cad9daef51d332bcb7679a2862a9abd0a36f1e7937",
    "gen-rich:fam.json":
        "e21e4bf3ebbde8dc553a8814d5b2df72570908f0ae10f1ef8bb4e8e151d0d984",
    "gen-rich:fam.ordering.json":
        "eb5f93c4bb40b9750ada6ca263ca85eb9809c33479367c0dae1008935005b4aa",
    "v1:pairs.ordering.json":
        "6d1e2367f99ad89572f2f581ffa7ad89dee020c5ace216976b57156ae8aef4ad",
    "check:stdout":
        "b70b3414f6a9ae681b09e89ea86f69a25ef5e6b525e78a06fac4655565c206d0",
    "check-cut:stdout":
        "7e5bd5a0759804a473dee05a6b8a6ef8abcc97225667b8fea3be7533947b3166",
    "derive:stdout":
        "32c46ee1c0bf40c8f68ef22436052da130221c0045d737cd42375fcb48301e0d",
    "derive:assignment.json":
        "e46f89468bce3cd35d0049cbfe7c56d24f0996a865b5da6b7919165e4cca7153",
    "check-v2:stdout":
        "32171e7f1e6baebd6ffc5b6564cbc7f75c0253851b2d32457140b5ffc7855b13",
    "derive-v2:stdout":
        "72207a5e45137cc95cb3e6b7a4bf126c35807eb0b673f77d9084875a3e16e81b",
    "canon:stdout":
        "05c8beabea70cfa43a09b5fd981c492b8df10f932ac2aeaf26ad65470abf557f",
    "canon-whole:stdout":
        "da3b50732ab94717b68fddd3433fcdd96438becf7d3f33f119c60b94e9061d61",
    "demo-erasure-1/2:stdout":
        "67a3338fb0ad7f298f3c6e79b7b01ab32ba87a145216e65c2b3d465f449197ca",
    "demo-erasure-1/3:stdout":
        "00612226ca2561d5f160993a634d1b81219e10a20735509ccca72ad14239dbc6",
    "gen-rich-text:stdout":
        "b87ea4cba5534e0cfd88325a085c0048cb771521d6f20765450b0e67bcb2eca7",
    "check-text:stdout":
        "dcb301bc9682de414f29fcd694de65f87c1f28957818ca8ad3cf524b497def3b",
    "check-cut-text:stdout":
        "5c0c7ff27a0e186b8428a8cd741fe0d1f666790f031e2ec11a018875d8dca8f4",
    "derive-text:stdout":
        "370d739f5ec7d66d6a006654a27b51ccb78d64c30f222ee6360a51aa4b2d3b4e",
    "derive-K2-text:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "derive-K2-text:stderr":
        "8221b0d3565c5485bd17e793e2a4ae5487b7c2f4315b584e005e3c924bfb8be7",
    "canon-text:stdout":
        "d0a53b5fdbd038745828bc572d0d22b47ea85c2d22f0b79c42cacc86f351e978",
    "demo-erasure-1/2-text:stdout":
        "1e4d37cbc9862ce7755191f490f1253ea5685ddcea737886daf991563112a656",
    "demos/erasure_games.py:stdout":
        "a991f0078f75fddf172177788127f2334736f33cdd9becfa28103a4e0fcabc5a",
    "demos/branching_refinement.py:stdout":
        "425358f0578a9b618487b63c8799a1fa5df46865a540a94c2148988142de50b2",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(tmp_path, monkeypatch, capsysbinary) -> dict:
    """Run the pinned commands in tmp_path; sha256 of every output by name."""
    monkeypatch.chdir(tmp_path)
    out, reports = {}, {}

    def run(name, expected_rc, *argv):
        rc = main(list(argv))
        assert rc == expected_rc, name
        reports[name], err = capsysbinary.readouterr()
        out[f"{name}:stdout"] = _sha(reports[name])
        if err:
            assert len(err.splitlines()) == 1, name
            out[f"{name}:stderr"] = _sha(err)

    def file(name, path):
        out[f"{name}:{path}"] = _sha((tmp_path / path).read_bytes())

    run("gen-rich", 0, "gen-rich", "-K", "3", "--max-outcomes", "3", "--out", "fam.json")
    file("gen-rich", "fam.json")
    file("gen-rich", "fam.ordering.json")
    family = family_from_json(json.loads((tmp_path / "fam.json").read_text()))
    v1 = canonical_dumps(ordering_to_json(induced_ordering(family)))
    (tmp_path / "pairs.ordering.json").write_text(v1, encoding="utf-8")
    file("v1", "pairs.ordering.json")
    pair_args = ("--family", "fam.json", "--ordering", "pairs.ordering.json")
    run("check", 0, "check", *pair_args)

    # Clear one pair: the empty event of k1-1-1 against itself.
    doc = json.loads(v1)
    empty = {"measurement": "k1-1-1", "event": []}
    assert doc["pairs"][0] == [empty, empty]
    del doc["pairs"][0]
    (tmp_path / "cut.ordering.json").write_text(json.dumps(doc))
    run("check-cut", 1, "check", "--family", "fam.json", "--ordering", "cut.ordering.json")

    run("derive", 0, "derive", *pair_args, "-K", "3", "--out", "assignment.json")
    file("derive", "assignment.json")

    tiers_args = ("--family", "fam.json", "--ordering", "fam.ordering.json")
    run("check-v2", 0, "check", *tiers_args)
    run("derive-v2", 0, "derive", *tiers_args, "-K", "3", "--out", "assignment.json")
    file("derive-v2", "assignment.json")
    assert out.pop("derive-v2:assignment.json") == out["derive:assignment.json"]
    for name in ("check", "derive"):
        v1_report, v2_report = (json.loads(reports[n]) for n in (name, f"{name}-v2"))
        assert v1_report.pop("inputs_digest") != v2_report.pop("inputs_digest")
        assert v1_report == v2_report

    (tmp_path / "quad.json").write_text(json.dumps(QUADRUPLE))
    run("canon", 0, "canon", "--quad", "quad.json")
    # A bet on the whole spectrum: d is 0, not the rounding noise of 1 - c^2.
    whole = dict(QUADRUPLE, event=[0.0, 1.0, 2.0], state={
        "dim": 3, "components": [[0.6, 0.0], [0.64, 0.0], [0.48, 0.0]]})
    (tmp_path / "whole.json").write_text(json.dumps(whole))
    run("canon-whole", 0, "canon", "--quad", "whole.json")
    run("demo-erasure-1/2", 0, "demo-erasure", "--p-num", "1", "--p-den", "2")
    run("demo-erasure-1/3", 0, "demo-erasure", "--p-num", "1", "--p-den", "3")

    run("gen-rich-text", 0, "gen-rich", "-K", "3", "--max-outcomes", "3", "--out", "fam.json",
        "--text")
    run("check-text", 0, "check", *pair_args, "--text")
    run("check-cut-text", 1, "check", "--family", "fam.json", "--ordering", "cut.ordering.json",
        "--text")
    run("derive-text", 0, "derive", *pair_args, "-K", "3", "--out", "assignment.json", "--text")
    run("derive-K2-text", 1, "derive", *pair_args, "-K", "2", "--out", "refused.json", "--text")
    assert out["derive-K2-text:stdout"] == _sha(b"")
    run("canon-text", 0, "canon", "--quad", "quad.json", "--text")
    run("demo-erasure-1/2-text", 0, "demo-erasure", "--p-num", "1", "--p-den", "2", "--text")

    for demo in EXACT_DEMOS:
        runpy.run_path(str(ROOT / demo), run_name="__main__")
        stdout, err = capsysbinary.readouterr()
        assert not err, demo
        out[f"{demo}:stdout"] = _sha(stdout)
    return out


def test_cli_outputs_are_byte_identical(tmp_path, monkeypatch, capsysbinary):
    assert golden_digests(tmp_path, monkeypatch, capsysbinary) == GOLDEN


# -- canonical positions ------------------------------------------------

measurement_specs = st.lists(
    st.tuples(st.text(alphabet="ab-1", min_size=1, max_size=3), st.integers(1, 4)),
    min_size=1,
    max_size=4,
    unique_by=lambda spec: spec[0],
)


def _family(specs) -> MeasurementFamily:
    return MeasurementFamily(
        tuple(
            WeightedMeasurement(
                mid, tuple(f"o{i}" for i in range(n)), (Fraction(1, n),) * n
            )
            for mid, n in specs
        )
    )


def _brute_sums(values, zero):
    return [
        sum((v for i, v in enumerate(values) if mask >> i & 1), zero)
        for mask in range(2 ** len(values))
    ]


@given(st.lists(st.integers(-(10**30), 10**30), max_size=8))
def test_subset_sums_match_per_mask_sums(values):
    assert subset_sums(values) == _brute_sums(values, 0)


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=10**9), max_size=6))
def test_rational_subset_sums_match_per_mask_sums(values):
    nums, den = _scale(values)
    sums = [Fraction(n, den) for n in subset_sums(nums)]
    assert sums == _brute_sums(values, Fraction(0))
    assert all(isinstance(s, Fraction) for s in sums)


@given(measurement_specs)
def test_position_order_is_ref_sort_key_order(specs):
    family = _family(specs)
    refs = family.refs
    keys = [(r.measurement_id, family.by_id[r.measurement_id].event_mask(r.event))
            for r in refs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for mid, sl in family.slices.items():
        m = family.by_id[mid]
        assert sl.stop - sl.start == 2 ** len(m.outcomes)
        for mask in range(sl.stop - sl.start):
            assert refs[sl.start + mask] == EventRef(mid, m.mask_event(mask))
