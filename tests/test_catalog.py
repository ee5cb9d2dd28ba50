"""Worked-example catalog: builders, claim evaluation, parameter handling."""

import hashlib
import json

import pytest

from coble.catalog import (
    CHECKS,
    catalog_names,
    catalog_summary,
    run_check,
    verify_example,
)
from coble.constructions import BUILDERS, MAX_BLOWUPS, scroll_fiber_tower
from coble.lattice import DivisorClass, LatticeMismatch, P2, make_lattice


def _first_sequence(bundle):
    """The BlowUpSequence of the bundle's first claim on one."""
    return next(c["args"]["sequence"] for c in bundle.claims if "sequence" in c["args"])


def test_every_entry_verifies():
    names = catalog_names()
    assert len(names) == 7
    for name in names:
        report = verify_example(name)
        assert report.ok, [r.to_json() for r in report.results if not r.passed]
        assert report.results, name


def test_unknown_entry():
    with pytest.raises(KeyError, match="no catalog entry"):
        verify_example("pencil-of-unicorns")


def test_static_entries_take_no_parameters():
    with pytest.raises(ValueError, match="takes no parameters"):
        verify_example("triangle-pencil", {"n": 3})


def test_unknown_parameter_is_refused():
    with pytest.raises(ValueError, match=r"named x \(accepted: n, t, b\)"):
        verify_example("scroll-fiber-tower", {"x": 3})
    with pytest.raises(ValueError, match=r"named k \(accepted: m\)"):
        verify_example("sections-to-minus-four", {"m": 2, "k": 1})


def test_blowup_budget_refuses_before_building():
    n, t = 3, 0
    b = MAX_BLOWUPS - n - t - 3
    seq = _first_sequence(scroll_fiber_tower(n, t, b))
    assert len(seq.centers) == MAX_BLOWUPS
    with pytest.raises(ValueError, match=f"{MAX_BLOWUPS + 1} blow-ups is over the budget of {MAX_BLOWUPS}"):
        scroll_fiber_tower(n, t, b + 1)
    with pytest.raises(ValueError, match="over the budget"):
        verify_example("scroll-fiber-tower", {"b": 1_000_000})


def test_parametric_sweeps():
    # default parameters
    assert verify_example("scroll-fiber-tower").parameters == {"n": 3, "t": 0, "b": 4}
    # overrides merge into the defaults and feed the affine expectations
    for n, t, b in [(3, 1, 6), (4, 0, 9), (5, 2, 12)]:
        report = verify_example("scroll-fiber-tower", {"n": n, "t": t, "b": b})
        assert report.ok, (n, t, b)
        by_check = {r.check: r for r in report.results}
        assert by_check["k-squared"].expected == 5 - (n + t + b)
        assert by_check["k-squared"].actual == 5 - (n + t + b)
    for m in range(1, 7):
        report = verify_example("sections-to-minus-four", {"m": m})
        assert report.ok, m
        chain = next(r for r in report.results if r.check == "blow-down-chain")
        assert chain.actual["track_square"] == m


def test_report_shape():
    report = verify_example("triangle-pencil")
    data = report.to_json()
    assert data["name"] == "triangle-pencil" and data["ok"] is True
    assert all(
        set(c) == {"description", "check", "expected", "actual", "passed"}
        for c in data["claims"]
    )
    summary = catalog_summary()
    assert [s["name"] for s in summary] == catalog_names()
    assert all(s["claims"] > 0 for s in summary)
    parametric = {s["name"] for s in summary if s["parametric"]}
    assert parametric == {"scroll-fiber-tower", "sections-to-minus-four"}


def test_run_check_directly():
    sequence = _first_sequence(BUILDERS["triangle-pencil"]())
    k = sequence.lattice.canonical
    assert run_check("pairing", {"a": k, "b": k}) == 0
    assert run_check("k-squared", {"sequence": sequence}) == 0
    assert run_check("class-identity", {"lhs": 2 * k, "rhs": k + k}) is True
    assert run_check("class-identity", {"lhs": k, "rhs": -k}) is False
    with pytest.raises(LatticeMismatch):
        run_check("class-identity", {"lhs": k, "rhs": make_lattice(P2(), 9).canonical})
    assert run_check("reduce", {"vector": "(4;2,2,2)"}) == "conic"
    with pytest.raises(KeyError, match="unknown check"):
        run_check("prove-riemann-hypothesis", {})


# checks whose claims state facts about divisor classes
CLASS_CHECKS = {
    "class-identity", "combination-square", "combination-genus", "all-squares",
    "pairing", "blow-down-chain", "disjoint-minus-ones", "section-pattern",
}


def test_class_claims_hold_classes():
    # every argument of a class claim is a class or a list of classes, apart
    # from the sequence and the count of further blow-ups of blow-down-chain
    for build in BUILDERS.values():
        for claim in build().claims:
            if claim["check"] not in CLASS_CHECKS:
                continue
            for key, value in claim["args"].items():
                if key in ("sequence", "extra_blowups"):
                    continue
                values = value if isinstance(value, list) else [value]
                assert values and all(isinstance(v, DivisorClass) for v in values), claim


def test_every_check_is_used():
    used = {
        claim["check"] for build in BUILDERS.values() for claim in build().claims
    }
    assert used == set(CHECKS)


def test_failed_claim_is_reported_not_raised():
    actual = run_check("k-squared", {"sequence": _first_sequence(BUILDERS["triangle-pencil"]())})
    assert actual != 99  # a wrong expectation would simply fail to match


# Pinned reports: a change to any claim's description, check, expected or
# actual value, or verdict, or to the merged parameters, changes the hash.
# The keys are each default entry and the parameter grids of criterion 7
# and of test_parametric_sweeps.
REPORT_SHA256 = {
    ("halphen-five-lines", ()):
        "1aa5915b078498dc276501614a31c05b1a8a44b896e91801a40175a3d34c60b9",
    ("quintic-plus-line", ()):
        "bde89589a34f8c5bada1224836ae24ae0b2848db0a0c6345c12f2327bb44e26d",
    ("scroll-fiber-tower", ()):
        "391a731662da9d0edb5dbf5a70db01a58e83ecb863ee18dc3084e2cdd4b45690",
    ("sections-to-minus-four", ()):
        "3daf64adc1ef893df3e488a7da83fd6dcce34a101ff2c49e73f0d98eb79e066e",
    ("three-lines-conic", ()):
        "5bb03fe27aaf4b4cc088b324b1feb0356aa31b8fe69b12cc5270b92fbca7c97b",
    ("triangle-pencil", ()):
        "79fd96b9230314bbbd983423c1cc0863d37c311a2ab6f29be3e712a18aea05c3",
    ("two-star-fibers", ()):
        "9da8a7a76af069a4ec35549c0c882f316fcbd3557584e77a694621597542fbd1",
    ("scroll-fiber-tower", (("n", 3), ("t", 0), ("b", 4))):
        "391a731662da9d0edb5dbf5a70db01a58e83ecb863ee18dc3084e2cdd4b45690",
    ("scroll-fiber-tower", (("n", 3), ("t", 0), ("b", 5))):
        "69ddaf5ae82e85af9e96250079f1a7f893cc7946e3cfcab79442843a0d4c0687",
    ("scroll-fiber-tower", (("n", 3), ("t", 0), ("b", 6))):
        "83ac7c374db0e2d0d94f4bb4389013f6d774c9e84984d20ac7d2c2c7fc678e37",
    ("scroll-fiber-tower", (("n", 3), ("t", 1), ("b", 5))):
        "b4b83e7179777d9e338a68d0ba079c3d53403fa215f1635aabc60e9d2c6aaf75",
    ("scroll-fiber-tower", (("n", 3), ("t", 1), ("b", 6))):
        "ff96c9f9552aace6c68e790f53c370d70c7172591b86ac4ac22860b9f1ee4546",
    ("scroll-fiber-tower", (("n", 3), ("t", 1), ("b", 7))):
        "aa0e1e7b8cc949b0aef9460c9193bef348b458e046a1206c64ae13564f6134cd",
    ("scroll-fiber-tower", (("n", 3), ("t", 2), ("b", 6))):
        "59e69a73712a1f0f6e2c78b5d243d7600c4ffae903f668961adae34ebe6294b9",
    ("scroll-fiber-tower", (("n", 3), ("t", 2), ("b", 7))):
        "67092ca2c2f553c423ea5eda23946f5e3c9df4119875aff52f39b26122f2b60a",
    ("scroll-fiber-tower", (("n", 3), ("t", 2), ("b", 8))):
        "fe688e222fc2eba909379bc8fab9d2c3637eebd463a2315a71f1f84acea24542",
    ("scroll-fiber-tower", (("n", 4), ("t", 0), ("b", 6))):
        "57c200d12787d6054c24a70c619a372873e63f2c0a7d935da5be47d1913ed207",
    ("scroll-fiber-tower", (("n", 4), ("t", 0), ("b", 7))):
        "5f03e555c601d4164f47066964173101308d0083b89a5801298e7b66f35a8a24",
    ("scroll-fiber-tower", (("n", 4), ("t", 0), ("b", 8))):
        "a68b0a52d5291ea4bbc20799978aa006880b52eb4f4007de0f2631dc9e6df692",
    ("scroll-fiber-tower", (("n", 4), ("t", 1), ("b", 7))):
        "28d3d665e30fc0c584108ee5c59cd49642d6dcd613367c8ee9234c0adabca16d",
    ("scroll-fiber-tower", (("n", 4), ("t", 1), ("b", 8))):
        "ad0cd672218bd460e706816269882472a1d57c0a53503a9a41df39f8d0a74a86",
    ("scroll-fiber-tower", (("n", 4), ("t", 1), ("b", 9))):
        "d25c74d443569061c5cd88bfd2915154bcc23d5c73d54c9dfcaf4f567e8e4454",
    ("scroll-fiber-tower", (("n", 4), ("t", 2), ("b", 8))):
        "6720161fb5ebc77134fd1b004850aa63dce9ebd487e4971ae951fef9c8d75df3",
    ("scroll-fiber-tower", (("n", 4), ("t", 2), ("b", 9))):
        "640f402e6710214a54c60410679e4dfe5c650b185d43e30e3b1783d492aff3c9",
    ("scroll-fiber-tower", (("n", 4), ("t", 2), ("b", 10))):
        "f7683544af50e8ffaf2de120315b7ba2149dfe04103287441ffb16ab74359023",
    ("scroll-fiber-tower", (("n", 5), ("t", 0), ("b", 8))):
        "022c7b37863ef4c018556578ca7978541d586dd68b3f07c464b5e9c3d8722b16",
    ("scroll-fiber-tower", (("n", 5), ("t", 0), ("b", 9))):
        "d4d100baf49be0ffd38f7754435f9680a8f2f3650d654d2636cb8b93f4048302",
    ("scroll-fiber-tower", (("n", 5), ("t", 0), ("b", 10))):
        "1b93db8bd178ae237d94973f22729bdb532f2a75ac7754ba5d2e89b30fafdbf3",
    ("scroll-fiber-tower", (("n", 5), ("t", 1), ("b", 9))):
        "5ac17794dc84794febe3fefc7c85dbdc2738c2bc72598f86f92b8e9f269a9694",
    ("scroll-fiber-tower", (("n", 5), ("t", 1), ("b", 10))):
        "35395d54a59716f77600df6b12344ac7fe9addd257a6f6892789379d6820a8d4",
    ("scroll-fiber-tower", (("n", 5), ("t", 1), ("b", 11))):
        "2a9a7e26947a60226a2fa80adff2df60dd59faf8ae26696b1d4df8c98a8b1945",
    ("scroll-fiber-tower", (("n", 5), ("t", 2), ("b", 10))):
        "a2af34e717c01dd3b74159875e368cb37e09d6054672410d6e8a3b240cb643be",
    ("scroll-fiber-tower", (("n", 5), ("t", 2), ("b", 11))):
        "adaf7be497664550573e263fe01b9e7e47b390fc39d8b13dba6b44efeef7c971",
    ("scroll-fiber-tower", (("n", 5), ("t", 2), ("b", 12))):
        "7625bfb3932b89223931b80901511837f1c8f22e5a20b7c6c895bdd81be7cc70",
    ("sections-to-minus-four", (("m", 1),)):
        "ec8889b6c8385f1cf5847ce6df2c2cd6d039dd6fe993d18a67ee6848936bbda6",
    ("sections-to-minus-four", (("m", 2),)):
        "ecbf0e722e6e13cde9cd2cdcbb7d59e5b57cfa78e1d1156ff9628d98352add12",
    ("sections-to-minus-four", (("m", 3),)):
        "2b3391546adf1e5b6a9e43bc2360bc874514f386efad8c4955ea27ced8def2e6",
    ("sections-to-minus-four", (("m", 4),)):
        "3864ef7f94b0d657f339847503141a4714bb3ab99b2a8d020411d50cd00f5d08",
    ("sections-to-minus-four", (("m", 5),)):
        "1e8a05bc3c19252655dd4a480fbfbcdd9eb7442bea9ec73f2bfed852a27f018e",
    ("sections-to-minus-four", (("m", 6),)):
        "3daf64adc1ef893df3e488a7da83fd6dcce34a101ff2c49e73f0d98eb79e066e",
}


@pytest.mark.parametrize(
    "key", REPORT_SHA256, ids=lambda key: "-".join([key[0]] + [f"{k}{v}" for k, v in key[1]])
)
def test_report_bytes_are_pinned(key):
    name, params = key
    text = json.dumps(verify_example(name, dict(params)).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[key]
