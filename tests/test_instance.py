import hashlib
import json
from fractions import Fraction

import pytest

from aldual.ald import integer_box, solve_ip
from aldual.convexsolve import OPTIMAL, UNBOUNDED
from aldual.errors import ParseError, SchemaViolationError
from aldual.instance import (
    GenConfig,
    MiqpInstance,
    clamp_box,
    from_json_dict,
    generate,
    read_instance,
    to_json_dict,
    validate,
    write_instance,
)
from aldual.numkit import RatMat, RatVec, quad_form


def test_validate_d1_ok(d1):
    assert validate(d1) == []


def test_validate_not_psd_with_witness(d1):
    bad = MiqpInstance(Q=RatMat([[0, 1], [1, 0]]), c=d1.c, A=d1.A, b=d1.b,
                       E=d1.E, f=d1.f, n1=0, n2=2)
    violations = validate(bad)
    assert [v.code for v in violations] == ["NOT_PSD"]
    w = violations[0].witness
    assert quad_form(bad.Q, w) < 0


def test_validate_dim_mismatch(d1):
    bad = MiqpInstance(Q=d1.Q, c=d1.c, A=d1.A, b=d1.b, E=d1.E, f=d1.f,
                       n1=1, n2=2)
    codes = {v.code for v in validate(bad)}
    assert "DIM" in codes


@pytest.mark.parametrize("field", ["A", "E"])
def test_validate_checks_the_width_of_a_zero_row_block(field):
    # RatMat([]) has 0 columns: a zero-row A or E must still have n of them
    blocks = {"A": RatMat([], cols=2), "b": RatVec([]),
              "E": RatMat([[0, 1], [0, -1]]), "f": RatVec([1, 1])}
    blocks[field] = RatMat([])
    blocks["b" if field == "A" else "f"] = RatVec([])
    inst = MiqpInstance(Q=RatMat([[2, 0], [0, 2]]), c=RatVec([0, 1]),
                        n1=1, n2=1, **blocks)
    assert [(v.code, v.message) for v in validate(inst)] == [
        ("DIM", f"{field} has 0 columns, expected 2")]


def test_validate_not_symmetric(d1):
    bad = MiqpInstance(Q=RatMat([[1, 2], [0, 1]]), c=d1.c, A=d1.A, b=d1.b,
                       E=d1.E, f=d1.f, n1=0, n2=2)
    assert [v.code for v in validate(bad)] == ["NOT_SYMMETRIC"]


def test_generate_deterministic():
    cfg = GenConfig(n1=1, n2=2, m=1, m2=1, magnitude=2, seed=7)
    assert to_json_dict(generate(cfg)) == to_json_dict(generate(cfg))


# sha256 of write_instance's bytes, captured before generate and clamp_box
# shared one builder of the bound rows: pure integer, mixed, extra rows
# (m2 > 0) and an unplanted draw
_GENERATED_DIGESTS = [
    (GenConfig(0, 2, 2, 1, magnitude=2, seed=5),
     "cf8ba78a4d3c0bdf4c1c26d8a077f5ffa09f84bdfadc637b2e558f8165e1e09b"),
    (GenConfig(2, 2, 2, 0, magnitude=3, seed=7),
     "aae12fb5650e390c60a9daffe5234509b89407a7bb47a30ab3d237ff3d018e96"),
    (GenConfig(1, 2, 1, 3, magnitude=2, seed=9),
     "e60b2147b234768a1c687ddeb625166574530ab70b471f74605481b87fa5ed81"),
    (GenConfig(2, 1, 2, 2, magnitude=2, seed=13, require_feasible=False),
     "c3638f6d99ca03ac9dc54ba1444675cf0e52ecfffc67e8df22749b45daa7515e"),
]


def _written_digest(inst, path):
    write_instance(inst, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cfg,digest", _GENERATED_DIGESTS)
def test_generate_bytes_pinned(cfg, digest, tmp_path):
    assert _written_digest(generate(cfg), tmp_path / "gen.json") == digest


def test_clamp_box_bytes_pinned(d1, tmp_path):
    assert _written_digest(clamp_box(d1, 2), tmp_path / "clamped.json") == \
        "7acccb0404bee01e82e55a35e92af13928cb47953206f5cfc8d3e468b1d177c7"


def test_generate_validates_and_is_feasible():
    for seed in range(8):
        cfg = GenConfig(n1=1, n2=2, m=1, m2=2, magnitude=2, seed=seed,
                        require_feasible=True)
        inst = generate(cfg)
        assert validate(inst) == []
        box = integer_box(inst)
        assert all(-2 <= lo <= hi <= 2 for lo, hi in zip(box.lower, box.upper))
        rep = solve_ip(inst)
        assert rep.status in (OPTIMAL, UNBOUNDED)
        if rep.status == OPTIMAL:
            # the planted point makes the instance feasible; optimum found
            assert inst.A.matvec(rep.x) == inst.b


def test_generate_box_rows_always_present():
    inst = generate(GenConfig(n1=0, n2=3, m=1, m2=0, magnitude=4, seed=1,
                              require_feasible=False))
    assert inst.E.rows == 6
    box = integer_box(inst)
    assert box.lower == (-4, -4, -4) and box.upper == (4, 4, 4)


def test_config_rejects_bad_counts():
    with pytest.raises(ValueError):
        GenConfig(n1=-1, n2=1, m=0, m2=0)
    with pytest.raises(ValueError):
        GenConfig(n1=1, n2=1, m=0, m2=0, magnitude=0)


def test_round_trip_file(tmp_path, d1):
    path = tmp_path / "d1.json"
    write_instance(d1, path)
    assert read_instance(path) == d1
    # file round-trips byte-identically on rewrite
    text = path.read_text()
    write_instance(read_instance(path), path)
    assert path.read_text() == text


def test_shipped_reference_instance(d1):
    import pathlib

    shipped = pathlib.Path(__file__).parent.parent / "instances" / "d1.json"
    assert read_instance(shipped) == d1


def test_missing_field_is_schema_violation(tmp_path, d1):
    doc = to_json_dict(d1)
    del doc["b"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolationError) as exc:
        read_instance(path)
    assert "b" in str(exc.value)


def test_unknown_field_rejected(d1):
    doc = to_json_dict(d1)
    doc["comment"] = "hello"
    with pytest.raises(SchemaViolationError):
        from_json_dict(doc)


def test_zero_denominator_is_parse_error(tmp_path, d1):
    doc = to_json_dict(d1)
    doc["b"] = ["1/0"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        read_instance(path)


def test_invalid_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_instance(path)


def test_floats_rejected(d1):
    doc = to_json_dict(d1)
    doc["c"] = [0.5, "0"]
    with pytest.raises(SchemaViolationError):
        from_json_dict(doc)


def test_clamp_box_bounds_everything(d1):
    clamped = clamp_box(d1, 2)
    assert clamped.E.rows == d1.E.rows + 2 * d1.n
    box = integer_box(clamped)
    assert box.lower == (-2, -2) and box.upper == (2, 2)
    assert solve_ip(clamped).value == 1


def test_objective_value(d1):
    assert d1.objective_value(RatVec([0, 1])) == 1
    assert d1.objective_value(RatVec([Fraction(1, 2), Fraction(1, 2)])) \
        == Fraction(1, 2)
