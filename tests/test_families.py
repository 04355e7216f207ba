import pytest

from grpd import families
from grpd.cli import run_command
from grpd.errors import BadParams, CapExceeded
from grpd.families import (
    affine_cyclic,
    complex_pair,
    cyclic_group_table,
    generate,
    group_groupoid,
    pair_groupoid,
)
from grpd.scalars import gaussian

from oracles import groupoid_violations


def test_pair_counts_and_validity():
    groupoid, homs = pair_groupoid(2)
    assert groupoid.n_objects == 2 and groupoid.n_arrows == 4
    assert groupoid_violations(groupoid) == []
    theta = homs["theta"]
    assert theta.values[groupoid.arrow_index("(0,1)")] == (-1,)
    assert theta.values[groupoid.arrow_index("e1")] == (0,)


def test_pair_isotropy_trivial_and_transitive():
    for n in (1, 2, 3, 5):
        groupoid, _ = pair_groupoid(n)
        assert groupoid.is_transitive()
        for p in groupoid.objects():
            loops = [g for g in groupoid.arrows() if groupoid.source[g] == groupoid.target[g] == p]
            assert loops == [groupoid.identity[p]]


def test_affine_cyclic_counts():
    groupoid, homs = affine_cyclic(3)
    assert groupoid.n_objects == 3 and groupoid.n_arrows == 9
    assert groupoid.is_transitive()
    assert groupoid_violations(groupoid) == []
    theta = homs["theta"]
    assert theta.values[groupoid.arrow_index("(2,1)")] == (1,)


def test_complex_pair_counts_and_theta():
    groupoid, homs = complex_pair(2)
    assert groupoid.n_objects == 4 and groupoid.n_arrows == 16
    assert groupoid_violations(groupoid) == []
    theta = homs["theta"]
    assert theta.values[groupoid.arrow_index("((1,0),(0,0))")] == (gaussian(1),)
    assert theta.values[groupoid.arrow_index("((0,1),(0,0))")] == (gaussian(0, 1),)
    assert homs["theta1"].values[groupoid.arrow_index("((1,0),(0,0))")] == (1,)
    assert homs["theta2"].values[groupoid.arrow_index("((0,1),(0,0))")] == (1,)


def test_group_family():
    groupoid, homs = group_groupoid(cyclic_group_table(4))
    assert groupoid.n_objects == 1 and groupoid.n_arrows == 4
    assert homs == {}
    assert groupoid_violations(groupoid) == []

    klein = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    groupoid, _ = group_groupoid(klein)
    assert groupoid_violations(groupoid) == []


def test_group_family_rejects_non_groups():
    with pytest.raises(BadParams):
        group_groupoid([[0, 0], [0, 0]])  # no inverses for g1
    with pytest.raises(BadParams):
        group_groupoid([[0, 1], [1, 0], [0, 1]])  # not square
    with pytest.raises(BadParams):
        group_groupoid([[0, 2], [1, 0]])  # entry out of range


def test_generate_dispatch_and_validation():
    for kind, sizes in (
        ("pair", (1, 2, 4)),
        ("group", (1, 2, 5)),
        ("affine_cyclic", (1, 2, 4)),
        ("complex_pair", (1, 2)),
    ):
        for size in sizes:
            groupoid, homs = generate(kind, size)
            assert groupoid_violations(groupoid) == []
            for hom in homs.values():
                assert hom.groupoid is groupoid


def test_generate_bad_params():
    with pytest.raises(BadParams):
        generate("pair", 0)
    with pytest.raises(BadParams):
        generate("torus", 2)
    with pytest.raises(BadParams):
        generate("pair", "2")


# each family past a cap, with the line validate_groupoid prints for its tables
OVER_CAP = [
    ("pair", 100000, "100000 objects exceeds the cap of 64"),
    ("pair", 65, "65 objects exceeds the cap of 64"),
    ("group", 4097, "4097 arrows exceeds the cap of 4096"),
    ("affine_cyclic", 65, "65 objects exceeds the cap of 64"),
    ("complex_pair", 9, "81 objects exceeds the cap of 64"),
]


@pytest.fixture()
def tables_never_built(monkeypatch):
    """Every family constructor that generate reaches fails the test when
    called, so a size past a cap must be refused before any table is built."""

    def spy(*args):
        raise AssertionError(f"a family constructor was called with {args!r}")

    for name in ("pair_groupoid", "group_groupoid", "cyclic_group_table", "affine_cyclic", "complex_pair"):
        monkeypatch.setattr(families, name, spy)


@pytest.mark.parametrize(("kind", "size", "message"), OVER_CAP)
def test_generate_checks_the_caps_before_building_tables(tables_never_built, kind, size, message):
    with pytest.raises(CapExceeded) as err:
        generate(kind, size)
    assert str(err.value) == message


def test_gen_past_a_cap_exits_2_before_building_tables(tables_never_built, capsys):
    assert run_command(["gen", "pair", "--size", "100000"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: 100000 objects exceeds the cap of 64\n")


def test_generate_arrow_cap_follows_the_environment(tables_never_built, monkeypatch):
    monkeypatch.setenv("GRPD_MAX_ARROWS", "10")
    with pytest.raises(CapExceeded, match="^16 arrows exceeds the cap of 10$"):
        generate("pair", 4)
    monkeypatch.setenv("GRPD_MAX_ARROWS", "16")
    with pytest.raises(AssertionError, match="family constructor"):
        generate("pair", 4)
