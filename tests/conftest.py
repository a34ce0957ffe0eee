import pytest

from hgalois import (
    QQ,
    AlgebraPresentation,
    GeneratorSymbol,
    HopfGaloisStructure,
    PoissonStructure,
    TensorElement,
    hopf_structure,
    mu_map,
)
from hgalois.tensors import OP, PLAIN

ONE = QQ.one


def make_h4(field=QQ):
    one = field.one
    return AlgebraPresentation(
        field,
        [GeneratorSymbol("g"), GeneratorSymbol("x")],
        relations=[
            (("g", "g"), {(): one}),
            (("x", "x"), {}),
            (("x", "g"), {("g", "x"): -one}),
        ],
        name="H4",
    )


def make_h4_mu(pres):
    one = pres.field.one
    t3 = (pres, pres, pres)
    sig = (PLAIN, OP, PLAIN)
    return mu_map(pres, {
        "g": TensorElement(t3, sig, {(("g",), ("g",), ("g",)): one}),
        "x": TensorElement(t3, sig, {
            (("x",), (), ()): one,
            (("g",), ("g", "x"), ()): -one,
            (("g",), ("g",), ("x",)): one,
        }),
    })


def make_h4_hopf(pres):
    one = pres.field.one
    gx = pres.atom_element("g") * pres.atom_element("x")
    return hopf_structure(
        pres,
        delta_images={
            "g": TensorElement((pres, pres), (PLAIN, PLAIN), {(("g",), ("g",)): one}),
            "x": TensorElement((pres, pres), (PLAIN, PLAIN),
                               {(("x",), ()): one, (("g",), ("x",)): one}),
        },
        counit_images={"g": one, "x": pres.field.zero},
        antipode_images={"g": pres.atom_element("g"), "x": -gx},
    )


def make_laurent38(field=QQ, lam=None):
    """k[g, g^-1, x] with bracket {x, g} = lam * g * x and its structure map."""
    lam = field.one if lam is None else lam
    one = field.one
    pres = AlgebraPresentation(
        field,
        [GeneratorSymbol("g", invertible=True), GeneratorSymbol("x")],
        commutative=True,
        name="laurent38",
    )
    g, x = pres.atom_element("g"), pres.atom_element("x")
    poisson = PoissonStructure(pres, {("x", "g"): (g * x).scale(lam)})
    t3 = (pres, pres, pres)
    sig = (PLAIN, OP, PLAIN)
    mu = mu_map(pres, {
        "g": TensorElement(t3, sig, {(("g",), ("g^-1",), ("g",)): one}),
        "x": TensorElement(t3, sig, {
            ((), (), ("x",)): one,
            ((), ("x", "g"), ("g^-1",)): -one,
            (("x",), ("g",), ("g^-1",)): one,
        }),
    })
    return pres, poisson, HopfGaloisStructure(pres, mu)


def make_kz2(field=QQ, gen="c"):
    one = field.one
    pres = AlgebraPresentation(
        field, [GeneratorSymbol(gen)],
        relations=[((gen, gen), {(): one})],
        commutative=True, name=f"k[Z2:{gen}]",
    )
    mu = mu_map(pres, {gen: TensorElement(
        (pres, pres, pres), (PLAIN, OP, PLAIN),
        {((gen,), (gen,), (gen,)): one})})
    return pres, HopfGaloisStructure(pres, mu)


def make_kxy(field=QQ):
    pres = AlgebraPresentation(
        field,
        [GeneratorSymbol("x"), GeneratorSymbol("y")],
        relations=[
            (("x", "x", "x"), {}),
            (("x", "x", "y"), {}),
            (("x", "y", "y"), {}),
            (("y", "y", "y"), {}),
        ],
        commutative=True,
        name="kxy",
    )
    poisson = PoissonStructure(pres, {("x", "y"): pres.atom_element("x")})
    return pres, poisson


def log_canonical_x2y3(field=QQ):
    """k[x,y]/(x^2, y^3) with the log-canonical bracket {x, y} = 2/3 xy."""
    pres = AlgebraPresentation(
        field, [GeneratorSymbol("x"), GeneratorSymbol("y")],
        relations=[(("x", "x"), {}), (("y", "y", "y"), {})],
        commutative=True, name="x2y3",
    )
    q = field.parse("2/3")
    return PoissonStructure(pres, {("x", "y"): pres.element({("x", "y"): q})})


def with_rules(pres, relations):
    """`pres` with `relations` added by `add_rule_data` after its constructor
    has checked local confluence, as `build_envelope` adds its rules: the
    way to build a system whose critical pairs need not resolve."""
    for lhs, rhs in relations:
        pres.add_rule_data(lhs, rhs)
    return pres


def resolved_keys(work):
    """The keys that a `complete_rules` worklist carries as resolved: those
    registered under a reduct word and not on the heap."""
    return {key for keys in work.waiting.values() for key in keys} - set(work.pending)


def make_kxy_hopf(pres):
    one = pres.field.one
    zero = pres.field.zero
    prim = lambda a: TensorElement(
        (pres, pres), (PLAIN, PLAIN),
        {((a,), ()): one, ((), (a,)): one})
    return hopf_structure(
        pres,
        delta_images={"x": prim("x"), "y": prim("y")},
        counit_images={"x": zero, "y": zero},
        antipode_images={"x": -pres.atom_element("x"), "y": -pres.atom_element("y")},
    )


@pytest.fixture
def h4():
    return make_h4()


@pytest.fixture
def h4_hg(h4):
    return HopfGaloisStructure(h4, make_h4_mu(h4))


@pytest.fixture
def h4_hopf(h4):
    return make_h4_hopf(h4)


@pytest.fixture
def laurent38():
    return make_laurent38()


@pytest.fixture
def kz2():
    return make_kz2()


@pytest.fixture
def kxy():
    return make_kxy()
