"""A pure-Python TPC-H data generator (dbgen clone).

Generates all eight TPC-H tables with the benchmark's cardinality
ratios (25 nations / 5 regions, ~10 orders per customer, 1-7 lineitems
per order, 4 partsupp rows per part) at an arbitrary *scale factor*.
Scale factor 1.0 corresponds to the official 10k suppliers / 150k
customers / 1.5M orders; the reproduction benches run at micro scales
(e.g. 0.001) because Shapley computation consumes per-answer lineage,
whose shape — join fan-out and alternation — is preserved at any scale.

The generator is fully deterministic given a seed.  Its random stream
is pinned: tier-1 tests check SHA-256 digests of the generated facts at
several (scale, seed) pairs, so a change to any draw — its kind, its
order or its arguments — is a change to the data, not a refactor.  The
draws call only ``random()`` and ``getrandbits()`` of one
``random.Random(seed)``, through :func:`_pick` and :func:`_weighted`,
which reproduce ``choice``/``randint`` and ``choices(weights=...)``
draw for draw with fewer Python calls.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence, TypeVar

from ..db.database import Database
from ..db.schema import RelationSchema, Schema

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]

PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]

TYPE_SYLLABLE_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPE_SYLLABLE_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPE_SYLLABLE_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]

CONTAINER_SYLLABLE_1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
CONTAINER_SYLLABLE_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]

SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIP_INSTRUCTIONS = [
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN",
]
RETURN_FLAGS = ["R", "A", "N"]
ORDER_STATUS = ["O", "F", "P"]

_MONTH_DAYS = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]

# At micro scale factors a uniform nation draw would leave the
# nation-selective queries (Q5's ASIA, Q7's FRANCE/GERMANY, Q11's
# GERMANY) empty, so the generator skews toward a handful of nations —
# the lineage *shape* those queries exercise is unchanged.
_POPULAR_NATIONS = ["FRANCE", "GERMANY", "CHINA", "INDIA", "JAPAN", "UNITED STATES"]
_NATION_WEIGHTS = [
    8 if name in _POPULAR_NATIONS else 1 for name, _ in NATIONS
]


T = TypeVar("T")


def _pick(rng: random.Random, population: Sequence[T]) -> Callable[[], T]:
    """A draw of ``rng.choice(population)``.

    ``choice`` and ``randint(a, b)`` (``choice(range(a, b + 1))``) both
    take ``rng._randbelow(n)``: CPython's rejection loop over
    ``getrandbits(n.bit_length())``, repeated here so one draw is one
    Python call with the same bits consumed."""
    getrandbits = rng.getrandbits
    n = len(population)
    k = n.bit_length()

    def draw() -> T:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return population[r]

    return draw


def _weighted(
    rng: random.Random, population: Sequence[T], weights: Sequence[int]
) -> Callable[[], T]:
    """A draw of ``rng.choices(population, weights=weights, k=1)[0]``:
    one ``random()`` bisected into the cumulative weights, which are
    summed once instead of per draw."""
    random_ = rng.random
    cum_weights = list(accumulate(weights))
    total = cum_weights[-1] + 0.0
    hi = len(cum_weights) - 1

    def draw() -> T:
        return population[bisect(cum_weights, random_() * total, 0, hi)]

    return draw


def _date(rng: random.Random) -> Callable[[], str]:
    """A draw of a uniform ISO date string in 1992-1998 (ISO strings
    compare correctly): ``randint`` year, month, then day of month."""
    year = _pick(rng, range(1992, 1999))
    month = _pick(rng, range(1, 13))
    days = [_pick(rng, range(1, n + 1)) for n in _MONTH_DAYS]

    def draw() -> str:
        y, m = year(), month()
        return f"{y:04d}-{m:02d}-{days[m - 1]():02d}"

    return draw


def tpch_schema() -> Schema:
    """The TPC-H schema (columns used by the paper's query suite)."""
    return Schema.of(
        RelationSchema.of("region", ("r_regionkey", int), ("r_name", str)),
        RelationSchema.of(
            "nation", ("n_nationkey", int), ("n_name", str), ("n_regionkey", int)
        ),
        RelationSchema.of(
            "supplier",
            ("s_suppkey", int), ("s_name", str), ("s_nationkey", int),
            ("s_acctbal", float),
        ),
        RelationSchema.of(
            "part",
            ("p_partkey", int), ("p_name", str), ("p_brand", str),
            ("p_type", str), ("p_size", int), ("p_container", str),
            ("p_retailprice", float),
        ),
        RelationSchema.of(
            "partsupp",
            ("ps_partkey", int), ("ps_suppkey", int), ("ps_availqty", int),
            ("ps_supplycost", float),
        ),
        RelationSchema.of(
            "customer",
            ("c_custkey", int), ("c_name", str), ("c_nationkey", int),
            ("c_mktsegment", str), ("c_acctbal", float),
        ),
        RelationSchema.of(
            "orders",
            ("o_orderkey", int), ("o_custkey", int), ("o_orderstatus", str),
            ("o_totalprice", float), ("o_orderdate", str),
            ("o_orderpriority", str),
        ),
        RelationSchema.of(
            "lineitem",
            ("l_orderkey", int), ("l_partkey", int), ("l_suppkey", int),
            ("l_linenumber", int), ("l_quantity", int),
            ("l_extendedprice", float), ("l_discount", float),
            ("l_returnflag", str), ("l_shipdate", str), ("l_shipmode", str),
            ("l_shipinstruct", str),
        ),
    )


@dataclass(frozen=True)
class TpchConfig:
    """Sizing knobs for the generator.

    ``scale_factor = 1.0`` reproduces the official TPC-H cardinalities.
    ``endogenous_relations`` mirrors the experimental setup where the
    large "fact" tables are endogenous and the small dimension tables
    (nation, region) are exogenous.
    """

    scale_factor: float = 0.001
    seed: int = 7
    endogenous_relations: tuple[str, ...] = (
        "supplier", "part", "partsupp", "customer", "orders", "lineitem",
    )

    def cardinality(self, base: int, minimum: int = 2) -> int:
        return max(minimum, round(base * self.scale_factor))


def generate_tpch(config: TpchConfig | None = None) -> Database:
    """Generate a TPC-H database at the configured scale.

    Each relation's rows are built as a list of tuples and loaded with
    one :meth:`~repro.db.database.Database.add_many`."""
    config = config or TpchConfig()
    rng = random.Random(config.seed)
    random_ = rng.random
    db = Database(tpch_schema())
    endo = set(config.endogenous_relations)

    def load(relation: str, rows: list[tuple]) -> None:
        db.add_many(relation, rows, endogenous=relation in endo)

    load("region", list(enumerate(REGIONS)))
    load("nation", [(key, name, region)
                    for key, (name, region) in enumerate(NATIONS)])

    n_supplier = config.cardinality(10_000)
    n_part = config.cardinality(200_000, minimum=5)
    n_customer = config.cardinality(150_000, minimum=5)
    n_orders = config.cardinality(1_500_000, minimum=10)

    # ``rng.uniform(a, b)`` is ``a + (b - a) * random()``, written out.
    nation_key = _weighted(rng, range(len(NATIONS)), _NATION_WEIGHTS)
    load("supplier", [
        (key, f"Supplier#{key:09d}", nation_key(),
         round(-999.99 + (9999.99 - -999.99) * random_(), 2))
        for key in range(1, n_supplier + 1)
    ])

    # Brand/container/size draws are skewed toward the combinations Q16
    # and Q19 filter on (Brand#12/23/34, SM/MED/LG cases, small sizes)
    # so those queries stay non-empty at micro scale.
    brand_1 = _weighted(rng, "12345", (4, 4, 4, 1, 1))
    brand_2 = _weighted(rng, "12345", (1, 4, 4, 4, 1))
    type_1 = _pick(rng, TYPE_SYLLABLE_1)
    type_2 = _pick(rng, TYPE_SYLLABLE_2)
    type_3 = _pick(rng, TYPE_SYLLABLE_3)
    container_1 = _weighted(rng, CONTAINER_SYLLABLE_1, (4, 4, 4, 1, 1))
    container_2 = _weighted(
        rng, CONTAINER_SYLLABLE_2, (4, 4, 1, 1, 4, 4, 1, 1))
    size = _weighted(rng, range(1, 51), [4] * 15 + [1] * 35)
    parts = []
    for key in range(1, n_part + 1):
        brand = f"Brand#{brand_1()}{brand_2()}"
        ptype = f"{type_1()} {type_2()} {type_3()}"
        container = f"{container_1()} {container_2()}"
        parts.append((
            key, f"part {key}", brand, ptype, size(), container,
            round(900 + key / 10 % 1000 + 100 * (key % 10), 2),
        ))
    load("part", parts)

    # Four suppliers per part, as in dbgen.
    availqty = _pick(rng, range(1, 10_000))
    stride = max(1, n_supplier // 4)
    load("partsupp", [
        (part_key, (part_key + i * stride) % n_supplier + 1, availqty(),
         round(1.0 + (1000.0 - 1.0) * random_(), 2))
        for part_key in range(1, n_part + 1)
        for i in range(4)
    ])

    segment = _pick(rng, SEGMENTS)
    load("customer", [
        (key, f"Customer#{key:09d}", nation_key(), segment(),
         round(-999.99 + (9999.99 - -999.99) * random_(), 2))
        for key in range(1, n_customer + 1)
    ])

    # Orders and their lineitems interleave in the random stream.
    customer = _pick(rng, range(1, n_customer + 1))
    status = _pick(rng, ORDER_STATUS)
    date = _date(rng)
    priority = _pick(rng, PRIORITIES)
    n_lines = _pick(rng, range(1, 8))
    quantity_of = _pick(rng, range(1, 51))
    part = _pick(rng, range(1, n_part + 1))
    supplier = _pick(rng, range(1, n_supplier + 1))
    return_flag = _pick(rng, RETURN_FLAGS)
    ship_mode = _weighted(rng, SHIP_MODES, (4, 4, 1, 1, 1, 1, 1))
    ship_instruct = _weighted(rng, SHIP_INSTRUCTIONS, (5, 1, 1, 1))
    orders, lineitems = [], []
    for key in range(1, n_orders + 1):
        orders.append((
            key, customer(), status(),
            round(1000.0 + (400000.0 - 1000.0) * random_(), 2),
            date(), priority(),
        ))
        for line_number in range(1, n_lines() + 1):
            quantity = quantity_of()
            lineitems.append((
                key, part(), supplier(), line_number, quantity,
                round(quantity * (900.0 + (2000.0 - 900.0) * random_()), 2),
                round(0.0 + (0.1 - 0.0) * random_(), 2),
                return_flag(), date(), ship_mode(), ship_instruct(),
            ))
    load("orders", orders)
    load("lineitem", lineitems)
    return db
