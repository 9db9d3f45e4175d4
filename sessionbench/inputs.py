"""Seeded input generation: plain rows, schemas and constraint texts.

Everything here is stdlib-only and independent of the library under
test, so a change to ``repro.datagen`` can never change what the
benchmark feeds the program.  The same ``(seed, sizes)`` always yields the
same rows.  Rows are plain lists in schema order; the workloads load them
into ``Relation`` objects inside the timed set-up.
"""

from __future__ import annotations

import random

#: (attribute, type) per relation; types name ``AttributeType`` members.
CUSTOMER = ("customer", [("cc", "STRING"), ("ac", "STRING"), ("phn", "STRING"),
                         ("name", "STRING"), ("street", "STRING"),
                         ("city", "STRING"), ("zip", "STRING")])
CD = ("cd", [("album", "STRING"), ("price", "STRING"), ("genre", "STRING")])
BOOK = ("book", [("title", "STRING"), ("price", "STRING"), ("format", "STRING")])
ORDERS = ("orders", [("city", "STRING"), ("zip", "STRING"),
                     ("amount", "INTEGER"), ("price", "FLOAT")])
ZIPS = ("zips", [("zip", "STRING"), ("region", "STRING"), ("pop", "INTEGER")])
REGIONS = ("regions", [("region", "STRING"), ("country", "STRING")])

#: the customer world's consistency rules (the CFD papers' running example).
CANONICAL_CFDS = """\
customer([cc='44', zip] -> [street])
customer([cc='44', zip] -> [city])
customer([cc='01', zip] -> [street])
customer([cc='01', ac] -> [city])
customer([cc='01', ac='908'] -> [city='mh'])
"""

#: :data:`CANONICAL_CFDS` as (lhs, rhs, pattern constants), to check the parse.
CANONICAL_CFD_SPECS = [
    (["cc", "zip"], ["street"], {"cc": "44"}),
    (["cc", "zip"], ["city"], {"cc": "44"}),
    (["cc", "zip"], ["street"], {"cc": "01"}),
    (["cc", "ac"], ["city"], {"cc": "01"}),
    (["cc", "ac"], ["city"], {"cc": "01", "ac": "908", "city": "mh"}),
]

#: every audio-book CD must appear as an audio book with the same title/price.
CANONICAL_CIND = ("cd(album, price; genre='a-book') SUBSET "
                  "book(title, price; format='audio')")

#: the SQL mix of ``sql_analytics``; ``{lo}``/``{hi}`` bound a window of amounts.
TEMPLATES = {
    "scan": ("SELECT city, COUNT(*) AS n, SUM(amount) AS s, MAX(amount) AS hi "
             "FROM orders WHERE amount >= {lo} AND amount < {hi} "
             "GROUP BY city ORDER BY city"),
    "topk": ("SELECT zip, amount FROM orders WHERE amount >= {lo} AND amount < {hi} "
             "ORDER BY amount DESC, zip LIMIT {k}"),
    "hash_join": ("SELECT o.city, z.region, o.amount FROM orders o "
                  "JOIN zips z ON o.zip = z.zip WHERE z.region = '{region}' "
                  "AND o.amount >= {lo} AND o.amount < {hi}"),
    "fact2": ("SELECT z.region, COUNT(*) AS n, SUM(o.amount) AS s, MAX(o.amount) AS hi "
              "FROM orders o JOIN zips z ON o.zip = z.zip "
              "WHERE o.amount >= {lo} AND o.amount < {hi} "
              "GROUP BY region ORDER BY region"),
    "fact3": ("SELECT r.country, COUNT(*) AS n, COUNT(DISTINCT o.city) AS d, "
              "MIN(o.amount) AS lo, MAX(z.pop) AS hi, SUM(o.amount) AS s "
              "FROM orders o, zips z, regions r "
              "WHERE o.zip = z.zip AND z.region = r.region "
              "AND o.amount >= {lo} AND o.amount < {hi} "
              "GROUP BY r.country ORDER BY country"),
    "enum3": ("SELECT r.country, COUNT(*) AS n, SUM(o.price) AS p "
              "FROM orders o, zips z, regions r "
              "WHERE o.zip = z.zip AND z.region = r.region "
              "AND o.amount >= {lo} AND o.amount < {hi} "
              "GROUP BY r.country ORDER BY country"),
    "row": ("SELECT cc, city, COUNT(*) AS n FROM customer "
            "WHERE cc = '01' OR city = '{city}' GROUP BY cc, city ORDER BY cc, city"),
}

_UK_CITIES = ["edi", "ldn", "gla", "abd", "dun"]
_US_CITIES = ["mh", "nyc", "chi", "sfo", "bos"]
_STREET_WORDS = ["main", "high", "mayfield", "crichton", "mountain", "oak", "elm",
                 "church", "mill", "park", "station", "bridge", "north", "south"]
_FIRST = ["mike", "rick", "joe", "mary", "anna", "bob", "sue", "tom", "jane", "li"]
_LAST = ["smith", "brady", "luth", "doe", "jones", "brown", "davis", "clark",
         "lewis", "walker"]
_GENRES = ["rock", "jazz", "classical", "pop", "folk"]
_WORDS = ["winter", "river", "shadow", "light", "garden", "stone", "echo", "silver",
          "journey", "harbor", "meadow", "ember", "willow", "summit", "quiet"]


class CustomerWorld:
    """Consistent (cc, ac, city, zip, street) locations plus a noise model.

    Clean tuples satisfy :data:`CANONICAL_CFDS` by construction; noise
    replaces a street or city cell by another value of that attribute's
    domain, which is what makes the CFDs fire.
    """

    def __init__(self, rng: random.Random, locations: int = 60) -> None:
        self.locations = [("01", "908", "mh", "07974", "mountain ave"),
                          ("44", "131", "edi", "EH8 9AB", "mayfield road")]
        while len(self.locations) < locations:
            index = len(self.locations)
            street = (f"{rng.choice(_STREET_WORDS)} "
                      f"{rng.choice(['st', 'ave', 'road', 'lane'])} {index}")
            if index % 2 == 0:
                self.locations.append(("01", str(200 + index),
                                       _US_CITIES[index % 5],
                                       str(10000 + index * 7), street))
            else:
                self.locations.append(("44", str(100 + index),
                                       _UK_CITIES[index % 5],
                                       f"EH{index} {index % 9}XY", street))
        self.streets = sorted({loc[4] for loc in self.locations})
        self.cities = sorted({loc[2] for loc in self.locations})
        self._by_zip = {loc[3]: loc for loc in self.locations}
        self._phone = 5550000

    def truth(self, row: list) -> dict[str, str]:
        """The clean street and city of a customer row (noise never touches zip)."""
        location = self._by_zip[row[6]]
        return {"street": location[4], "city": location[2]}

    def rows(self, rng: random.Random, count: int, noise: float) -> list[list]:
        """*count* customer rows; each street/city cell is dirtied with p=*noise*."""
        rows = []
        for _ in range(count):
            cc, ac, city, zip_code, street = rng.choice(self.locations)
            if rng.random() < noise:
                street = rng.choice([s for s in self.streets if s != street])
            if rng.random() < noise:
                city = rng.choice([c for c in self.cities if c != city])
            self._phone += 1
            rows.append([cc, ac, str(self._phone),
                         f"{rng.choice(_FIRST)} {rng.choice(_LAST)}",
                         street, city, zip_code])
        return rows


def cd_book_rows(rng: random.Random, cd_count: int,
                 violation_rate: float = 0.05) -> tuple[list[list], list[list]]:
    """(cd rows, book rows): 40% audio books, *violation_rate* of them unmatched."""
    catalog = [f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {i}" for i in range(200)]
    cds: list[list] = []
    books: list[list] = []
    for index in range(cd_count):
        title = f"{rng.choice(catalog)} #{index}"
        price = str(rng.randrange(5, 40))
        if rng.random() >= 0.4:
            cds.append([title, price, rng.choice(_GENRES)])
            continue
        cds.append([title, price, "a-book"])
        if rng.random() < violation_rate:
            if rng.random() < 0.5:
                books.append([title, price, "hardcover"])
            continue
        books.append([title, price, "audio"])
    for _ in range(cd_count // 4):
        books.append([rng.choice(catalog), str(rng.randrange(5, 40)),
                      rng.choice(["paperback", "hardcover"])])
    return cds, books


def star_rows(rng: random.Random, orders: int) -> dict[str, list[list]]:
    """An orders ⋈ zips ⋈ regions star: orders, orders/4 zips, orders/16 regions.

    Key domains grow with the size (about two to three partners per key on each
    join edge), so the join fan-out stays bounded as the tables grow.
    """
    zip_domain = max(8, orders // 100)
    region_domain = max(4, orders // 400)
    order_rows = [[f"city_{rng.randrange(25)}",
                   f"zip_{rng.randrange(zip_domain)}",
                   rng.randrange(1000),
                   round(rng.uniform(1.0, 100.0), 2)] for _ in range(orders)]
    zip_rows = [[f"zip_{rng.randrange(zip_domain + zip_domain // 4)}",
                 f"region_{rng.randrange(region_domain)}",
                 rng.randrange(10_000)] for _ in range(orders // 4)]
    region_rows = [[f"region_{rng.randrange(region_domain + region_domain // 4)}",
                    f"country_{rng.randrange(6)}"] for _ in range(orders // 16)]
    return {"orders": order_rows, "zips": zip_rows, "regions": region_rows}
