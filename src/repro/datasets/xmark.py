"""An XMark-like auction-site dataset (the paper's first corpus).

The XMark benchmark models an internet auction site: a ``site`` with
regional ``item`` listings, registered ``person``s, ``open_auction``s
with bid histories, ``closed_auction``s and a category taxonomy, plus a
web of ID/IDREF references (sellers, buyers, bid items, watched
auctions, category memberships and the category graph).  The paper used
the official generator at ~10 MB; this module embeds a faithful DTD
subset and generates documents of configurable scale through
:mod:`repro.datasets.dtd`, preserving the properties the experiments
depend on: a *regular*, moderately deep element hierarchy with typed
reference edges.
"""

from __future__ import annotations

import random

from repro.datasets.dtd import (
    DTDGeneratorConfig,
    GeneratedDocument,
    RandomDocumentGenerator,
    check_scale,
    parse_dtd,
)

#: XMark DTD subset (element spellings follow the official benchmark).
XMARK_DTD = """
<!ELEMENT site (regions, categories, catgraph, people, open_auctions,
                closed_auctions)>

<!ELEMENT regions (africa, asia, australia, europe, namerica, samerica)>
<!ELEMENT africa (item*)>
<!ELEMENT asia (item*)>
<!ELEMENT australia (item*)>
<!ELEMENT europe (item*)>
<!ELEMENT namerica (item*)>
<!ELEMENT samerica (item*)>

<!ELEMENT item (location, quantity, name, payment, description, shipping,
                incategory+, mailbox)>
<!ATTLIST item id ID #REQUIRED>
<!ELEMENT location (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT shipping (#PCDATA)>
<!ELEMENT description (text | parlist)>
<!ELEMENT text (#PCDATA)>
<!ELEMENT parlist (listitem+)>
<!ELEMENT listitem (text | parlist)>
<!ELEMENT incategory EMPTY>
<!ATTLIST incategory category IDREF #REQUIRED>
<!ELEMENT mailbox (mail*)>
<!ELEMENT mail (from, to, date, text)>
<!ELEMENT from (#PCDATA)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT date (#PCDATA)>

<!ELEMENT categories (category+)>
<!ELEMENT category (name, description)>
<!ATTLIST category id ID #REQUIRED>
<!ELEMENT catgraph (edge*)>
<!ELEMENT edge EMPTY>
<!ATTLIST edge from IDREF #REQUIRED to IDREF #REQUIRED>

<!ELEMENT people (person*)>
<!ELEMENT person (name, emailaddress, phone?, address?, homepage?,
                  creditcard?, profile?, watches?)>
<!ATTLIST person id ID #REQUIRED>
<!ELEMENT emailaddress (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
<!ELEMENT address (street, city, country, zipcode)>
<!ELEMENT street (#PCDATA)>
<!ELEMENT city (#PCDATA)>
<!ELEMENT country (#PCDATA)>
<!ELEMENT zipcode (#PCDATA)>
<!ELEMENT homepage (#PCDATA)>
<!ELEMENT creditcard (#PCDATA)>
<!ELEMENT profile (interest*, education?, gender?, business, age?)>
<!ELEMENT interest EMPTY>
<!ATTLIST interest category IDREF #REQUIRED>
<!ELEMENT education (#PCDATA)>
<!ELEMENT gender (#PCDATA)>
<!ELEMENT business (#PCDATA)>
<!ELEMENT age (#PCDATA)>
<!ELEMENT watches (watch*)>
<!ELEMENT watch EMPTY>
<!ATTLIST watch open_auction IDREF #REQUIRED>

<!ELEMENT open_auctions (open_auction*)>
<!ELEMENT open_auction (initial, reserve?, bidder*, current, privacy?,
                        itemref, seller, annotation, quantity, type,
                        interval)>
<!ATTLIST open_auction id ID #REQUIRED>
<!ELEMENT initial (#PCDATA)>
<!ELEMENT reserve (#PCDATA)>
<!ELEMENT bidder (date, time, personref, increase)>
<!ELEMENT time (#PCDATA)>
<!ELEMENT personref EMPTY>
<!ATTLIST personref person IDREF #REQUIRED>
<!ELEMENT increase (#PCDATA)>
<!ELEMENT current (#PCDATA)>
<!ELEMENT privacy (#PCDATA)>
<!ELEMENT itemref EMPTY>
<!ATTLIST itemref item IDREF #REQUIRED>
<!ELEMENT seller EMPTY>
<!ATTLIST seller person IDREF #REQUIRED>
<!ELEMENT annotation (author, description?, happiness)>
<!ELEMENT author EMPTY>
<!ATTLIST author person IDREF #REQUIRED>
<!ELEMENT happiness (#PCDATA)>
<!ELEMENT type (#PCDATA)>
<!ELEMENT interval (start, end)>
<!ELEMENT start (#PCDATA)>
<!ELEMENT end (#PCDATA)>

<!ELEMENT closed_auctions (closed_auction*)>
<!ELEMENT closed_auction (seller, buyer, itemref, price, date, quantity,
                          type, annotation)>
<!ELEMENT buyer EMPTY>
<!ATTLIST buyer person IDREF #REQUIRED>
<!ELEMENT price (#PCDATA)>
"""

#: Which element type each IDREF attribute points at.
XMARK_REF_TARGETS = {
    ("incategory", "category"): "category",
    ("interest", "category"): "category",
    ("edge", "from"): "category",
    ("edge", "to"): "category",
    ("watch", "open_auction"): "open_auction",
    ("personref", "person"): "person",
    ("itemref", "item"): "item",
    ("seller", "person"): "person",
    ("buyer", "person"): "person",
    ("author", "person"): "person",
}


def generate_xmark(
    scale: float = 1.0,
    seed: int = 0,
    keep_values: bool = True,
) -> GeneratedDocument:
    """Generate an XMark-like data graph.

    Args:
        scale: linear size factor.  ``scale=1.0`` yields roughly 25-30k
            nodes (a laptop-friendly stand-in for the paper's ~10 MB
            document); 0.1 is handy for tests.
        seed: RNG seed (documents are fully reproducible).
        keep_values: include VALUE leaf nodes under text elements.

    Raises:
        DatasetError: on a scale that is not a positive finite number.

    Example:
        >>> doc = generate_xmark(scale=0.05, seed=7)
        >>> doc.graph.num_nodes > 500
        True
        >>> ("itemref", "item") in doc.reference_pairs
        True
    """
    check_scale(scale)
    rng = random.Random(seed)

    def span(base_lo: int, base_hi: int) -> tuple[int, int]:
        lo = max(0, round(base_lo * scale))
        hi = max(lo + 1, round(base_hi * scale))
        return (lo, hi)

    config = DTDGeneratorConfig(
        max_depth=18,
        optional_prob=0.6,
        star_mean=1.5,
        max_repeat=max(8, int(60 * scale)),
        keep_values=keep_values,
        fanout={
            # Six regions share the item population.
            "item": span(35, 55),
            "person": span(180, 240),
            "open_auction": span(100, 150),
            "closed_auction": span(80, 120),
            "category": span(25, 40),
            "edge": span(40, 70),
            "bidder": (0, 4),
            "watch": (0, 4),
            "interest": (0, 3),
            "incategory": (1, 3),
            "mail": (0, 2),
            "listitem": (1, 2),
        },
    )
    generator = RandomDocumentGenerator(
        parse_dtd(XMARK_DTD),
        config=config,
        ref_targets=XMARK_REF_TARGETS,
    )
    return generator.generate("site", rng)
