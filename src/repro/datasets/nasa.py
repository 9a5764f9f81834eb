"""A NASA-like astronomical metadata dataset (the paper's second corpus).

The paper's second dataset was produced by the IBM XML generator from
the real ``nasa.dtd`` (the ADC/GSFC astronomical data-center markup),
then thinned: "It has a broader, deeper and less regular structure than
the Xmark data.  It also has more references.  To make the index size
smaller and more manageable, we delete 12 of its original 20
references."  This module embeds a ``nasa.dtd``-style subset capturing
those distributional properties — deep nesting (dataset → reference →
source → other → author → …), many optional/choice particles
(irregularity), a broad label vocabulary and **eight** retained
reference kinds — and generates documents with the same DTD-driven
random generator.
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

#: NASA ADC dtd subset (spellings follow the real nasa.dtd where it has
#: the element; the deep reference/source/other chain is preserved).
NASA_DTD = """
<!ELEMENT datasets (dataset+)>

<!ELEMENT dataset (title, altname*, reference*, keywords?, descriptions?,
                   identifier, author+, journal?, history?, tableHead?,
                   definitions?, footnote*, para*)>
<!ATTLIST dataset subject CDATA #REQUIRED ID ID #REQUIRED>

<!ELEMENT title (#PCDATA)>
<!ELEMENT altname (#PCDATA)>
<!ELEMENT identifier (#PCDATA)>

<!ELEMENT keywords (keyword+)>
<!ELEMENT keyword (#PCDATA)>
<!ATTLIST keyword principal IDREF #IMPLIED>

<!ELEMENT descriptions (description+)>
<!ELEMENT description (para+, details?)>
<!ELEMENT details (para+, details?)>
<!ELEMENT para (#PCDATA)>

<!ELEMENT author (initial?, lastName, affiliation?)>
<!ATTLIST author AuthorID ID #IMPLIED>
<!ELEMENT initial (#PCDATA)>
<!ELEMENT lastName (#PCDATA)>
<!ELEMENT affiliation (#PCDATA)>

<!ELEMENT journal (title, author*, date?, publisher?)>
<!ELEMENT date (year, month?, day?)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT month (#PCDATA)>
<!ELEMENT day (#PCDATA)>
<!ELEMENT publisher (name, place?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT place (#PCDATA)>

<!ELEMENT history (creationDate, revisions?, ingest?)>
<!ELEMENT creationDate (date)>
<!ELEMENT revisions (revision+)>
<!ELEMENT revision (date, author, para*)>
<!ATTLIST revision basedOn IDREF #IMPLIED checkedBy IDREF #IMPLIED>
<!ELEMENT ingest (date, creator?)>
<!ELEMENT creator (author)>

<!ELEMENT reference (source, (para | footnote)*)>
<!ATTLIST reference cites IDREF #IMPLIED>
<!ELEMENT source (journal | book | other)>
<!ELEMENT book (title, author+, publisher?, date?)>
<!ELEMENT other (title, author*, date?, note?)>
<!ELEMENT note (para+)>

<!ELEMENT tableHead (tableLinks?, fields?)>
<!ELEMENT tableLinks (tableLink+)>
<!ELEMENT tableLink EMPTY>
<!ATTLIST tableLink toTable IDREF #REQUIRED>
<!ELEMENT fields (field+)>
<!ELEMENT field (name, definition?, units?)>
<!ATTLIST field relatedTo IDREF #IMPLIED>
<!ELEMENT definition (#PCDATA)>
<!ELEMENT units (#PCDATA)>

<!ELEMENT definitions (definitionRef*)>
<!ELEMENT definitionRef EMPTY>
<!ATTLIST definitionRef dataset IDREF #REQUIRED>

<!ELEMENT footnote (para+)>
"""

#: The eight retained reference kinds (the paper kept 8 of 20).
NASA_REF_TARGETS = {
    ("keyword", "principal"): "dataset",
    ("revision", "basedOn"): "dataset",
    ("revision", "checkedBy"): "author",
    ("reference", "cites"): "dataset",
    ("tableLink", "toTable"): "dataset",
    ("field", "relatedTo"): "field",
    ("definitionRef", "dataset"): "dataset",
    ("dataset", "parent"): "dataset",  # wired manually (no attr in subset)
}


def generate_nasa(
    scale: float = 1.0,
    seed: int = 0,
    keep_values: bool = True,
) -> GeneratedDocument:
    """Generate a NASA-like data graph.

    Args:
        scale: linear size factor; ``scale=1.0`` yields roughly 30-40k
            nodes (the stand-in for the paper's ~15 MB file).
        seed: RNG seed.
        keep_values: include VALUE leaf nodes.

    Raises:
        DatasetError: on a scale that is not a positive finite number.

    Example:
        >>> doc = generate_nasa(scale=0.05, seed=3)
        >>> doc.graph.num_nodes > 500
        True
        >>> doc.num_reference_edges > 0
        True
    """
    check_scale(scale)
    rng = random.Random(seed)

    def span(base_lo: int, base_hi: int) -> tuple[int, int]:
        lo = max(0, round(base_lo * scale))
        hi = max(lo + 1, round(base_hi * scale))
        return (lo, hi)

    config = DTDGeneratorConfig(
        max_depth=24,
        optional_prob=0.55,
        star_mean=1.8,
        max_repeat=max(6, int(40 * scale)),
        keep_values=keep_values,
        fanout={
            "dataset": span(220, 260),
            "reference": (0, 4),
            "author": (1, 3),
            "keyword": (1, 5),
            "revision": (0, 3),
            "para": (1, 3),
            "field": (0, 5),
            "tableLink": (0, 2),
            "definitionRef": (0, 3),
            "altname": (0, 2),
            "footnote": (0, 2),
            "description": (1, 2),
        },
    )
    generator = RandomDocumentGenerator(
        parse_dtd(NASA_DTD),
        config=config,
        ref_targets=NASA_REF_TARGETS,
        ref_prob=0.7,
    )
    document = generator.generate("datasets", rng)

    # The eighth reference kind: dataset -> dataset "parent" links, wired
    # manually because the DTD subset carries no attribute for it.
    pool = document.id_pools.get("dataset", [])
    graph = document.graph
    extra = 0
    if len(pool) >= 2:
        for node in pool:
            if rng.random() < 0.25:
                target = rng.choice(pool)
                if target != node and graph.add_edge_if_absent(node, target):
                    extra += 1
    if extra:
        document.num_reference_edges += extra
        if ("dataset", "dataset") not in document.reference_pairs:
            document.reference_pairs.append(("dataset", "dataset"))
            document.reference_pairs.sort()
    return document
