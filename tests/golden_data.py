"""Frozen golden data shared across the test suite.

The order-3 lists are parallel: the i-th matrix, monotone triangle, plane
partition, magog triangle, and boolean triangle all encode the same object
under the package's bijections.  GOLDEN is the order-6 worked example: one
permutation with every encoding spelled out.
"""

ASMS_3 = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 1, 0), (1, -1, 1), (0, 1, 0)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
]

MONOTONE_3 = [
    ((1,), (1, 2), (1, 2, 3)),
    ((1,), (1, 3), (1, 2, 3)),
    ((2,), (1, 2), (1, 2, 3)),
    ((2,), (1, 3), (1, 2, 3)),
    ((2,), (2, 3), (1, 2, 3)),
    ((3,), (1, 3), (1, 2, 3)),
    ((3,), (2, 3), (1, 2, 3)),
]

# zero-completed 6x6 arrays, same order as the magog/boolean lists below
TSSCPP_3 = [
    (
        (6, 6, 6, 3, 3, 3),
        (6, 6, 6, 3, 3, 3),
        (6, 6, 6, 3, 3, 3),
        (3, 3, 3, 0, 0, 0),
        (3, 3, 3, 0, 0, 0),
        (3, 3, 3, 0, 0, 0),
    ),
    (
        (6, 6, 6, 4, 3, 3),
        (6, 6, 6, 3, 3, 3),
        (6, 6, 5, 3, 3, 2),
        (4, 3, 3, 1, 0, 0),
        (3, 3, 3, 0, 0, 0),
        (3, 3, 2, 0, 0, 0),
    ),
    (
        (6, 6, 6, 5, 4, 3),
        (6, 6, 5, 3, 3, 2),
        (6, 5, 5, 3, 3, 1),
        (5, 3, 3, 1, 1, 0),
        (4, 3, 3, 1, 0, 0),
        (3, 2, 1, 0, 0, 0),
    ),
    (
        (6, 6, 6, 5, 4, 3),
        (6, 6, 5, 4, 3, 2),
        (6, 5, 4, 3, 2, 1),
        (5, 4, 3, 2, 1, 0),
        (4, 3, 2, 1, 0, 0),
        (3, 2, 1, 0, 0, 0),
    ),
    (
        (6, 6, 6, 4, 3, 3),
        (6, 6, 6, 4, 3, 3),
        (6, 6, 4, 3, 2, 2),
        (4, 4, 3, 2, 0, 0),
        (3, 3, 2, 0, 0, 0),
        (3, 3, 2, 0, 0, 0),
    ),
    (
        (6, 6, 6, 5, 5, 3),
        (6, 5, 5, 3, 3, 1),
        (6, 5, 5, 3, 3, 1),
        (5, 3, 3, 1, 1, 0),
        (5, 3, 3, 1, 1, 0),
        (3, 1, 1, 0, 0, 0),
    ),
    (
        (6, 6, 6, 5, 5, 3),
        (6, 5, 5, 4, 3, 1),
        (6, 5, 4, 3, 2, 1),
        (5, 4, 3, 2, 1, 0),
        (5, 3, 2, 1, 1, 0),
        (3, 1, 1, 0, 0, 0),
    ),
]

MAGOG_3 = [
    ((1,), (1, 2), (1, 2, 3)),
    ((2,), (1, 2), (1, 2, 3)),
    ((2,), (1, 3), (1, 2, 3)),
    ((3,), (1, 3), (1, 2, 3)),
    ((3,), (1, 2), (1, 2, 3)),
    ((2,), (2, 3), (1, 2, 3)),
    ((3,), (2, 3), (1, 2, 3)),
]

BOOLEAN_3 = [
    ((1,), (1, 1)),
    ((1,), (1, 0)),
    ((0,), (1, 1)),
    ((0,), (0, 1)),
    ((1,), (0, 0)),
    ((0,), (1, 0)),
    ((0,), (0, 0)),
]

# position of the sole non-permutation object in the order-3 lists
NON_PERMUTATION_INDEX = 3

# one-line permutations paired to ASMS_3 / MONOTONE_3 order
PERMS_3 = ["123", "132", "213", None, "231", "312", "321"]

# fundamental domains of TSSCPP_3, rows (t44,t45,t46),(t55,t56),(t66)
DOMAINS_3 = [
    ((0, 0, 0), (0, 0), (0,)),
    ((1, 0, 0), (0, 0), (0,)),
    ((1, 1, 0), (0, 0), (0,)),
    ((2, 1, 0), (0, 0), (0,)),
    ((2, 0, 0), (0, 0), (0,)),
    ((1, 1, 0), (1, 0), (0,)),
    ((2, 1, 0), (1, 0), (0,)),
]

GOLDEN = {
    "one_line": "463512",
    "inversions": 11,
    "matrix": (
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
    ),
    "monotone": ((4,), (4, 6), (3, 4, 6), (3, 4, 5, 6), (1, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)),
    "boolean": ((1,), (0, 0), (1, 1, 0), (0, 0, 0, 0), (1, 0, 0, 0, 0)),
    "last_row_zeros": 4,
    "lowest_one_last_diagonal": 1,
    "tsscpp": (
        (12, 12, 12, 12, 12, 12, 10, 10, 10, 10, 6, 6),
        (12, 12, 12, 12, 12, 12, 10, 9, 9, 7, 6, 6),
        (12, 12, 11, 11, 11, 10, 8, 8, 6, 6, 5, 2),
        (12, 12, 11, 10, 10, 10, 8, 8, 6, 6, 3, 2),
        (12, 12, 11, 10, 8, 8, 6, 6, 4, 4, 3, 2),
        (12, 12, 10, 10, 8, 8, 6, 6, 4, 4, 2, 2),
        (10, 10, 8, 8, 6, 6, 4, 4, 2, 2, 0, 0),
        (10, 9, 8, 8, 6, 6, 4, 4, 2, 1, 0, 0),
        (10, 9, 6, 6, 4, 4, 2, 2, 2, 1, 0, 0),
        (10, 7, 6, 6, 4, 4, 2, 1, 1, 1, 0, 0),
        (6, 6, 5, 3, 3, 2, 0, 0, 0, 0, 0, 0),
        (6, 6, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0),
    ),
}

# Hasse diagrams of the three order-3 posets, as cover pairs on short labels
A3_COVERS = {
    ("1;1,2;1,2,3", "1;1,3;1,2,3"),
    ("1;1,2;1,2,3", "2;1,2;1,2,3"),
    ("1;1,3;1,2,3", "2;1,3;1,2,3"),
    ("2;1,2;1,2,3", "2;1,3;1,2,3"),
    ("2;1,3;1,2,3", "2;2,3;1,2,3"),
    ("2;1,3;1,2,3", "3;1,3;1,2,3"),
    ("2;2,3;1,2,3", "3;2,3;1,2,3"),
    ("3;1,3;1,2,3", "3;2,3;1,2,3"),
}

T3_COVERS = {
    ("1;1,2;1,2,3", "2;1,2;1,2,3"),
    ("2;1,2;1,2,3", "2;1,3;1,2,3"),
    ("2;1,2;1,2,3", "3;1,2;1,2,3"),
    ("2;1,3;1,2,3", "2;2,3;1,2,3"),
    ("2;1,3;1,2,3", "3;1,3;1,2,3"),
    ("3;1,2;1,2,3", "3;1,3;1,2,3"),
    ("2;2,3;1,2,3", "3;2,3;1,2,3"),
    ("3;1,3;1,2,3", "3;2,3;1,2,3"),
}

TBOOL3_COVERS = {
    ("1;1,1", "1;1,0"),
    ("1;1,1", "0;1,1"),
    ("1;1,0", "1;0,0"),
    ("1;1,0", "0;1,0"),
    ("0;1,1", "0;0,1"),
    ("0;1,1", "0;1,0"),
    ("1;0,0", "0;0,0"),
    ("0;1,0", "0;0,0"),
    ("0;0,1", "0;0,0"),
}

# an equivalent mirror labelling of the magog permutation order (the image
# under inversion); tests compare shapes only
T3PERM_MIRROR_COVERS = {
    ("123", "132"),
    ("132", "213"),
    ("132", "312"),
    ("213", "231"),
    ("231", "321"),
    ("312", "321"),
}

TAM3_COVERS = {
    ("333", "323"),
    ("333", "133"),
    ("323", "223"),
    ("223", "123"),
    ("133", "123"),
}

CAT3_COVERS = {
    ("333", "233"),
    ("233", "223"),
    ("233", "133"),
    ("223", "123"),
    ("133", "123"),
}

STRONG3_COVERS = {
    ("123", "132"),
    ("123", "213"),
    ("132", "231"),
    ("132", "312"),
    ("213", "231"),
    ("213", "312"),
    ("231", "321"),
    ("312", "321"),
}


def short_triangle(rows):
    return ";".join(",".join(str(v) for v in row) for row in rows)


# json.dumps(claims.run_claim(claim, n)) from the dense decision procedures
# (ideal lattices, isomorphism search, cover matrices, full lattice
# reports), for every claim and n = 1..6 at which they pass; thm4.2 and
# thm4.6 stopped at a size cap at n = 6.
CLAIM_RESULTS = {
    ('thm4.2', 1): '{"claim": "thm4.2", "n": 1, "ok": true, "size": 1, "ideal_count": 1}',
    ('thm4.2', 2): '{"claim": "thm4.2", "n": 2, "ok": true, "size": 2, "ideal_count": 2}',
    ('thm4.2', 3): '{"claim": "thm4.2", "n": 3, "ok": true, "size": 7, "ideal_count": 7}',
    ('thm4.2', 4): '{"claim": "thm4.2", "n": 4, "ok": true, "size": 42, "ideal_count": 42}',
    ('thm4.2', 5): '{"claim": "thm4.2", "n": 5, "ok": true, "size": 429, "ideal_count": 429}',
    ('thm4.4', 1): '{"claim": "thm4.4", "n": 1, "ok": true, "size": 1}',
    ('thm4.4', 2): '{"claim": "thm4.4", "n": 2, "ok": true, "size": 2}',
    ('thm4.4', 3): '{"claim": "thm4.4", "n": 3, "ok": true, "size": 6}',
    ('thm4.4', 4): '{"claim": "thm4.4", "n": 4, "ok": true, "size": 24}',
    ('thm4.4', 5): '{"claim": "thm4.4", "n": 5, "ok": true, "size": 120}',
    ('thm4.4', 6): '{"claim": "thm4.4", "n": 6, "ok": true, "size": 720}',
    ('thm4.6', 1): '{"claim": "thm4.6", "n": 1, "ok": true, "size": 1, "ideal_count": 1}',
    ('thm4.6', 2): '{"claim": "thm4.6", "n": 2, "ok": true, "size": 2, "ideal_count": 2}',
    ('thm4.6', 3): '{"claim": "thm4.6", "n": 3, "ok": true, "size": 7, "ideal_count": 7}',
    ('thm4.6', 4): '{"claim": "thm4.6", "n": 4, "ok": true, "size": 42, "ideal_count": 42}',
    ('thm4.6', 5): '{"claim": "thm4.6", "n": 5, "ok": true, "size": 429, "ideal_count": 429}',
    ('thm4.9', 1): '{"claim": "thm4.9", "n": 1, "ok": true, "size": 1}',
    ('thm4.9', 2): '{"claim": "thm4.9", "n": 2, "ok": true, "size": 2}',
    ('thm4.9', 3): '{"claim": "thm4.9", "n": 3, "ok": true, "size": 5}',
    ('thm4.9', 4): '{"claim": "thm4.9", "n": 4, "ok": true, "size": 14}',
    ('thm4.9', 5): '{"claim": "thm4.9", "n": 5, "ok": true, "size": 42}',
    ('thm4.9', 6): '{"claim": "thm4.9", "n": 6, "ok": true, "size": 132}',
    ('thm4.12', 1): '{"claim": "thm4.12", "n": 1, "ok": true, "size": 1}',
    ('thm4.12', 2): '{"claim": "thm4.12", "n": 2, "ok": true, "size": 2}',
    ('thm4.12', 3): '{"claim": "thm4.12", "n": 3, "ok": true, "size": 5}',
    ('thm4.12', 4): '{"claim": "thm4.12", "n": 4, "ok": true, "size": 14}',
    ('thm4.12', 5): '{"claim": "thm4.12", "n": 5, "ok": true, "size": 42}',
    ('thm4.12', 6): '{"claim": "thm4.12", "n": 6, "ok": true, "size": 132}',
    ('cor4.16', 1): '{"claim": "cor4.16", "n": 1, "ok": true, "weak_relation_missing": null, "strong_relation_missing": null, "product_of_chains": true}',
    ('cor4.16', 2): '{"claim": "cor4.16", "n": 2, "ok": true, "weak_relation_missing": null, "strong_relation_missing": null, "product_of_chains": true}',
    ('cor4.16', 3): '{"claim": "cor4.16", "n": 3, "ok": true, "weak_relation_missing": null, "strong_relation_missing": null, "product_of_chains": true}',
    ('cor4.16', 4): '{"claim": "cor4.16", "n": 4, "ok": true, "weak_relation_missing": null, "strong_relation_missing": null, "product_of_chains": true}',
    ('cor4.16', 5): '{"claim": "cor4.16", "n": 5, "ok": true, "weak_relation_missing": null, "strong_relation_missing": null, "product_of_chains": true}',
    ('cor4.16', 6): '{"claim": "cor4.16", "n": 6, "ok": true, "weak_relation_missing": null, "strong_relation_missing": null, "product_of_chains": true}',
    ('cor4.17', 1): '{"claim": "cor4.17", "n": 1, "ok": true, "tamari": true, "catalan": true}',
    ('cor4.17', 2): '{"claim": "cor4.17", "n": 2, "ok": true, "tamari": true, "catalan": true}',
    ('cor4.17', 3): '{"claim": "cor4.17", "n": 3, "ok": true, "tamari": true, "catalan": true}',
    ('cor4.17', 4): '{"claim": "cor4.17", "n": 4, "ok": true, "tamari": true, "catalan": true}',
    ('cor4.17', 5): '{"claim": "cor4.17", "n": 5, "ok": true, "tamari": true, "catalan": true}',
    ('cor4.17', 6): '{"claim": "cor4.17", "n": 6, "ok": true, "tamari": true, "catalan": true}',
    ('lemma4.8', 1): '{"claim": "lemma4.8", "n": 1, "ok": true, "cover_count": 0, "witness": null}',
    ('lemma4.8', 2): '{"claim": "lemma4.8", "n": 2, "ok": true, "cover_count": 1, "witness": null}',
    ('lemma4.8', 3): '{"claim": "lemma4.8", "n": 3, "ok": true, "cover_count": 8, "witness": null}',
    ('lemma4.8', 4): '{"claim": "lemma4.8", "n": 4, "ok": true, "cover_count": 84, "witness": null}',
    ('lemma4.8', 5): '{"claim": "lemma4.8", "n": 5, "ok": true, "cover_count": 1323, "witness": null}',
    ('lemma4.8', 6): '{"claim": "lemma4.8", "n": 6, "ok": true, "cover_count": 32683, "witness": null}',
    ('prop-nonlattice', 1): '{"claim": "prop-nonlattice", "n": 1, "ok": true, "expected_lattice": true, "is_lattice": {"magog_permutation_order": true, "boolean_order": true}, "witnesses": {}}',
    ('prop-nonlattice', 2): '{"claim": "prop-nonlattice", "n": 2, "ok": true, "expected_lattice": true, "is_lattice": {"magog_permutation_order": true, "boolean_order": true}, "witnesses": {}}',
    ('prop-nonlattice', 3): '{"claim": "prop-nonlattice", "n": 3, "ok": true, "expected_lattice": true, "is_lattice": {"magog_permutation_order": true, "boolean_order": true}, "witnesses": {}}',
    ('prop-nonlattice', 4): '{"claim": "prop-nonlattice", "n": 4, "ok": true, "expected_lattice": false, "is_lattice": {"magog_permutation_order": false, "boolean_order": false}, "witnesses": {"magog_permutation_order": ["meet", "1432", "2314"], "boolean_order": ["meet", "{\\"kind\\":\\"boolean_triangle\\",\\"n\\":4,\\"rows\\":[[0],[0,0],[0,0,1]]}", "{\\"kind\\":\\"boolean_triangle\\",\\"n\\":4,\\"rows\\":[[0],[0,1],[0,0,0]]}"]}}',
    ('prop-nonlattice', 5): '{"claim": "prop-nonlattice", "n": 5, "ok": true, "expected_lattice": false, "is_lattice": {"magog_permutation_order": false, "boolean_order": false}, "witnesses": {"magog_permutation_order": ["meet", "12543", "13425"], "boolean_order": ["meet", "{\\"kind\\":\\"boolean_triangle\\",\\"n\\":5,\\"rows\\":[[0],[0,0],[0,0,0],[0,0,0,1]]}", "{\\"kind\\":\\"boolean_triangle\\",\\"n\\":5,\\"rows\\":[[0],[0,0],[0,0,1],[0,0,0,0]]}"]}}',
    ('prop-nonlattice', 6): '{"claim": "prop-nonlattice", "n": 6, "ok": true, "expected_lattice": false, "is_lattice": {"magog_permutation_order": false, "boolean_order": false}, "witnesses": {"magog_permutation_order": ["meet", "123654", "124536"], "boolean_order": ["meet", "{\\"kind\\":\\"boolean_triangle\\",\\"n\\":6,\\"rows\\":[[0],[0,0],[0,0,0],[0,0,0,0],[0,0,0,0,1]]}", "{\\"kind\\":\\"boolean_triangle\\",\\"n\\":6,\\"rows\\":[[0],[0,0],[0,0,0],[0,0,0,1],[0,0,0,0,0]]}"]}}',
}
