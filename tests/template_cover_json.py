"""Reference cover.json text for the tests: the per-set `%`-template writer
that `cli._cover_json`'s one word-array pass replaced, and the descriptor
text of each cover construction, made set by set from the construction's
own keys as the per-set closures that the descriptor data replaced made
it."""

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from visbound.spaces import branch_time

_COVER_SET = '{\n      "color": %s,\n      "descriptor": %s,\n      "members": %s\n    }'


def _json_list(items: list, indent: str) -> str:
    """The text `json.dumps(indent=2)` writes for a list whose items are
    already JSON text, the list's own line indented by `indent`."""
    if not items:
        return "[]"
    return f"[\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}]"


def template_cover_json(ground_text: list, sets: list) -> str:
    """cover.json of the ground texts and the sets given as (members,
    color, descriptor), one %-template per set."""
    ground = [encode_basestring_ascii(g) for g in ground_text]
    written = [_COVER_SET % ("null" if color is None else json.dumps(color),
                             encode_basestring_ascii(descriptor),
                             _json_list(list(map(str, members)), "      "))
               for members, color, descriptor in sets]
    return '{\n  "ground": %s,\n  "sets": %s\n}\n' % (_json_list(ground, "  "),
                                                       _json_list(written, "  "))


def cover_sets(cover, descriptors: list) -> list:
    """(members, color, descriptor) of each set of the cover, with the
    given descriptor texts."""
    bounds = cover.bounds.tolist()
    members = cover.point_of.tolist()
    return [(members[a:b], color, text)
            for color, a, b, text in zip(cover.colors, bounds, bounds[1:], descriptors)]


def pushout_descriptors(space, system, lam, boundary_sample: list) -> list:
    """The text of each set of `boundary_pushout_cover`: its center's key
    as a tuple."""
    if space.kind == "tree":
        points = space.pushout_points(lam, boundary_sample)
        keys = [tuple(key) for key in system.incidences(points)[0]]
    else:
        V = np.array([xi.direction for xi in boundary_sample], dtype=float)
        points = np.array(space.basepoint.coords) + (1.0 / float(lam)) * V
        keys = [tuple(row) for row in system.incidences(points)[0].tolist()]
    return [f"pushout lam={float(lam):g} center={key}" for key in keys]


def cylinder_descriptors(lam, boundary_sample: list) -> list:
    """The text of each set of the tree's colored cover: its cylinder's
    prefix word."""
    depth = max(1, math.ceil(math.log(4.0 / float(lam)) - 1e-9))
    words = sorted({tuple(xi.prefix(depth)) for xi in boundary_sample})
    return [f"cylinder depth={depth} word={word}" for word in words]


def arc_descriptors(lam) -> list:
    """The text of each set of the circle's colored cover of arcs."""
    theta = 4.0 * math.asin(min(1.0, float(lam) / 4.0))
    N = 2 * int(math.floor(math.pi / theta))
    spacing = 2 * math.pi / N
    half = 0.75 * spacing
    return [f"arc j={j} center={j * spacing:.6f} half={half:.6f}" for j in range(N)]


def pushin_descriptors(space, schedule, colored: dict, colored_texts: dict,
                       boundary_sample: list, interior) -> list:
    """The text of each set of `annular_pushin_cover`: the tube of each
    colored set U with members, by scale k and then by U, named by U's text
    in `colored_texts` (k -> a list), then the base ball.  A point at
    radius r on the ray toward i is in U's tube iff kR < r < (k+2)R and the
    ray toward some member j of U passes it: j = i or the branch time of i
    and j is at least r."""
    R, n = schedule.R, len(boundary_sample)
    B = [[None if i == j else branch_time(space, boundary_sample[i], boundary_sample[j])
          for j in range(n)] for i in range(n)]
    points = [(i, Fraction(num, interior.den))
              for i, num in zip(interior.ray.tolist(), interior.num.tolist())]
    out = []
    for k in range(1, schedule.K + 1):
        cover = colored[k]
        for s, text in enumerate(colored_texts[k]):
            members = cover.point_of[cover.set_of == s].tolist()
            if any(k * R < r < (k + 2) * R and any(j == i or B[i][j] >= r for j in members)
                   for i, r in points):
                out.append(f"tube k={k} of [{text}]")
    return out + [f"base ball radius={2 * R}"]
