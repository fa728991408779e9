"""Seeded inputs for the benchmark workloads.

Each workload is a space file (a JSON ball tree, as `ultraheat.space.load_space`
reads it) and a run config that points at it.  Everything is drawn here, from
the benchmark's own generator, so the program under test receives only the two
files.  The same (workload, seed, scale) always gives the same bytes.

`scale` shrinks a workload for the self-test; the benchmark proper uses 1.
"""

import json
import random
from pathlib import Path

# The canonical example, `configs/s4.json` at the commit that added the
# benchmark, with its inline tree moved to the space file.  It is copied
# rather than read so that later edits to the shipped configs do not change
# what this workload measures.
S4_TREE = {"radius": 2, "children": [
    {"radius": 1, "children": [{"id": "a", "mass": 1}, {"id": "b", "mass": 1}]},
    {"radius": 1, "children": [{"id": "c", "mass": 1}, {"id": "d", "mass": 1}]},
]}
S4_CONFIG = {
    "kernel": {"isotropic": {"kind": "power", "exponent": 3.0, "scale": 1.0},
               "scaling": "none"},
    "exponents": {"alpha": 1.0, "beta": 2.0, "R0": 2.0},
    "time_grid": {"min": 1e-3, "max": 1.0, "points": 17, "scale": "log"},
    "checks": ["ultrametric", "form", "semigroup", "vanishing", "perturbation",
               "power", "lp_derivative", "moser", "supbound", "ode", "nash", "due",
               "wue", "energy_diff", "p8", "tail", "theorem1"],
    "seed": 7,
}

POWER3_MASS = {"isotropic": {"kind": "power", "exponent": 3.0, "scale": 1.0},
               "scaling": "mass"}

# The random workload's tree shape is drawn from this fixed seed; `--seed`
# draws its masses and the program's seed.  The cost of the pair batteries
# grows with the number of balls, so a shape drawn per seed would spread the
# run time across seeds by far more than any bound could tolerate.
RANDOM_SHAPE_SEED = 20191224
RANDOM_LEVELS = 6

WORKLOADS = ("s4-all", "dyadic512-cert", "random192-pairs")
SELFTEST_SCALE = 4  # the self-test divides the problem size by this

WHY = {
    "s4-all": "the paper's 4-point example with all 17 checks; davies norms "
              "(moser, lp_norm) dominate",
    "dyadic512-cert": "n=512 dyadic off-diagonal certificate; dense semigroup "
                      "densities and the bounds chaining loops dominate",
    "random192-pairs": "irregular n=192 tree with the pair-energy batteries; form "
                       "pair sums and the large report.json write dominate",
}


def _masses(rng: random.Random, count: int) -> list:
    return [rng.uniform(0.5, 2.0) for _ in range(count)]


def dyadic_tree(depth: int, masses: list) -> dict:
    """Full binary tree; a node at height h has radius 2^(h-1)."""
    leaves = iter(enumerate(masses))

    def node(height):
        if height == 0:
            i, m = next(leaves)
            return {"id": f"p{i}", "mass": m}
        return {"radius": 2.0 ** (height - 1),
                "children": [node(height - 1), node(height - 1)]}

    return node(depth)


def random_tree(shape_rng: random.Random, n: int, levels: int, masses: list) -> dict:
    """Irregular tree on exactly `n` points with `levels` radius levels.

    A node at height h (radius 2^(h-1)) splits its points into 2 to 4 groups
    of random sizes; a group of one point becomes a leaf at once, and at
    height 1 every point is a leaf.
    """
    leaves = iter(enumerate(masses))

    def leaf():
        i, m = next(leaves)
        return {"id": f"p{i}", "mass": m}

    def node(height, size):
        if size == 1:
            return leaf()
        if height == 1:
            return {"radius": 1.0, "children": [leaf() for _ in range(size)]}
        parts = min(shape_rng.randint(2, 4), size)
        cuts = sorted(shape_rng.sample(range(1, size), parts - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        return {"radius": 2.0 ** (height - 1),
                "children": [node(height - 1, s) for s in sizes]}

    return node(levels, n)


def make_inputs(workload: str, seed: int, out_dir: Path, scale: int = 1) -> Path:
    """Write the space file and config of `workload` into `out_dir`; return
    the config path.  `scale` > 1 divides the problem size (self-test)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "s4-all":
        tree, cfg = S4_TREE, dict(S4_CONFIG)
    elif workload == "dyadic512-cert":
        depth = 9 - (scale.bit_length() - 1)
        tree = dyadic_tree(depth, _masses(rng, 2 ** depth))
        cfg = {"kernel": POWER3_MASS,
               "exponents": {"alpha": 1.0, "beta": 1.5},
               "time_grid": {"min": 1e-3, "max": 1.0, "points": 17, "scale": "log"},
               "checks": ["ultrametric", "due", "wue", "tail", "theorem1"],
               "seed": seed}
    elif workload == "random192-pairs":
        n = 192 // scale
        tree = random_tree(random.Random(RANDOM_SHAPE_SEED), n, RANDOM_LEVELS, _masses(rng, n))
        cfg = {"kernel": POWER3_MASS,
               "exponents": {"alpha": 1.0, "beta": 1.5},
               "time_grid": {"min": 1e-3, "max": 1.0, "points": 17, "scale": "log"},
               "checks": ["form", "perturbation", "power", "energy_diff", "p8"],
               "seed": seed}
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    space_path = out_dir / "space.json"
    space_path.write_text(json.dumps(tree, indent=1) + "\n", encoding="utf-8")
    cfg["space"] = {"file": str(space_path.resolve())}
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return cfg_path
