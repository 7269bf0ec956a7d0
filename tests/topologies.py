"""Topology documents of the map-large shapes, shared by the tests and
`import_guard.py`; this module imports nothing, so the guard can load it
without loading scipy."""


def erlang_tree(stages: int, ttl_speed: float = 1.0) -> dict:
    """7-node binary tree: Poisson leaves with Erlang TTLs, R/Sigma/MinSigmaR above.

    The root has 2 * ((stages + 1) ** 2 * 2) ** 2 output states: 10,368 for
    Erlang-5 leaves. `ttl_speed` scales the leaf TTL rates; fast TTLs leave
    states of tiny stationary probability.
    """
    leaves = [("L1", "R", 4.0, 1.0), ("L2", "Sigma", 3.0, 2.0),
              ("L3", "Sigma", 5.0, 1.5), ("L4", "R", 2.0, 0.8)]
    nodes = [
        {"id": nid, "policy": policy,
         "ttl": {"erlang": {"stages": stages, "rate": stages * rate * ttl_speed}}}
        for nid, policy, rate, _ in leaves
    ]
    nodes += [
        {"id": "M1", "policy": "MinSigmaR", "ttl": {"exp": 1.0}, "ttl_r": {"exp": 2.0},
         "children": ["L1", "L2"]},
        {"id": "M2", "policy": "R", "ttl": {"exp": 1.5}, "children": ["L3", "L4"]},
        {"id": "T", "policy": "Sigma", "ttl": {"exp": 0.7}, "children": ["M1", "M2"]},
    ]
    return {"nodes": nodes, "arrivals": {nid: {"poisson": lam} for nid, _, _, lam in leaves}}


def mmpp_line() -> dict:
    """Depth-7 line fed by a two-state MMPP: an R cache with an exp TTL, then
    Erlang-2 caches alternating Sigma and R. The last has 2,916 output states."""
    nodes = [{"id": "N0", "policy": "R", "ttl": {"exp": 1.0}}]
    for i in range(1, 7):
        nodes.append({
            "id": f"N{i}",
            "policy": ("Sigma", "R")[i % 2],
            "ttl": {"erlang": {"stages": 2, "rate": 2.0 + 0.3 * i}},
            "children": [f"N{i - 1}"],
        })
    mmpp = {"q": [[-0.5, 0.5], [1.0, -1.0]], "rates": [4.0, 0.5]}
    return {"nodes": nodes, "arrivals": {"N0": {"mmpp": mmpp}}}
