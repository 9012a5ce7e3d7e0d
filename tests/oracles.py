"""Independent oracles the tests check the implementation against.

Nothing here shares code with the package's algorithms: betweenness comes
from explicit enumeration of shortest paths, the small-model posterior
comes from dense numerical integration on a grid, and the model's joint
density and prior draws come from scipy.stats and a dense eigendecomposition
of the CAR precision.
"""

import heapq
import itertools

import numpy as np
from scipy import stats


def _distances(n, adj, source, weighted):
    dist = [float("inf")] * n
    dist[source] = 0.0
    if not weighted:
        queue = [source]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v, _ in adj[u]:
                if dist[v] == float("inf"):
                    dist[v] = dist[u] + 1
                    queue.append(v)
    else:
        heap = [(0.0, source)]
        done = [False] * n
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w in adj[u]:
                if d + w < dist[v] - 1e-12:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    return dist


def brute_force_betweenness(graph, metric="hop_count", normalized=True):
    """Betweenness by explicit enumeration of every shortest path.

    For each ordered pair (j, k) all paths of minimal total weight are
    listed by depth-bounded DFS; node i earns n_jk(i)/n_jk for each pair
    whose paths it sits inside. Intended for graphs with at most ~8 nodes.
    """
    n = graph.node_count
    weighted = metric == "edge_length"
    adj = [[] for _ in range(n)]
    for u, v, length in graph.edges:
        w = 1.0 if not weighted else (1.0 if length is None else length)
        adj[u].append((v, w))
        adj[v].append((u, w))

    raw = np.zeros(n)
    for j in range(n):
        dist = _distances(n, adj, j, weighted)
        for k in range(n):
            if k == j or dist[k] == float("inf"):
                continue
            target_len = dist[k]
            tol = 1e-9 * max(1.0, target_len)
            paths = []

            def dfs(node, length, visited, trail):
                if length > target_len + tol:
                    return
                if node == k:
                    if abs(length - target_len) <= tol:
                        paths.append(tuple(trail))
                    return
                for nxt, w in adj[node]:
                    if nxt not in visited:
                        visited.add(nxt)
                        trail.append(nxt)
                        dfs(nxt, length + w, visited, trail)
                        trail.pop()
                        visited.remove(nxt)

            dfs(j, 0.0, {j}, [j])
            n_jk = len(paths)
            if n_jk == 0:
                continue
            for i in range(n):
                if i == j or i == k:
                    continue
                through = sum(1 for p in paths if i in p[1:-1])
                raw[i] += through / n_jk
    if normalized and n >= 3:
        return raw / ((n - 1) * (n - 2))
    return raw


def brute_force_centralization(graph, metric="hop_count"):
    raw = brute_force_betweenness(graph, metric, normalized=False)
    n = graph.node_count
    return float((raw.max() - raw).sum() / ((n - 1) ** 2 * (n - 2)))


def random_connected_graph(n, rng, edge_prob=0.45, lengths=False):
    """Random connected graph on n nodes: a random spanning tree plus
    independently kept extra edges."""
    from tazcar.centrality import RoadGraph

    nodes = list(rng.permutation(n))
    edges = set()
    for idx in range(1, n):
        a = nodes[idx]
        b = nodes[int(rng.integers(0, idx))]
        edges.add((min(a, b), max(a, b)))
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < edge_prob:
            edges.add((a, b))
    if lengths:
        edge_list = tuple((a, b, float(rng.integers(1, 5)) * 0.25) for a, b in sorted(edges))
    else:
        edge_list = tuple(sorted(edges))
    return RoadGraph(node_count=n, edges=edge_list)


def grid_posterior_toy(y, x, edge_pairs, tau_c, beta_prior_var=1000.0,
                       b0_grid=None, b1_grid=None, phi_points=17, phi_half_width=1.2):
    """Posterior means of (beta0, beta1) for the 5-zone toy by dense grid
    integration over the sum-to-zero spatial field.

    The model: y_i ~ Poisson(exp(beta0 + beta1 x_i + phi_i)), phi
    constrained to sum to zero with the pairwise-difference prior at fixed
    tau_c, and independent normal(0, beta_prior_var) priors on the betas.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)
    axes = [np.linspace(-phi_half_width, phi_half_width, phi_points)] * (n - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    phi_free = np.stack([m.ravel() for m in mesh], axis=1)      # (G, n-1)
    phi_last = -phi_free.sum(axis=1, keepdims=True)
    phi = np.concatenate([phi_free, phi_last], axis=1)          # (G, n)

    quad = np.zeros(phi.shape[0])
    for a, b in edge_pairs:
        quad += (phi[:, a] - phi[:, b]) ** 2
    log_prior_phi = -0.5 * tau_c * quad
    y_dot_phi = phi @ y
    exp_phi = np.exp(phi)                                        # (G, n)

    total_w = 0.0
    total_b0 = 0.0
    total_b1 = 0.0
    log_shift = -np.inf
    for b0 in b0_grid:
        for b1 in b1_grid:
            loglik = (b0 * y.sum() + b1 * (y @ x) + y_dot_phi
                      - np.exp(b0) * (exp_phi @ np.exp(b1 * x)))
            logp = (loglik + log_prior_phi
                    - 0.5 * (b0 * b0 + b1 * b1) / beta_prior_var)
            m = float(logp.max())
            if m > log_shift:
                # Rescale the running sums to the new reference point.
                scale = np.exp(log_shift - m) if np.isfinite(log_shift) else 0.0
                total_w *= scale
                total_b0 *= scale
                total_b1 *= scale
                log_shift = m
            w = float(np.exp(logp - log_shift).sum())
            total_w += w
            total_b0 += w * b0
            total_b1 += w * b1
    return total_b0 / total_w, total_b1 / total_w


def icar_structure(W_dense):
    """Eigenpairs of the ICAR precision D - W on its nonzero spectrum: the
    constrained subspace (zero sum on every component, zero on islands)."""
    Q = np.diag(W_dense.sum(axis=1)) - W_dense
    values, vectors = np.linalg.eigh(Q)
    keep = values > 1e-9 * max(1.0, values.max())
    return values[keep], vectors[:, keep]


def log_joint(y, X, W_dense, beta, theta, phi, sigma2, tau, prior_mean, prior_var,
              sigma_prior, tau_prior, clamp=30.0):
    """log p(y, beta, theta, phi, sigma2, tau) up to a constant, for phi on
    the constrained subspace: Poisson counts at lambda = exp(psi clipped to
    +-clamp), normal coefficient priors, theta ~ N(0, sigma2), the ICAR
    density tau^((n - G) / 2) exp(-tau phi'(D - W)phi / 2), sigma2 ~
    inverse-gamma(shape, scale=rate) and tau ~ gamma(shape, rate).  The
    priors are (shape, rate) pairs."""
    values, _ = icar_structure(W_dense)
    Q = np.diag(W_dense.sum(axis=1)) - W_dense
    psi = np.clip(X @ beta + theta + phi, -clamp, clamp)
    return float(stats.poisson.logpmf(y, np.exp(psi)).sum()
                 + stats.norm.logpdf(beta, prior_mean, np.sqrt(prior_var)).sum()
                 + stats.norm.logpdf(theta, 0.0, np.sqrt(sigma2)).sum()
                 + 0.5 * len(values) * np.log(tau) - 0.5 * tau * phi @ Q @ phi
                 + stats.invgamma.logpdf(sigma2, sigma_prior[0], scale=sigma_prior[1])
                 + stats.gamma.logpdf(tau, tau_prior[0], scale=1.0 / tau_prior[1]))


def draw_prior(rng, X, W_dense, prior_mean, prior_var, sigma_prior, tau_prior):
    """One forward draw (beta, theta, phi, sigma2, tau, y) of the model
    log_joint describes, phi drawn on the constrained subspace."""
    values, vectors = icar_structure(W_dense)
    beta = rng.normal(prior_mean, np.sqrt(prior_var))
    sigma2 = sigma_prior[1] / rng.gamma(sigma_prior[0])
    theta = rng.normal(0.0, np.sqrt(sigma2), size=len(X))
    tau = rng.gamma(tau_prior[0]) / tau_prior[1]
    phi = vectors @ (rng.standard_normal(len(values)) / np.sqrt(tau * values))
    y = rng.poisson(np.exp(X @ beta + theta + phi))
    return beta, theta, phi, sigma2, tau, y


def union_find_components(n, triples):
    """Component labels of zones 0..n-1 under the pairs of positive weight,
    numbered in order of each component's smallest zone, and their count."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j, w in triples:
        if w > 0:
            a, b = root(i), root(j)
            parent[max(a, b)] = min(a, b)
    number = {}
    labels = [number.setdefault(root(i), len(number)) for i in range(n)]
    return np.array(labels), len(number)
