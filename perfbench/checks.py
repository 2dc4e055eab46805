"""Output checks for the benchmark's workloads.

Every check recomputes what it compares against in plain numpy, from the
config block the benchmark wrote, or tests a property the method must have.
None of them imports pseudosun and none compares against a stored copy of an
earlier output. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

#: Unit constants as the package README states them.
C_CM_PER_FS = 2.99792458e-5
C2_CM_K = 1.4387769
LOG_FLOOR = 1e-12

ORACLE_REL = 1e-6  # the project's double-quadrature oracle gate
RANK1_REL = 1e-10
EXACT_REL = 1e-12
#: A normalized peak is the reference entry divided by itself; numpy's
#: complex-by-real division can leave it an ulp or two off 1.
PEAK_ULPS = 1e-15


class Problems(list):
    def require(self, ok, message: str) -> bool:
        if not ok:
            self.append(message)
        return bool(ok)


def read_csv(path: Path):
    """Metadata lines, column names and rows of one CSV the CLI wrote."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = lines[len(meta) :]
    columns = body[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    return meta, columns, rows.reshape(len(body) - 1, len(columns))


def config_sha(block: dict) -> str:
    canonical = json.dumps(block, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_metadata(p: Problems, name: str, meta, command: str, block: dict, seed: int) -> None:
    p.require(len(meta) >= 4 and meta[0].startswith("# pseudosun "), f"{name}: no version line")
    p.require(f"# command: {command}" in meta, f"{name}: command line missing")
    p.require(f"# config-sha256: {config_sha(block)}" in meta, f"{name}: config hash differs")
    p.require(f"# seed: {seed}" in meta, f"{name}: seed line missing")


def check_gnuplot(p: Problems, out: Path, csv_name: str, columns) -> None:
    gp = out / Path(csv_name).with_suffix(".gp")
    if not p.require(gp.is_file(), f"{gp.name}: missing"):
        return
    text = gp.read_text(encoding="utf-8")
    for k, column in enumerate(columns[1:]):
        p.require(
            f"'{csv_name}' using 1:{k + 2} with lines title '{column}'" in text,
            f"{gp.name}: no plot of column {column}",
        )
    p.require(text.rstrip().endswith("pause -1"), f"{gp.name}: truncated")


def grid(block: dict) -> np.ndarray:
    return np.linspace(block["min"], block["max"], block["count"])


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    weights = np.full(points.size, points[1] - points[0])
    weights[[0, -1]] *= 0.5
    return weights


def squeeze(nu, pdc: dict):
    """Squeeze profile r = gain * sinc, with numpy's normalized sinc."""
    return pdc["gain"] * np.sinc(
        C_CM_PER_FS * (np.asarray(nu) - pdc["signal_center"]) * pdc["entanglement_time"]
    )


def n_pdc(nu, pdc: dict):
    return np.sinh(squeeze(nu, pdc)) ** 2


def n_thermal(nu, temperature: float):
    return 1.0 / np.expm1(C2_CM_K * np.asarray(nu) / temperature)


def close(got, want, rel: float, scale=None) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    scale = np.abs(want) if scale is None else scale
    return bool(np.all(np.abs(got - want) <= rel * scale))


def molecule(block: dict):
    levels = block["molecule"]["levels"]
    return np.array([lv["energy"] for lv in levels]), np.array([lv["dipole"] for lv in levels])


def trajectory(columns, rows, dim: int) -> np.ndarray:
    """(T, L, L) complex matrices from the t_fs, re_rho_ab, im_rho_ab columns."""
    index = {name: k for k, name in enumerate(columns)}
    rho = np.zeros((rows.shape[0], dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(a, dim):
            tag = f"{a + 1}{b + 1}"
            rho[:, a, b] = rows[:, index[f"re_rho_{tag}"]] + 1j * rows[:, index[f"im_rho_{tag}"]]
            rho[:, b, a] = rho[:, a, b].conj()
    return rho


def trajectory_columns(dim: int) -> list[str]:
    names = ["t_fs"]
    for a in range(dim):
        for b in range(a, dim):
            names += [f"re_rho_{a + 1}{b + 1}", f"im_rho_{a + 1}{b + 1}"]
    return names


def read_trajectory(p: Problems, out: Path, name: str, command: str, block: dict, seed: int):
    """Matrices of one trajectory CSV after the checks every such file shares."""
    path = out / name
    if not p.require(path.is_file(), f"{name}: missing"):
        return None
    meta, columns, rows = read_csv(path)
    check_metadata(p, name, meta, command, block, seed)
    dim = len(block["molecule"]["levels"])
    check_gnuplot(p, out, name, columns)
    if not p.require(columns == trajectory_columns(dim), f"{name}: columns {columns}"):
        return None
    if not p.require(np.array_equal(rows[:, 0], grid(block["times"])), f"{name}: time grid"):
        return None
    p.require(np.all(np.isfinite(rows)), f"{name}: non-finite entries")
    return trajectory(columns, rows, dim)


def check_psd(p: Problems, name: str, rho: np.ndarray) -> None:
    r11, r22 = rho[:, 0, 0].real, rho[:, 1, 1].real
    p.require(np.all(r11 >= 0) and np.all(r22 >= 0), f"{name}: negative population")
    p.require(
        np.all(np.abs(rho[:, 0, 1]) ** 2 <= r11 * r22 * (1 + 1e-12)),
        f"{name}: a row is not positive semidefinite",
    )


def check_rank_one(p: Problems, name: str, rho: np.ndarray) -> None:
    product = rho[:, 0, 0].real * rho[:, 1, 1].real
    det = product - np.abs(rho[:, 0, 1]) ** 2
    p.require(np.all(np.abs(det) <= RANK1_REL * product), f"{name}: not rank one")


def check_max_diag(p: Problems, name: str, rho: np.ndarray) -> None:
    peak = np.max(np.diagonal(rho.real, axis1=1, axis2=2))
    p.require(abs(peak - 1.0) <= PEAK_ULPS, f"{name}: largest population is {peak!r}, not 1")


# -- dynamics ---------------------------------------------------------------


def direct_unconditional(block: dict, n_of_nu) -> np.ndarray:
    """Frequency quadrature of the first-order density matrix at every time.

    rho_ab(t) = mu_a mu_b e^{-i(w_a - w_b)t} sum_n w_n nu_n n(nu_n) K_a* K_b with
    the direct window form K = (e^{i theta t} - 1)/(i theta), theta = w_n - w_a.
    The phasor e^{i theta t} advances by one time step per row and is
    recomputed exactly every 50 rows.
    """
    energies, dipoles = molecule(block)
    nu = grid(block["grid"])
    weight = trapezoid_weights(nu) * nu * n_of_nu(nu)
    level = 2 * np.pi * C_CM_PER_FS * energies
    theta = 2 * np.pi * C_CM_PER_FS * nu[None, :] - level[:, None]
    resonant = theta == 0
    inverse = np.where(resonant, 0, 1 / (1j * np.where(resonant, 1, theta)))
    times = grid(block["times"])
    step = np.exp(1j * theta * (times[1] - times[0]))
    mu = np.outer(dipoles, dipoles)
    splitting = level[:, None] - level[None, :]
    out = np.empty((times.size, energies.size, energies.size), dtype=complex)
    for k, t in enumerate(times):
        phasor = np.exp(1j * theta * t) if k % 50 == 0 else phasor * step
        kernel = np.where(resonant, t, (phasor - 1) * inverse)
        out[k] = mu * np.exp(-1j * splitting * t) * ((kernel.conj() * weight) @ kernel.T)
    return out


def check_dynamics(out: Path, config: dict, seed: int) -> list[str]:
    p = Problems()
    block = config["dynamics"]
    pdc, temperature = block["pdc"], block["blackbody"]["temperature"]
    expected = {block["output"], block["blackbody_output"]}
    for name, n_of_nu in (
        (block["output"], lambda nu: n_pdc(nu, pdc)),
        (block["blackbody_output"], lambda nu: n_thermal(nu, temperature)),
    ):
        rho = read_trajectory(p, out, name, "dynamics", block, seed)
        if rho is None:
            continue
        peak = np.max(rho[:, 0, 1].real)
        p.require(abs(peak - 1.0) <= PEAK_ULPS, f"{name}: reference entry peaks at {peak!r}, not 1")
        check_psd(p, name, rho)
        want = direct_unconditional(block, n_of_nu)
        want, got = want / want[-1, 0, 0].real, rho / rho[-1, 0, 0].real
        p.require(
            close(got, want, ORACLE_REL, np.max(np.abs(want))),
            f"{name}: differs from the direct quadrature by "
            f"{np.max(np.abs(got - want)) / np.max(np.abs(want)):.2e}",
        )
    check_file_set(p, out, expected)
    return p


def check_file_set(p: Problems, out: Path, csv_names, others=()) -> None:
    want = set(others)
    for name in csv_names:
        want |= {name, str(Path(name).with_suffix(".gp"))}
    have = {path.name for path in out.iterdir()}
    p.require(have == want, f"files differ: missing {sorted(want - have)}, extra {sorted(have - want)}")


# -- heralded ---------------------------------------------------------------


def herald_file_name(prefix: str, herald_time: float) -> str:
    tag = f"{float(herald_time):.17g}".replace("-", "m").replace(".", "p")
    return f"{prefix}_ti{tag}.csv"


def tanh_ratio(block: dict) -> float:
    """Post-pulse rho_22/rho_11 of the exact field: (nu2/nu1) tanh^2 r(nu2) / tanh^2 r(nu1)."""
    energies, dipoles = molecule(block)
    weight = dipoles**2 * energies * np.tanh(squeeze(energies, block["pdc"])) ** 2
    return float(weight[1] / weight[0])


#: The exact herald average is recomputed at every this many rows.
EXACT_AVERAGE_STRIDE = 10


def exact_average(block: dict, rows) -> np.ndarray:
    """Uniform herald average of the exact-quadrature field at the given rows, unnormalized.

    Swapping the frequency and time sums, each herald's amplitude at t_k is
    mu_a e^{-i w_a t_k} sum_n p_n e^{i w_n t_h} G_n(t_k), where G_n is the
    trapezoid sum of e^{i (w_a - w_n) s} over s = 0..t_k in closed form
    (a geometric series) and p_n the trapezoid weight times sqrt(nu_n / nu_c)
    times tanh r(nu_n) on the field grid.
    """
    energies, dipoles = molecule(block)
    pdc, spec = block["pdc"], block["average"]
    t = grid(block["times"])
    dt = t[1] - t[0]
    pad = spec.get("pad", pdc["entanglement_time"])
    heralds = np.linspace(t[0] - pad, t[-1] + pad, spec["samples"])
    nu = grid(block["field_grid"])
    profile = trapezoid_weights(nu) * np.sqrt(nu / pdc["signal_center"]) * np.tanh(squeeze(nu, pdc))
    omega = 2 * np.pi * C_CM_PER_FS * nu
    level = 2 * np.pi * C_CM_PER_FS * energies
    shifted = np.exp(1j * np.outer(heralds, omega)) * profile
    theta = level[:, None] - omega[None, :]
    z = np.exp(1j * theta * dt)
    out = np.empty((len(rows), energies.size, energies.size), dtype=complex)
    for k, row in enumerate(rows):
        zk = np.exp(1j * theta * t[row])
        running = dt * ((zk * z - 1) / (z - 1) - 0.5 * (1 + zk))
        phi = dipoles * np.exp(-1j * level * t[row]) * (shifted @ running.T)
        out[k] = phi.T @ phi.conj() / heralds.size
    return out


def check_herald_exact(out: Path, config: dict, seed: int) -> list[str]:
    p = Problems()
    block, coin = config["heralded"], config["coincidence"]
    t = grid(block["times"])
    want_ratio = tanh_ratio(block)
    heralds = {}
    for herald in block["herald_times"]:
        name = herald_file_name(block["output_prefix"], herald)
        rho = read_trajectory(p, out, name, "heralded", block, seed)
        if rho is None:
            continue
        heralds[herald] = rho
        check_max_diag(p, name, rho)
        check_rank_one(p, name, rho)
        after = t >= herald + 5.0
        ratio = rho[after, 1, 1].real / rho[after, 0, 0].real
        p.require(
            after.any() and close(ratio, np.full(ratio.shape, want_ratio), 1e-3),
            f"{name}: post-pulse rho_22/rho_11 off {want_ratio:.5f}",
        )

    average = read_trajectory(p, out, block["average_output"], "heralded", block, seed)
    if average is not None:
        name = block["average_output"]
        check_max_diag(p, name, average)
        check_psd(p, name, average)
        # Criterion 6: the herald average approaches the unconditional
        # trajectory; compared on 10-100 fs, both scaled at t = 100 fs.
        rows = t >= 10.0
        direct_block = dict(block, grid={"min": 1000.0, "max": 25000.0, "count": 8192})
        want = direct_unconditional(direct_block, lambda nu: n_pdc(nu, block["pdc"]))[rows]
        got = average[rows]
        for a in range(2):
            x = got[:, a, a].real / got[-1, 0, 0].real
            y = want[:, a, a].real / want[-1, 0, 0].real
            p.require(close(x, y, 0.05), f"{name}: rho_{a + 1}{a + 1} not within 5% of unconditional")
        rows = np.arange(0, t.size, EXACT_AVERAGE_STRIDE)
        want = exact_average(block, rows)
        got = average[rows]
        want, got = want / want[-1, 0, 0].real, got / got[-1, 0, 0].real
        p.require(
            close(got, want, RANK1_REL, np.max(np.abs(want))),
            f"{name}: differs from the recomputed exact average",
        )

    coincidence_name = coin["output"]
    check_coincidence(p, out, coincidence_name, coin, seed, heralds.get(coin["herald_time"]))
    check_fit(p, out, config["fit"], seed)
    names = [herald_file_name(block["output_prefix"], h) for h in block["herald_times"]]
    names += [block["average_output"], coincidence_name, config["fit"]["output"]]
    check_file_set(p, out, names, others=[config["fit"]["report"]])
    return p


def check_coincidence(p: Problems, out: Path, name: str, block: dict, seed: int, rho) -> None:
    """The signal is sum mu_a mu_b rho_ab of the same herald's trajectory, up to one scale."""
    path = out / name
    if not p.require(path.is_file(), f"{name}: missing"):
        return
    meta, columns, rows = read_csv(path)
    check_metadata(p, name, meta, "coincidence", block, seed)
    check_gnuplot(p, out, name, columns)
    if not p.require(columns == ["t_fs", "S"], f"{name}: columns {columns}"):
        return
    if not p.require(np.array_equal(rows[:, 0], grid(block["times"])), f"{name}: time grid"):
        return
    signal = rows[:, 1]
    p.require(
        abs(np.max(np.abs(signal)) - 1.0) <= PEAK_ULPS, f"{name}: not normalized to a peak of 1"
    )
    if not p.require(rho is not None, f"{name}: no heralded trajectory to compare with"):
        return
    _, dipoles = molecule(block)
    want = np.einsum("a,tab,b->t", dipoles, rho, dipoles).real
    k = int(np.argmax(np.abs(want)))
    want = want * (signal[k] / want[k])
    p.require(close(signal, want, RANK1_REL, 1.0), f"{name}: not proportional to mu.rho.mu")


# -- fit ------------------------------------------------------------------


def check_spectrum_columns(p: Problems, name: str, rows, nu, pdc: dict, temperature: float):
    p.require(np.array_equal(rows[:, 0], nu), f"{name}: frequency grid")
    if rows.shape[0] != nu.size:
        return
    p.require(close(rows[:, 1], n_pdc(nu, pdc), EXACT_REL), f"{name}: source column off sinh^2")
    p.require(
        close(rows[:, 2], n_thermal(nu, temperature), EXACT_REL), f"{name}: thermal column off"
    )


def fit_objective(nu, pdc: dict, temperature: float) -> float:
    residual = np.log(n_pdc(nu, pdc) + LOG_FLOOR) - np.log(n_thermal(nu, temperature) + LOG_FLOOR)
    return float(np.mean(residual**2))


def read_fit_report(path: Path) -> tuple[dict, list[tuple[int, float]]]:
    fields, trace, in_trace = {}, [], False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            fields.setdefault("#", []).append(line)
        elif line == "trace:":
            in_trace = True
        elif in_trace:
            k, value = line.split(",")
            trace.append((int(k), float(value)))
        else:
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields, trace


def check_fit(p: Problems, out: Path, block: dict, seed: int) -> None:
    report = out / block["report"]
    if not p.require(report.is_file(), f"{block['report']}: missing"):
        return
    fields, trace = read_fit_report(report)
    check_metadata(p, block["report"], fields.get("#", []), "fit", block, seed)
    p.require(fields.get("converged") == "true", "fit: not converged")
    nu = grid(block["window"])
    temperature = block["thermal"]["temperature"]
    names = ("pump_freq", "signal_center", "entanglement_time", "gain")
    try:
        fitted = {name: float(fields[name]) for name in names}
        objective = float(fields["objective"])
        initial = float(fields["initial_objective"])
        iterations = int(fields["iterations"])
    except (KeyError, ValueError) as exc:
        p.append(f"fit report: unreadable ({exc})")
        return
    for name in names:
        lo, hi = block["bounds"][name]
        p.require(lo <= fitted[name] <= hi, f"fit: {name} outside its bounds")
    p.require(
        np.isclose(objective, fit_objective(nu, fitted, temperature), rtol=1e-9, atol=0),
        "fit: objective does not reproduce from the fitted parameters",
    )
    p.require(
        np.isclose(initial, fit_objective(nu, block["initial"], temperature), rtol=1e-9, atol=0),
        "fit: initial objective does not reproduce",
    )
    p.require(objective <= initial, "fit: objective exceeds the initial objective")
    values = [v for _, v in trace]
    p.require(
        [k for k, _ in trace] == list(range(iterations + 1))
        and values[-1] == objective
        and all(b <= a for a, b in zip(values, values[1:])),
        "fit: trace is not a non-increasing best-objective history",
    )

    path = out / block["output"]
    if not p.require(path.is_file(), f"{block['output']}: missing"):
        return
    meta, columns, rows = read_csv(path)
    check_metadata(p, block["output"], meta, "fit", block, seed)
    check_gnuplot(p, out, block["output"], columns)
    p.require(columns == ["omega_cm1", "n_fit", "n_target"], f"{block['output']}: columns")
    check_spectrum_columns(p, block["output"], rows, nu, fitted, temperature)
