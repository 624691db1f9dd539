"""Paper fidelity: every claim the repo tests, as pinned scenario specs.

The paper's evidence is one experiment repeated: **measure** an LU
configuration on the cluster (``testbed`` engine), **predict** it with the
simulator on the platform calibrated against that cluster (``sim``
engine), compare.  ``CONFIGS`` holds the 34 configurations of Figs. 8-12
once; every pair is two scenario specs (``validation_pair``).  The
paper's other claims are *rows*, one spec each: Table 1's simulation
modes, the model ablations, the beyond-LU apps and the section 4 what-if
studies.  Every spec runs through ``repro.analysis.parallel.run_records``.
A *view* per figure or study reads its section, asserts the shape the
claim must show and returns our values for the ones the paper quotes
(``PAPER``).

``FIDELITY.json`` at the repo root keeps six sections, every float as its
``repr``: ``full`` (n = 2592, five measurement seeds, 170 pairs, six
views; minutes), ``reduced`` (n and r halved, so the column-block counts
and ``iter<k>`` labels are the paper's; seed 1; the subset tier-1 replays
in ~3 s) and the row sections ``table1``, ``ablation``, ``apps`` and
``whatif`` (paper size, seed 1; ~25 s together).  ``--check [SECTION ..]``
regenerates and exits 1 on any difference from the committed file,
``--write`` stores what it regenerated; see ``docs/fidelity.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import namedtuple
from pathlib import Path

from repro.analysis.metrics import relative_error
from repro.analysis.parallel import cached_platform, run_records
from repro.analysis.prediction import PredictionStudy, validation_pair
from repro.netmodel.params import FAST_ETHERNET, GIGABIT_ETHERNET

FIDELITY_JSON = Path(__file__).resolve().parents[1] / "FIDELITY.json"

#: paper matrix size and the five "runs of the real cluster" of Fig. 13
N = 2592
SEEDS = (1, 2, 3, 4, 5)

VARIANTS = {
    "PM": dict(pm=True),
    "P": dict(pipelined=True),
    "P+PM": dict(pipelined=True, pm=True),
    "P+FC": dict(pipelined=True, fc=8),
    "P+PM+FC": dict(pipelined=True, pm=True, fc=8),
}
RS_8N = (81, 108, 162, 216, 324)


def _lu(r, nodes, pipelined=False, fc=None, pm=False):
    """``app.options`` of one paper-style LU run (PM sub-blocks are r/3)."""
    options = {"n": N, "r": r, "num_threads": nodes, "num_nodes": nodes}
    if pipelined:
        options["pipelined"] = True
    if fc:
        options["flow_control"] = fc
    if pm:
        options["pm_subblock"] = r // 3
    return options


#: label -> (app.options, events): the 34 configurations of Figs. 8-12.
CONFIGS: dict[str, tuple[dict, tuple[str, ...]]] = {}
for _r in (648, 324, 216, 162, 108):  # Figs. 8/9: 4 nodes
    CONFIGS[f"basic-r{_r}-4n"] = (_lu(_r, 4), ())
for _name, _kw in VARIANTS.items():
    for _r in (324, 648):
        CONFIGS[f"{_name}-r{_r}-4n"] = (_lu(_r, 4, **_kw), ())
for _r in RS_8N:  # Fig. 10: 8 nodes
    CONFIGS[f"basic-r{_r}-8n"] = (_lu(_r, 8), ())
    CONFIGS[f"P-r{_r}-8n"] = (_lu(_r, 8, pipelined=True), ())
    CONFIGS[f"P+FC-r{_r}-8n"] = (_lu(_r, 8, pipelined=True, fc=16), ())
CONFIGS["4thr"] = (_lu(324, 4), ())  # Figs. 11/12: thread removal, r = 324
CONFIGS["kill4@1"] = (_lu(324, 8), ("4,5,6,7@1",))
CONFIGS["kill4@4"] = (_lu(324, 8), ("4,5,6,7@4",))
CONFIGS["kill2@2+2@3"] = (_lu(324, 8), ("6,7@2", "4,5@3"))

#: pairs that also keep their per-iteration series (Figs. 11/12), seed 1
WITH_PHASES = ("basic-r324-8n", "4thr", "kill4@1", "kill4@4", "kill2@2+2@3")
ITERATIONS = [f"iter{k}" for k in range(1, 9)]


class Pair:
    """One measured/predicted pair as read back from its JSON entry."""

    def __init__(self, entry: dict) -> None:
        self.measured = float(entry["measured"])
        self.predicted = float(entry["predicted"])
        self.error = float(entry["error"])
        #: per iteration, for ``side`` in measured / predicted
        phases = entry.get("phases", {})
        self.efficiency = {s: _floats(v["efficiency"]) for s, v in phases.items()}
        self.nodes = {s: _floats(v["nodes"]) for s, v in phases.items()}
        #: ``RunRecord.mean_efficiency`` of the measurement: *iteration phases
        #: only*, without the initial distribution ``sim.efficiency`` charges
        self.iteration_efficiency = float(entry.get("iteration_efficiency", "nan"))


def _floats(reprs: dict) -> dict:
    return {label: float(text) for label, text in reprs.items()}


def _s1(pairs: dict, label: str) -> Pair:
    return pairs[f"{label}/s1"]


# ------------------------------------------------------------------ views
def fig08(pairs):
    """Granularity buys far more than any variant; an interior optimum."""
    ref = _s1(pairs, "basic-r648-4n")
    variants = {v: _s1(pairs, f"{v}-r648-4n") for v in VARIANTS}
    gran = {r: _s1(pairs, f"basic-r{r}-4n") for r in (324, 216, 162, 108)}
    imp = {r: ref.measured / p.measured for r, p in gran.items()}
    pred_imp = {r: ref.predicted / p.predicted for r, p in gran.items()}
    variant_best = max(ref.measured / p.measured for p in variants.values())
    # The paper's 3.6x rests on a pathological 4-block reference (259.4 s,
    # slower than serial); our full-duplex testbed is kinder to it (~139 s).
    gran_best = max(imp.values())
    assert gran_best > 1.4
    assert gran_best > variant_best + 0.25
    best_r = max(imp, key=imp.get)
    assert best_r in (162, 216, 324)
    # The simulator ranks granularities like the measurements do wherever
    # those clearly separate them; near-ties (< 5 % apart) may swap.
    for ra in gran:
        for rb in gran:
            if imp[ra] > imp[rb] * 1.05:
                assert pred_imp[ra] > pred_imp[rb]
    for p in (*variants.values(), *gran.values()):
        assert abs(p.error) < 0.12
    return {
        "reference_s": ref.measured,
        "best_r": best_r,
        "best_measured_s": gran[best_r].measured,
        "best_predicted_s": gran[best_r].predicted,
        "best_improvement": gran_best,
        "best_variant_improvement": variant_best,
    }


def fig09(pairs):
    """At r = 324 PM slows the run down; P and FC slightly improve it."""
    ref = _s1(pairs, "basic-r324-4n")
    rows = {v: _s1(pairs, f"{v}-r324-4n") for v in VARIANTS}
    imp = {v: ref.measured / p.measured for v, p in rows.items()}
    pred_imp = {v: ref.predicted / p.predicted for v, p in rows.items()}
    assert imp["PM"] < 1.0
    assert pred_imp["PM"] < 1.0
    assert imp["P"] > 1.0
    assert imp["P+FC"] >= imp["P"] - 0.03
    assert imp["P+PM"] < imp["P"]
    assert imp["P+PM+FC"] < imp["P+FC"]
    assert 70 < ref.measured < 140
    # Paper: < 5 %; the testbed's convex comm-CPU mismatch widens PM.
    for p in rows.values():
        assert abs(p.error) < 0.10
    worst = max(abs(p.error) for p in rows.values())
    return {"reference_s": ref.measured, "improvement": imp, "max_abs_error": worst}


def fig10(pairs):
    """On 8 nodes pipelining helps at every granularity, FC on top."""
    ref = _s1(pairs, "basic-r324-8n")
    basic = {r: _s1(pairs, f"basic-r{r}-8n") for r in RS_8N}
    piped = {r: _s1(pairs, f"P-r{r}-8n") for r in RS_8N}
    pfc = {r: _s1(pairs, f"P+FC-r{r}-8n") for r in RS_8N}
    for r in RS_8N:
        assert piped[r].measured < basic[r].measured
        assert piped[r].predicted < basic[r].predicted
        assert pfc[r].measured <= piped[r].measured * 1.05
    best_r = min(RS_8N, key=lambda r: basic[r].measured)
    assert best_r not in (RS_8N[0], RS_8N[-1])
    # Basic stays tight; the heavily pipelined, communication-saturated
    # regime is the hardest to model (the paper's own P/P+FC curves show
    # visible gaps at fine granularity) and gets the wider band.
    for p in basic.values():
        assert abs(p.error) < 0.12
    for p in (*piped.values(), *pfc.values()):
        assert abs(p.error) < 0.25
    worst = max(abs(p.error) for p in (*piped.values(), *pfc.values()))
    return {
        "reference_s": ref.measured,
        "best_basic_r": best_r,
        "best_p_fc_improvement": max(ref.measured / p.measured for p in pfc.values()),
        "max_abs_error_pipelined": worst,
    }


def fig11(pairs):
    """Dynamic efficiency decays; 4 nodes beat 8; removal lifts the rest."""
    eight, four, kill = (_s1(pairs, x) for x in ("basic-r324-8n", "4thr", "kill4@1"))
    m8, m4, mkill = (p.efficiency["measured"] for p in (eight, four, kill))
    s8, s4, skill = (p.efficiency["predicted"] for p in (eight, four, kill))
    assert m8["iter1"] > m8["iter6"] > m8["iter8"]
    assert m4["iter1"] > m4["iter7"]
    for it in ITERATIONS[:6]:
        assert m4[it] > 1.3 * m8[it]
    assert 0.25 < m8["iter1"] < 0.55
    assert 0.45 < m4["iter1"] < 0.75
    for it in ITERATIONS[2:6]:
        assert mkill[it] > 1.25 * m8[it]
    for it in ITERATIONS[:6]:
        assert s4[it] > s8[it]
    for it in ITERATIONS[2:6]:
        assert skill[it] > s8[it]
    # The early, long iterations dominate the running time.
    for p in (eight, four, kill):
        for it in ITERATIONS[:4]:
            measured = p.efficiency["measured"][it]
            assert abs(p.efficiency["predicted"][it] - measured) / measured < 0.20
    return {
        "iter1_efficiency_8thr": m8["iter1"],
        "iter1_efficiency_4thr": m4["iter1"],
        "iter6_ratio_4thr_over_8thr": m4["iter6"] / m8["iter6"],
    }


def fig12(pairs):
    """Every removal strategy lands in one narrow band of running times."""
    names = ("4thr", "basic-r324-8n", "kill4@1", "kill4@4", "kill2@2+2@3")
    rows = {name: _s1(pairs, name) for name in names}
    measured = {name: p.measured for name, p in rows.items()}
    t4, t8, kill1, kill4, kill22 = measured.values()
    assert max(measured.values()) / min(measured.values()) < 1.35
    assert kill1 < 1.20 * t8
    assert kill4 < 1.10 * t8
    assert kill22 < 1.20 * t8
    assert kill1 < 1.05 * t4
    # Freed capacity, over the iteration phases (see Pair).
    eff8 = rows["basic-r324-8n"].iteration_efficiency
    eff_kill = rows["kill4@1"].iteration_efficiency
    assert eff_kill > 1.2 * eff8
    for p in rows.values():
        assert abs(p.error) < 0.12
    efficiency = {name: p.iteration_efficiency for name, p in rows.items()}
    return {"measured_s": measured, "iteration_efficiency": efficiency}


def fig13(pairs):
    """The error distribution over every pair of every seed."""
    study = PredictionStudy()
    for key, p in pairs.items():
        study.add(key, p.measured, p.predicted)
    summary = study.summary()
    assert summary["count"] >= 160
    assert summary["within_4pct"] > 0.40
    assert summary["within_6pct"] > 0.55
    assert summary["within_12pct"] > 0.80
    assert summary["max_abs"] < 0.30
    assert (study.errors > 0).any() and (study.errors < 0).any()
    runs = [pairs[f"4thr/s{seed}"].measured for seed in SEEDS]  # of the real cluster
    assert 0 < (max(runs) - min(runs)) / min(runs) < 0.05  # noisy, but percent-level
    summary["beyond_12pct"] = sorted(k for k, p in pairs.items() if abs(p.error) > 0.12)
    return summary


# ------------------------------------------------------------- row sections
def _with(spec, **sections):
    """``spec`` with some fields of the named sections replaced."""
    return dataclasses.replace(spec, **{
        name: dataclasses.replace(getattr(spec, name), **fields)
        for name, fields in sections.items()
    })


def table1_rows():
    """Table 1: LU r = 216, basic graph, 8 nodes, run and simulated."""
    measured, noalloc = validation_pair("table1", _lu(216, 8))
    serial, _ = validation_pair("table1-serial", _lu(216, 1))
    return {
        "testbed-8n": measured,
        "testbed-1n": serial,
        "pdexec": _with(noalloc, engine={"mode": "pdexec"}),
        "noalloc": noalloc,
    }


BACKPLANE_RATIOS = (1, 2, 4, 8)
FC_LIMITS = (1, 2, 4, 8, 16, 32)


def ablation_rows():
    """Model ablations on the communication-heavy P r = 162, 8 nodes."""
    measured, star = validation_pair("ablation", _lu(162, 8, pipelined=True))
    bandwidth = cached_platform((8, star.engine.seed)).network.bandwidth
    rows = {"testbed": measured, "star": star}
    for model in ("analytic", "maxmin"):
        rows[model] = _with(star, netmodel={"name": model})
    for ratio in BACKPLANE_RATIOS:  # a fabric carrying 8 / ratio links at line rate
        options = {"capacity": 8 * bandwidth / ratio}
        rows[f"backplane-{ratio}:1"] = _with(
            star, netmodel={"name": "backplane", "options": options}
        )
    for limit in FC_LIMITS:
        options = _lu(162, 8, pipelined=True, fc=limit)
        rows[f"fc{limit}"] = _with(star, app={"options": options})
    return rows


#: label -> (app, app.options): stencil and sample sort at compute-dominant sizes
APPS = {
    "stencil-768-4n": ("stencil", dict(n=768, stripes=8, iterations=5,
                                       num_threads=4, num_nodes=4)),
    "stencil-1296-barrier-4n": ("stencil", dict(n=1296, stripes=8, iterations=5,
                                                num_threads=4, num_nodes=4,
                                                barrier=True)),
    "stencil-1296-8n": ("stencil", dict(n=1296, stripes=8, iterations=5,
                                        num_threads=8, num_nodes=8)),
    "sort-256k-4n": ("sort", dict(m=1 << 18, num_threads=4, num_nodes=4)),
    "sort-256k-8n": ("sort", dict(m=1 << 18, num_threads=8, num_nodes=8)),
    "sort-1M-4n": ("sort", dict(m=1 << 20, num_threads=4, num_nodes=4)),
}


def apps_rows():
    """The paper's experiment on the repository's other applications."""
    rows = {}
    for label, (app, options) in APPS.items():
        measured, predicted = validation_pair(label, options, app=app)
        rows[f"{label}/measured"], rows[f"{label}/predicted"] = measured, predicted
    return rows


#: label -> (latency, bandwidth) of the paper platform's interconnect
NETWORKS = {
    "fast-ethernet": (FAST_ETHERNET.latency, FAST_ETHERNET.bandwidth),
    "gigabit": (GIGABIT_ETHERNET.latency, GIGABIT_ETHERNET.bandwidth),
    "gigabit-zero-latency": (0.0, GIGABIT_ETHERNET.bandwidth),
}
for _latency in (0.0, 80e-6, 500e-6):
    for _name, _network in (("fe", FAST_ETHERNET), ("gbe", GIGABIT_ETHERNET)):
        NETWORKS[f"{_latency * 1e6:g}us-{_name}"] = (_latency, _network.bandwidth)


def whatif_rows():
    """Section 4: one prediction (P r = 162, 8 nodes) on other networks."""
    _, predicted = validation_pair("whatif", _lu(162, 8, pipelined=True))
    return {
        label: _with(predicted, platform={
            "calibrate": False,
            "options": {"latency": latency, "bandwidth": bandwidth},
        })
        for label, (latency, bandwidth) in NETWORKS.items()
    }


def table1(rows):
    """Payload elision moves no prediction; the prediction is the run's."""
    measured, serial = rows["testbed-8n"], rows["testbed-1n"]
    assert 120 < serial < 260
    assert 40 < measured < 110
    assert rows["pdexec"] == rows["noalloc"]
    error = relative_error(rows["noalloc"], measured)
    assert abs(error) < 0.12
    return {
        "measured_s": measured,
        "serial_s": serial,
        "predicted_pdexec_s": rows["pdexec"],
        "predicted_noalloc_s": rows["noalloc"],
        "error": error,
    }


def ablation(rows):
    """Contention, the switch fabric and flow control each shape the time."""
    measured, star = rows["testbed"], rows["star"]
    # Ignoring contention (the MPI-SIM/COMPASS assumption) underpredicts.
    assert rows["analytic"] < star
    assert abs(star - measured) <= abs(rows["analytic"] - measured)
    # Max-min hands leftover bandwidth on; at this size (not at n = 1296,
    # see docs/fidelity.md) that makes it predict no slower.
    assert rows["maxmin"] <= star
    fabric = [rows[f"backplane-{ratio}:1"] for ratio in BACKPLANE_RATIOS]
    assert fabric[0] <= 1.05 * star  # non-blocking: the paper's crossbar
    assert fabric == sorted(fabric)  # oversubscription only hurts
    assert fabric[-1] > 1.05 * star
    credits = {limit: rows[f"fc{limit}"] for limit in FC_LIMITS}
    assert credits[1] == max(star, *credits.values())  # one credit starves
    assert min(credits.values()) <= 1.02 * star  # Fig. 6's interleaving
    return {
        "measured_s": measured,
        "star_s": star,
        "analytic_s": rows["analytic"],
        "maxmin_s": rows["maxmin"],
        "backplane_s": {f"{r}:1": t for r, t in zip(BACKPLANE_RATIOS, fabric)},
        "flow_control_s": credits,
    }


def apps(rows):
    """The prediction error stays in the paper's band beyond LU."""
    errors = {
        label: relative_error(rows[f"{label}/predicted"], rows[f"{label}/measured"])
        for label in APPS
    }
    assert all(abs(e) < 0.12 for e in errors.values())
    assert sum(abs(e) < 0.06 for e in errors.values()) >= len(errors) / 2
    return {"error": errors}


def whatif(rows):
    """More bandwidth or less latency never slows the prediction."""
    for a, (latency_a, bandwidth_a) in NETWORKS.items():
        for b, (latency_b, bandwidth_b) in NETWORKS.items():
            if latency_a <= latency_b and bandwidth_a >= bandwidth_b:
                assert rows[a] <= rows[b], (a, b)
    assert rows["gigabit"] < rows["fast-ethernet"]
    return {
        "predicted_s": rows,
        "gigabit_speedup": rows["fast-ethernet"] / rows["gigabit"],
    }


#: What the paper quotes, under the keys each view returns for ours.
PAPER = {
    "fig08": {"reference_s": 259.4, "best_r": 162, "best_measured_s": 72.5,
              "best_predicted_s": 75.5, "best_improvement": 3.6,
              "best_variant_improvement": "~1.03 each"},
    "fig09": {"reference_s": 101.8, "max_abs_error": 0.05},
    "fig10": {"reference_s": 84.2},
    "fig11": {"iter1_efficiency_8thr": 0.376, "iter1_efficiency_4thr": 0.602,
              "iter6_ratio_4thr_over_8thr": 2.0},
    "fig12": {"measured_s": "all five within ~85-105 s"},
    "fig13": {"count": 168, "within_4pct": 0.714, "within_6pct": 0.816,
              "within_12pct": "> 0.95"},
    "table1": {"measured_s": 62.3, "serial_s": 185.1, "predicted_direct_s": 60.7,
               "predicted_pdexec_s": 60.3, "predicted_noalloc_s": 59.9,
               "error": -0.0385},
    "ablation": {"contention": "modelled, unlike simulators that assume none",
                 "switch": "a full crossbar, never a bottleneck"},
    "apps": {"error": "LU only"},
    "whatif": {"gigabit_speedup": "vary l and b to value a faster network"},
}

#: Measured/predicted pairs of ``CONFIGS`` labels at matrix size ``n``.
Section = namedtuple("Section", "n seeds labels views")
#: One spec per row: ``rows()`` builds ``{label: spec}`` at paper size.
Rows = namedtuple("Rows", "rows views")
SECTIONS = {
    "full": Section(
        N, SEEDS, tuple(CONFIGS), (fig08, fig09, fig10, fig11, fig12, fig13)
    ),
    "reduced": Section(
        N // 2,
        (1,),
        (
            "4thr", "basic-r648-4n", "basic-r216-4n", "P-r324-4n", "P+FC-r324-4n",
            "PM-r648-4n", "P+PM-r648-4n", "P+PM+FC-r648-4n",
            "basic-r324-8n", "P-r324-8n", "P+FC-r324-8n",
            "kill4@1", "kill4@4", "kill2@2+2@3",
        ),
        (),  # tier-1 asserts this section's shape itself (test_fidelity.py)
    ),
    "table1": Rows(table1_rows, (table1,)),
    "ablation": Rows(ablation_rows, (ablation,)),
    "apps": Rows(apps_rows, (apps,)),
    "whatif": Rows(whatif_rows, (whatif,)),
}


# ---------------------------------------------------------------- running
def _rounded(value):
    if isinstance(value, dict):
        return {str(k): _rounded(v) for k, v in value.items()}
    return round(value, 4) if isinstance(value, float) else value


def _phases(record) -> dict:
    return {
        "efficiency": {p.label: repr(p.efficiency) for p in record.phases},
        "nodes": {p.label: repr(p.mean_nodes) for p in record.phases},
    }


def section_pair(name: str, label: str, seed: int) -> tuple:
    """One configuration's (testbed, sim) spec pair at a section's size."""
    scale = N // SECTIONS[name].n  # n, r and the PM sub-block shrink together
    options, events = CONFIGS[label]
    sized = {k: options[k] // scale for k in ("n", "r", "pm_subblock") if k in options}
    return validation_pair(label, {**options, **sized}, seed, events)


def run_section(name: str, jobs: int = 1) -> dict:
    """Regenerate one section of ``FIDELITY.json`` (views checked)."""
    section = SECTIONS[name]
    if isinstance(section, Rows):
        rows = section.rows()
        records = run_records(list(rows.values()), jobs)
        fresh = {"rows": {label: repr(r.makespan) for label, r in zip(rows, records)}}
        fresh["figures"] = check_views(name, fresh)
        return fresh
    n, seeds, labels, _ = section
    cases = [(label, seed) for seed in seeds for label in labels]
    specs = [spec for case in cases for spec in section_pair(name, *case)]
    records = run_records(specs, jobs)
    pairs = {}
    for (label, seed), measured, predicted in zip(cases, records[0::2], records[1::2]):
        entry = pairs[f"{label}/s{seed}"] = {
            "measured": repr(measured.makespan),
            "predicted": repr(predicted.makespan),
            "error": repr(relative_error(predicted.makespan, measured.makespan)),
        }
        if label in WITH_PHASES and seed == seeds[0]:
            entry["iteration_efficiency"] = repr(measured.mean_efficiency)
            entry["phases"] = {
                "measured": _phases(measured), "predicted": _phases(predicted)
            }
    fresh = {"n": n, "seeds": list(seeds), "pairs": pairs}
    fresh["figures"] = check_views(name, fresh)
    return fresh


def check_views(name: str, section: dict) -> dict:
    """Run every view of a section over its ``pairs`` or ``rows`` entries."""
    if "rows" in section:
        parsed = {label: float(text) for label, text in section["rows"].items()}
    else:
        parsed = {key: Pair(entry) for key, entry in section["pairs"].items()}
    return {
        view.__name__: {"paper": PAPER[view.__name__], "ours": _rounded(view(parsed))}
        for view in SECTIONS[name].views
    }


def differences(committed, fresh, path: str = "") -> list[str]:
    """``path: committed -> fresh`` for every leaf that differs."""
    if not (isinstance(committed, dict) and isinstance(fresh, dict)):
        return [] if committed == fresh else [f"{path}: {committed} -> {fresh}"]
    return [
        line
        for key in sorted(committed.keys() | fresh.keys())
        for line in differences(committed.get(key), fresh.get(key), f"{path}/{key}")
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--check", "--write"):
        parser.add_argument(flag, nargs="*", choices=list(SECTIONS), metavar="SECTION")
    parser.add_argument("--jobs", type=int, default=1, help="0 = one per CPU")
    args = parser.parse_args(argv)
    # A flag without names means every section.
    check, write = (
        SECTIONS if names == [] else names or () for names in (args.check, args.write)
    )
    document = json.loads(FIDELITY_JSON.read_text()) if FIDELITY_JSON.exists() else {}
    moved = []
    for name in (n for n in SECTIONS if n in check or n in write):
        fresh = run_section(name, args.jobs)
        for figure, claim in fresh["figures"].items():
            print(f"{name}/{figure}: paper {claim['paper']} ours {claim['ours']}")
        if name in check:
            moved += differences(document.get(name), fresh, name)
        if name in write:
            document[name] = fresh
    if write:
        FIDELITY_JSON.write_text(json.dumps(document, indent=1) + "\n")
    for line in moved:
        print(f"MOVED {line}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
