"""Paper fidelity: Figs. 8-13 as one table of measured-vs-predicted pairs.

The paper's evidence is one experiment repeated: **measure** an LU
configuration on the cluster (``testbed`` engine), **predict** it with the
simulator on the platform calibrated against that cluster (``sim``
engine), compare.  ``CONFIGS`` holds the 34 configurations of Figs. 8-12
once; every pair is two scenario specs (``validation_pair``) run through
``repro.analysis.parallel.run_records``.  A *view* per figure reads its
pairs, asserts the shape the figure must show and returns our values for
the ones the paper quotes (``PAPER``).

``FIDELITY.json`` at the repo root keeps two sections, every float as its
``repr``: ``full`` (n = 2592, five measurement seeds, 170 pairs, six
views; minutes) and ``reduced`` (n and r halved, so the column-block
counts and ``iter<k>`` labels are the paper's; seed 1; the subset tier-1
replays in ~3 s).  ``--check [SECTION ..]`` regenerates and exits 1 on any
difference from the committed file, ``--write`` stores what it
regenerated; see ``docs/fidelity.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from pathlib import Path

from repro.analysis.metrics import relative_error
from repro.analysis.parallel import run_records
from repro.analysis.prediction import PredictionStudy, validation_pair

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
}

Section = namedtuple("Section", "n seeds labels views")
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
    n, seeds, labels, _ = SECTIONS[name]
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
    figures = check_views(name, pairs)
    return {"n": n, "seeds": list(seeds), "pairs": pairs, "figures": figures}


def check_views(name: str, pairs: dict) -> dict:
    """Run every view of a section over its pair entries."""
    parsed = {key: Pair(entry) for key, entry in pairs.items()}
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
