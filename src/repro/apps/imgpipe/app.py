"""A pipelined image-processing farm.

The canonical DPS introductory application (paper Fig. 1): a split
distributes tiles of every frame, leaf operations run a two-stage filter
chain, and a merge collects the results.  Frames stream through the graph
back to back, so computation and communication overlap — the behaviour the
simulator's dynamic-efficiency output makes visible.

This app is intentionally simple; the examples use it to demonstrate the
public API before moving on to the LU evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.dps.data_objects import DataObject
from repro.dps.deployment import Deployment
from repro.dps.flowgraph import FlowGraph
from repro.dps.operations import (
    Compute,
    KernelSpec,
    LeafOperation,
    MergeOperation,
    Post,
    SplitOperation,
    StreamOperation,
)
from repro.dps.routing import Constant, RoundRobin
from repro.dps.runtime import Runtime
from repro.errors import ConfigurationError
from repro.sim.modes import SimulationMode


@dataclass(frozen=True)
class ImagePipelineConfig:
    """A stream of frames cut into tiles and filtered in parallel."""

    frames: int = 8
    tiles_per_frame: int = 16
    tile_pixels: int = 256 * 256
    flops_per_pixel: float = 40.0
    num_threads: int = 4
    num_nodes: int = 4
    mode: SimulationMode = SimulationMode.PDEXEC_NOALLOC

    def __post_init__(self) -> None:
        if self.frames < 1 or self.tiles_per_frame < 1:
            raise ConfigurationError("frames and tiles_per_frame must be >= 1")

    @property
    def tile_bytes(self) -> float:
        return 4.0 * self.tile_pixels  # RGBA bytes


def _filter_spec(cfg: ImagePipelineConfig, stage: str) -> KernelSpec:
    return KernelSpec(
        f"filter_{stage}",
        flops=cfg.flops_per_pixel * cfg.tile_pixels,
        working_set=2.0 * cfg.tile_bytes,
        params={"stage": stage},
    )


class _FrameSplit(SplitOperation):
    """Cut one frame into tiles."""

    def __init__(self, cfg: ImagePipelineConfig) -> None:
        self.cfg = cfg

    def run(self, ctx, obj):
        frame = obj.get("frame")
        for t in range(self.cfg.tiles_per_frame):
            yield Compute(KernelSpec("tile_cut", flops=2000.0), None)
            yield Post(
                DataObject(
                    "tile",
                    meta={"frame": frame, "tile": t},
                    declared_size=self.cfg.tile_bytes,
                )
            )


class _Filter(LeafOperation):
    """One filter stage over one tile."""

    def __init__(self, cfg: ImagePipelineConfig, stage: str) -> None:
        self.cfg = cfg
        self.stage = stage

    def run(self, ctx, obj):
        yield Compute(_filter_spec(self.cfg, self.stage), None)
        yield Post(
            DataObject(
                "tile",
                meta=dict(obj.meta),
                declared_size=self.cfg.tile_bytes,
            )
        )


class _FrameMerge(MergeOperation):
    """Reassemble a frame from its filtered tiles."""

    def __init__(self, cfg: ImagePipelineConfig) -> None:
        self.cfg = cfg

    def initial_state(self, ctx) -> list:
        return []

    def combine(self, ctx, state, obj):
        state.append(obj.get("tile"))
        return None

    def finalize(self, ctx, state):
        frame_meta = {"tiles": len(state)}
        yield Compute(KernelSpec("frame_assemble", flops=5000.0), None)
        yield Post(DataObject("frame_done", meta=frame_meta, declared_size=0.0))


class _Sink(StreamOperation):
    """Count completed frames; finish after the last one."""

    def __init__(self, cfg: ImagePipelineConfig) -> None:
        self.cfg = cfg

    def instance_key(self, obj: DataObject) -> Any:
        return "frames"

    def initial_state(self, ctx) -> dict:
        return {"done": 0}

    def combine(self, ctx, state, obj):
        state["done"] += 1
        ctx.mark_phase(f"frame{state['done']}")
        if state["done"] == self.cfg.frames:
            ctx.finish_instance()
        return None


class ImagePipelineApplication:
    """Frames -> split into tiles -> 2-stage filter farm -> merge."""

    def __init__(self, cfg: ImagePipelineConfig) -> None:
        self.cfg = cfg

    def build_graph(self) -> FlowGraph:
        cfg = self.cfg
        g = FlowGraph(f"imgpipe-{cfg.frames}f")
        g.add_split("split", lambda: _FrameSplit(cfg), group="main")
        g.add_leaf("denoise", lambda: _Filter(cfg, "denoise"), group="workers")
        g.add_leaf("sharpen", lambda: _Filter(cfg, "sharpen"), group="workers")
        g.add_merge("assemble", lambda: _FrameMerge(cfg), group="main", closes="split")
        g.add_keyed_stream("sink", lambda: _Sink(cfg), group="main")
        g.connect("split", "denoise", RoundRobin())
        g.connect("denoise", "sharpen", RoundRobin())
        g.connect("sharpen", "assemble", Constant(0))
        g.connect("assemble", "sink", Constant(0))
        return g

    def build_deployment(self) -> Deployment:
        cfg = self.cfg
        dep = Deployment(cfg.num_nodes)
        dep.add_singleton("main", 0)
        dep.add_group(
            "workers", [t % cfg.num_nodes for t in range(cfg.num_threads)]
        )
        return dep

    def bootstrap(self, runtime: Runtime) -> None:
        for f in range(self.cfg.frames):
            runtime.inject(
                "split", DataObject("frame", meta={"frame": f}, declared_size=0.0)
            )

    def migration_planner(self):
        return None
