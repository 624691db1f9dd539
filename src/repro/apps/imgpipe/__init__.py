"""Split/merge image-processing farm (quickstart example application)."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "ImagePipelineApplication": "repro.apps.imgpipe.app",
        "ImagePipelineConfig": "repro.apps.imgpipe.app",
    },
)
