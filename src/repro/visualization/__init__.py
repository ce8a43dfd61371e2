"""In-situ visualization of BCPNN training.

The paper introduces a StreamBrain visualization module built on ParaView
Catalyst: a co-processing adaptor triggered at the end of every epoch writes
the HCUs' receptive fields as VTI (VTK ImageData) files that a live ParaView
client can inspect while training runs (Section III-B, Fig. 2).

ParaView is not available in this environment, so this package implements
the pipeline itself: a standards-conforming VTK XML ImageData writer
(:mod:`~repro.visualization.vti`), a Catalyst-style co-processor and
training callback (:mod:`~repro.visualization.catalyst`), receptive-field
rendering helpers (:mod:`~repro.visualization.fields`), portable PGM/ASCII
image output (:mod:`~repro.visualization.images`) and a training-curve
recorder (:mod:`~repro.visualization.history`).  The VTI files produced are
readable by any ParaView installation.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "vti": ["write_vti", "ImageDataSpec"],
        "images": ["array_to_pgm", "ascii_render", "normalize_to_unit"],
        "fields": ["masks_to_image_grid", "mask_to_square_image", "receptive_field_summary"],
        "catalyst": ["CoProcessor", "CatalystAdaptor"],
        "history": ["TrainingCurveRecorder"],
    },
)
