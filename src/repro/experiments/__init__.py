"""``repro.experiments`` — one runner per table/figure of §IV.

``python -m repro --help`` lists the runners.  Every runner accepts a scale
('tiny' | 'small' | 'full' or an :class:`ExperimentScale`) and an optional
:class:`Workspace` cache.
"""

from .common import (get_datasets, get_gandse, get_problem, get_v1, get_v2,
                     get_vaesa, stage_configs)
from .fig3 import run_fig3
from .fig4 import run_fig4
from .fig5 import run_fig5
from .fig7 import run_fig7
from .fig8a import run_fig8a
from .fig8b import DEFAULT_BUCKET_SWEEP, run_fig8b
from .fig9 import run_fig9
from .harness import SCALES, ExperimentScale, Workspace, get_scale, render_table
from .table2 import TABLE2_VARIANTS, run_table2
from .table3 import run_table3

__all__ = [
    "ExperimentScale", "SCALES", "get_scale", "Workspace", "render_table",
    "get_problem", "get_datasets", "get_v2", "get_v1", "get_gandse",
    "get_vaesa", "stage_configs",
    "run_table2", "TABLE2_VARIANTS", "run_table3",
    "run_fig3", "run_fig4", "run_fig5", "run_fig7", "run_fig8a",
    "run_fig8b", "DEFAULT_BUCKET_SWEEP", "run_fig9",
]
