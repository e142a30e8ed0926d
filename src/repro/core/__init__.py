"""``repro.core`` — the AIRCHITECT v2 contribution.

Encoder-decoder transformer model (Fig. 2), stage-1 contrastive +
performance training (§III-C), stage-2 UOV decoder training (§III-D),
one-shot inference metrics, and the model-level deployment pipeline
(§III-E).
"""

from .deployment import DeploymentEvaluator, DeploymentResult
from .inference import (BatchedDSEPredictor, DSEPredictor, PredictionMetrics,
                        evaluate_model, evaluate_predictions)
from .model import (HEAD_STYLES, AirchitectDecoder, AirchitectEncoder,
                    AirchitectV2, ModelConfig, PerformanceHead)
from .stage1 import Stage1Config, Stage1Trainer, contrastive_labels
from .stage2 import Stage2Config, Stage2Trainer

__all__ = [
    "ModelConfig", "AirchitectV2", "AirchitectEncoder", "AirchitectDecoder",
    "PerformanceHead", "HEAD_STYLES",
    "Stage1Config", "Stage1Trainer", "contrastive_labels",
    "Stage2Config", "Stage2Trainer",
    "DSEPredictor", "BatchedDSEPredictor",
    "PredictionMetrics", "evaluate_model", "evaluate_predictions",
    "DeploymentEvaluator", "DeploymentResult",
]
