"""Two-view contrastive retrieval: InfoNCE training, GPS and DSS hard-negative
batches, retrieval metrics and a synthetic cross-view dataset generator."""

from .datasets import (
    Coordinate,
    EmbeddingTable,
    SampleRecord,
    SynthConfig,
    generate_synthetic,
    load_manifest,
    read_embeddings,
    write_embeddings,
    write_manifest,
)
from .errors import ValidationError
from .evaluation import (
    RetrievalReport,
    average_precision,
    evaluate,
    hit_rate,
    recall_at_k,
    recall_at_percent,
)
from .geo import GeoConfig, geo_topk, haversine_distance, planar_distance
from .losses import (
    LossConfig,
    LossOutput,
    clamp_logit_scale,
    info_nce,
    soft_margin_triplet_loss,
    triplet_loss,
)
from .sampler import (
    BatchPlan,
    SamplerConfig,
    build_geo_pools,
    build_sim_pools,
    pick_from_pool,
    plan_epoch,
    should_refresh,
)
from .simsearch import NeighborPool, Pools, cosine_matrix, l2_normalize, visual_topk
from .trainer import (
    EncoderParams,
    TrainConfig,
    TrainResult,
    adamw_step,
    encode,
    gradcheck,
    lr_at,
    train,
)

__version__ = "0.1.0"
