import os

# Pin BLAS threading before numpy/ray import so float reductions are
# reproducible between the driver (oracle) and Ray workers.
for _v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_v, "1")

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_hparams():
    """Small model hyperparameters for fast tests (sizes are tunable in the
    reference too — hyperparameters.json; semantics don't depend on size)."""
    return dict(max_len=16, d_model=32, n_head=2, n_layers=2, d_linear=32)


@pytest.fixture(scope="session")
def exchange_width():
    """``with exchange_width(p):`` plans every derived-data exchange inside
    the block at width ``p``, by setting the width's one owner,
    ``stages.shuffle.partitions_for``."""
    import contextlib

    from post_ocr_corrector_ray.stages import shuffle

    @contextlib.contextmanager
    def at(p: int):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shuffle, "partitions_for", lambda: p)
            yield

    return at
