"""repro.pool: a virtualized pool of simulated VAPRES devices.

Serves stream jobs across N devices the way a cluster serves
containers across hosts, in three layers:

* **virtualization** (:mod:`~repro.pool.devices`,
  :mod:`~repro.pool.scheduler`) -- accepted jobs wait in one pool-wide
  ready list and request *virtual PRRs* that a deterministic scheduler
  grants against one overcommitted pool-wide bound; each idle device
  takes the first granted job that fits it, with the device's
  quarantined PRRs, and the worker's own admission controller places
  the stages.  Device loss stops dispatches to the device and drains
  its running job;
* **front door** (:mod:`~repro.pool.server`,
  :mod:`~repro.pool.client`) -- a stdlib-asyncio NDJSON-over-HTTP
  endpoint (``python -m repro serve --listen``) for streaming
  multi-tenant submissions and live lifecycle telemetry, bridged to
  per-device worker processes (:mod:`~repro.pool.bridge`);
* **batch** (:mod:`~repro.pool.batch`) -- :func:`run_batch` serves a
  list of independent jobs to completion and returns one
  :class:`~repro.runtime.telemetry.FleetReport` (``serve`` in fleet
  mode, fault campaigns, the fleet benchmark).

The pool carries the live observability plane from
:mod:`repro.obs.live`: per-job trace ids stitched across the bridge
(``GET /metrics`` live snapshots, the ``GET /events`` firehose, and
per-device flight recorders dumped on loss/quarantine).

Dispatch never changes results: every job runs single-tenant with a
name-derived seed, so a pool run is bit-identical to a single-device
run of the same jobs under the same quarantine set.
"""

from repro.pool.batch import run_batch
from repro.pool.bridge import WorkerBridge
from repro.pool.client import (
    ClientError,
    PoolClient,
    get_json,
    post_json,
    request_shutdown,
    run_jobs,
    run_jobs_sync,
    stream_events,
)
from repro.pool.devices import (
    DevicePool,
    PoolError,
    PoolJob,
    PooledDevice,
)
from repro.pool.scheduler import PoolScheduler
from repro.pool.server import PoolServer

__all__ = [
    "ClientError",
    "DevicePool",
    "PoolClient",
    "PoolError",
    "PoolJob",
    "PoolScheduler",
    "PoolServer",
    "PooledDevice",
    "WorkerBridge",
    "get_json",
    "post_json",
    "request_shutdown",
    "run_batch",
    "run_jobs",
    "run_jobs_sync",
    "stream_events",
]
