"""Where the traced run wraps each layer, and the per-layer metrics it reports.

Every wrap point is the name a caller looks the callable up by, so the
library's own calls go through the wrapper:

=====================  ==================================================
layer span             wrapped at
=====================  ==================================================
surfaces.project       ``TiltedTorus.project`` (tube, FD Jacobian, probes)
surfaces.distance      ``TiltedTorus.distance`` (tube scan, probes)
surfaces.normal        ``TiltedTorus.normal`` (tube, probes)
geometry.jacobian      ``ctquad.ibim3d.projection_jacobian``
geometry.probe         ``ctquad.ibim3d.surface_probe``
ibim3d.tube            ``ctquad.ibim3d.build_tube``
ibim3d.eval            ``ctquad.ibim3d.evaluate_V3``
kernels3d.frame        ``ctquad.ibim3d.build_frame``, ``CubicSurfaceModel.from_probe``
kernels3d.expansion    ``ctquad.ibim3d.expansion_at_plane``
kernels3d.term         ``KernelExpansion.s0_term``, ``KernelExpansion.s1_term``
quad_core.term_build   ``SingularTerm.__init__``
quad_core.phi          ``SingularTerm.phi``
quad_core.rule         ``ctquad.cli.corrected_Qp``, ``composite_Up``, ``punctured_trapezoidal``
weights.interpolate    ``ctquad.ibim3d.interpolate_weights``
weights.dual           ``ctquad.weights.weights_dual`` (``cli.study_weights`` calls it there)
weights.build          ``ctquad.weights.build_weight_table``
=====================  ==================================================

``ctquad.ibim3d.plane_problems`` is wrapped for its count only (planes per
evaluation); its time stays in ``ibim3d.eval``.  Time inside spans run by
pool workers is not seen: ``weights.build`` is the parent's wall time.
"""
from __future__ import annotations

import math

import numpy as np

from ctquad import cli, ibim3d, kernels3d, quad_core, surfaces
from ctquad import weights as wt

from tracing import Tracer


def _n_points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _grid_nodes(grid) -> int:
    return int(np.prod(grid.shape))


def instrument(tracer: Tracer) -> None:
    """Install every wrapper; ``tracer.restore()`` removes them all."""
    torus = surfaces.TiltedTorus
    tracer.wrap(torus, "project", "surfaces.project",
                lambda a, k, r: {"surfaces.project_points": _n_points(a[1])})
    tracer.wrap(torus, "distance", "surfaces.distance")
    tracer.wrap(torus, "normal", "surfaces.normal")
    tracer.wrap(ibim3d, "projection_jacobian", "geometry.jacobian")
    tracer.wrap(ibim3d, "surface_probe", "geometry.probe",
                lambda a, k, r: {"geometry.probe_calls": 1})
    tracer.wrap(ibim3d, "build_tube", "ibim3d.tube",
                lambda a, k, tube: {"ibim3d.tube_nodes": tube.n_nodes,
                                    "ibim3d.tube_scanned": math.prod(tube.shape)})
    tracer.wrap(ibim3d, "evaluate_V3", "ibim3d.eval",
                lambda a, k, r: {"ibim3d.evals": 1})
    tracer.wrap(ibim3d, "plane_problems", None,
                lambda a, k, planes: {"ibim3d.planes_total": len(planes)})
    tracer.wrap(ibim3d, "build_frame", "kernels3d.frame")
    tracer.wrap(kernels3d.CubicSurfaceModel, "from_probe", "kernels3d.frame")
    tracer.wrap(ibim3d, "expansion_at_plane", "kernels3d.expansion")
    tracer.wrap(kernels3d.KernelExpansion, "s0_term", "kernels3d.term")
    tracer.wrap(kernels3d.KernelExpansion, "s1_term", "kernels3d.term")
    tracer.wrap(quad_core.SingularTerm, "__init__", "quad_core.term_build")
    tracer.wrap(quad_core.SingularTerm, "phi", "quad_core.phi",
                lambda a, k, r: {"quad_core.phi_calls": 1})
    tracer.wrap(cli, "corrected_Qp", "quad_core.rule",
                lambda a, k, r: {"quad_core.nodes": _grid_nodes(a[3])})
    tracer.wrap(cli, "composite_Up", "quad_core.rule",
                lambda a, k, r: {"quad_core.nodes": _grid_nodes(a[3])})
    tracer.wrap(cli, "punctured_trapezoidal", "quad_core.rule",
                lambda a, k, r: {"quad_core.nodes": _grid_nodes(a[1])})
    tracer.wrap(ibim3d, "interpolate_weights", "weights.interpolate",
                lambda a, k, r: {"weights.interpolate_calls": 1})
    tracer.wrap(wt, "weights_dual", "weights.dual",
                lambda a, k, r: {"weights.dual_calls": 1})
    tracer.wrap(wt, "build_weight_table", "weights.build",
                lambda a, k, table: {"weights.points": table.grid_n ** 2})


def _pct_ms(durations: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(durations, q)) if durations else 0.0


def per_layer_values(tracer: Tracer, traced_s: float, overhead_s: float,
                     workers: int, accuracy: dict[str, float],
                     failed_ops: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    self_s = tracer.self_times()
    c = tracer.counts
    evals = c["ibim3d.evals"]
    scanned = c["ibim3d.tube_scanned"]
    points = c["weights.points"]
    build_s = sum(tracer.durations("weights.build"))
    out = {
        "surfaces.project_s": self_s.get("surfaces.project", 0.0),
        "surfaces.project_points": c["surfaces.project_points"],
        "surfaces.distance_s": self_s.get("surfaces.distance", 0.0),
        "surfaces.normal_s": self_s.get("surfaces.normal", 0.0),
        "geometry.jacobian_s": self_s.get("geometry.jacobian", 0.0),
        "geometry.probe_s": self_s.get("geometry.probe", 0.0),
        "geometry.probe_calls": c["geometry.probe_calls"],
        "ibim3d.tube_s": self_s.get("ibim3d.tube", 0.0),
        "ibim3d.tube_nodes": c["ibim3d.tube_nodes"],
        "ibim3d.tube_yield": c["ibim3d.tube_nodes"] / scanned if scanned else 0.0,
        "ibim3d.eval_self_s": self_s.get("ibim3d.eval", 0.0),
        "ibim3d.evals": evals,
        "ibim3d.planes": c["ibim3d.planes_total"] / evals if evals else 0.0,
        "ibim3d.eval_ms.p50": _pct_ms(tracer.durations("ibim3d.eval"), 50),
        "ibim3d.eval_ms.p90": _pct_ms(tracer.durations("ibim3d.eval"), 90),
        "kernels3d.frame_s": self_s.get("kernels3d.frame", 0.0),
        "kernels3d.expansion_s": self_s.get("kernels3d.expansion", 0.0),
        "kernels3d.term_s": self_s.get("kernels3d.term", 0.0),
        "quad_core.term_build_s": self_s.get("quad_core.term_build", 0.0),
        "quad_core.phi_s": self_s.get("quad_core.phi", 0.0),
        "quad_core.phi_calls": c["quad_core.phi_calls"],
        "quad_core.rule_s": self_s.get("quad_core.rule", 0.0),
        "quad_core.nodes": c["quad_core.nodes"],
        "quad_core.rule_ms.p50": _pct_ms(tracer.durations("quad_core.rule"), 50),
        "quad_core.rule_ms.p90": _pct_ms(tracer.durations("quad_core.rule"), 90),
        "weights.interpolate_s": self_s.get("weights.interpolate", 0.0),
        "weights.interpolate_calls": c["weights.interpolate_calls"],
        "weights.dual_s": self_s.get("weights.dual", 0.0),
        "weights.dual_calls": c["weights.dual_calls"],
        "weights.build_s": build_s,
        "weights.points": points,
        "weights.cpu_s_per_point": build_s * workers / points if points else 0.0,
        "order.min": accuracy.get("order.min", 0.0),
        "order_gap.max": accuracy.get("order_gap.max", 0.0),
        "oracle_gap.max": accuracy.get("oracle_gap.max", 0.0),
        "residual.max": accuracy.get("residual.max", 0.0),
        "failed_ops": failed_ops,
        "trace.wall_s": traced_s,
        "trace.unattributed_s": traced_s - sum(self_s.values()),
        "trace.overhead_s": overhead_s,
    }
    return {k: float(v) for k, v in out.items()}
