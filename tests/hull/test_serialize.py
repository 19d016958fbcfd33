"""Round-trip tests for the run-summary and certificate serializers.

A reproduction artefact is only useful if it survives the disk: a run
flattened with :func:`repro.hull.serialize.save_run` must load back
with every paper-relevant quantity intact, and a serialized certificate
must still *verify* after a JSON round trip -- while corrupted payloads
are rejected loudly, never silently deserialized.
"""

import json

import pytest

from repro.geometry import uniform_ball
from repro.hull import parallel_hull, sequential_hull
from repro.hull.certify import (
    CertificateError,
    HullCertificate,
    corrupt_certificate,
    make_certificate,
    verify_certificate,
)
from repro.hull.serialize import (
    graph_from_summary,
    load_summary,
    run_summary,
    save_run,
)


#: Each engine's one visibility kernel, keyed by its ``kernel=`` name.
ENGINE_OF = {"scalar": "objects", "batch": "soa"}


@pytest.mark.parametrize("d,kernel", [(2, "scalar"), (2, "batch"), (3, "batch")])
def test_run_summary_roundtrip(tmp_path, d, kernel):
    pts = uniform_ball(90, d, seed=d)
    run = parallel_hull(pts, seed=7, engine=ENGINE_OF[kernel], kernel=kernel)
    path = tmp_path / "run.json"
    save_run(run, path)
    loaded = load_summary(path)

    assert loaded["n"] == 90 and loaded["d"] == d
    assert loaded["counters"] == run.counters.as_dict()
    assert loaded["depth"] == run.dependence_depth()
    assert loaded["work"] == run.tracker.work
    assert loaded["span"] == run.tracker.span
    assert {frozenset(f) for f in loaded["hull_facets"]} == {
        frozenset(f.indices) for f in run.facets
    }
    # Kernel provenance survives the trip.
    assert loaded["kernel"] == run.exec_stats.kernel_stats
    if kernel == "batch":
        assert loaded["kernel"]["kernel"] == "soa[batch]"
        assert loaded["kernel"]["batched_signs"] > 0

    # The dependence graph rebuilt from disk reproduces the depth.
    graph = graph_from_summary(loaded)
    assert len(graph.order) == len(run.created)


def test_run_summary_scalar_default_kernel_field():
    pts = uniform_ball(40, 2, seed=1)
    seq = sequential_hull(pts, seed=3)
    # Sequential results carry no exec_stats.kernel_stats; the summary
    # still reports an explicit engine instead of omitting the field.
    summary = run_summary(parallel_hull(pts, seed=3))
    assert summary["kernel"]["kernel"] == "scalar"
    assert seq.facet_keys()  # the sequential run participated, too


def test_load_summary_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "repro.hull.run/999", "n": 1}))
    with pytest.raises(ValueError, match="unrecognised run summary schema"):
        load_summary(path)
    path.write_text(json.dumps({"n": 1}))
    with pytest.raises(ValueError, match="unrecognised run summary schema"):
        load_summary(path)


@pytest.mark.parametrize("d,kernel", [(2, "scalar"), (3, "batch")])
def test_certificate_roundtrip_reverifies(d, kernel):
    pts = uniform_ball(60, d, seed=d + 10)
    run = parallel_hull(pts, seed=5, engine=ENGINE_OF[kernel], kernel=kernel)
    cert = make_certificate(run)
    payload = json.dumps(cert.to_dict())
    back = HullCertificate.from_dict(json.loads(payload))
    verify_certificate(back, pts)
    assert back.facets == cert.facets
    assert back.vis_signs == cert.vis_signs


def test_certificate_rejects_wrong_schema():
    pts = uniform_ball(30, 2, seed=2)
    cert = make_certificate(parallel_hull(pts, seed=1))
    data = cert.to_dict()
    data["schema"] = "not-a-certificate"
    with pytest.raises(CertificateError, match="unknown certificate schema"):
        HullCertificate.from_dict(data)


@pytest.mark.parametrize(
    "mode", ["drop-facet", "flip-orientation", "duplicate-ridge", "tamper-vertex"]
)
def test_corrupted_certificate_fails_verification(mode):
    pts = uniform_ball(50, 2, seed=4)
    cert = make_certificate(parallel_hull(pts, seed=9, engine="soa"))
    verify_certificate(cert, pts)  # sanity: the honest one passes
    bad = corrupt_certificate(cert, mode, seed=3)
    # The tampered payload still parses (schema intact) ...
    parsed = HullCertificate.from_dict(json.loads(json.dumps(bad.to_dict())))
    # ... but cannot verify.
    with pytest.raises(CertificateError):
        verify_certificate(parsed, pts)


def test_tampered_payload_values_rejected():
    """Bit-level tampering below the schema layer: mangled points/facets
    must fail verification, not crash or pass."""
    pts = uniform_ball(40, 3, seed=6)
    cert = make_certificate(parallel_hull(pts, seed=2))
    data = json.loads(json.dumps(cert.to_dict()))
    data["facets"] = data["facets"][:-1]  # drop one facet: open manifold
    with pytest.raises(CertificateError):
        verify_certificate(HullCertificate.from_dict(data), pts)

    hull_vertices = {i for f in cert.facets for i in f}
    outsider = next(i for i in range(pts.shape[0]) if i not in hull_vertices)
    moved = pts.copy()
    moved[outsider] *= 100.0  # now strictly outside every claimed facet
    with pytest.raises(CertificateError):
        verify_certificate(cert, moved)  # certificate of different points
