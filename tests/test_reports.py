"""Report bytes of the benchmark's operations, pinned by SHA-256.

Each case is one invocation of ``perfbench/workloads.py``'s ``WORKLOADS``,
copied here with the seed the benchmark gives it (0 where an op fixes none,
2029 for ``schulman-paths``), run in-process through ``cli.main``.  A change
that alters one of these reports updates its digest here and says why.
"""

import hashlib

import pytest

from belllab import cli


def _chsh(model: str, workers: str) -> tuple[str, ...]:
    return ("run-chsh", "--model", model, "--samples", "1000000", "--workers", workers,
            "--seed", "0")


REPORT_DIGESTS = {
    _chsh("hall", "1"):
        "c0d831155cef8c9ae7e390c23a50b7b703aa12b5135dba81023f52b02faa7b08",
    _chsh("delta-mixture", "1"):
        "fc4ae7333bbae273fe6525b265001d8adb8df983ef291a661ba3e1a12ff6f377",
    _chsh("local-baseline", "1"):
        "673cc75c47d86ad24591313fc55f2733079f17a61b609029c02e51ee76ac3728",
    _chsh("pr-box", "1"):
        "34530a7b51e056a406b31cbea9bbe260e81abbd3e3af387abb4333358cf3172b",
    _chsh("hall", "2"):
        "c0d831155cef8c9ae7e390c23a50b7b703aa12b5135dba81023f52b02faa7b08",
    ("scan-settings", "--model", "hall", "--grid", "16", "--seed", "0"):
        "60aacfeb20627ddaf9d70cdb88d223ecf01ac44dbd0ec4f1f7b27ef30eb9bf70",
    ("scan-settings", "--model", "delta-mixture", "--grid", "16", "--seed", "0"):
        "5ac182f6a94f418b611f8996183faac473fd38428f7bd8d414f086d21d71aecb",
    ("mutual-info", "--lambda-grid", "2048", "--settings-grid", "64", "--seed", "0"):
        "7d5df54c8c05ad6285199c71d5733a5479df72d4e7104cb16a30015018a533d2",
    ("schulman-paths", "--gamma", "1e-3", "--steps", "100", "--samples", "100000",
     "--seed", "2029"):
        "91186e2228e8614013f2f92d0514b13e37448f3634aa75418dc67bfc4427f32a",
    ("two-photon", "--gamma", "1e-4", "--pair", "0,0.125pi", "--seed", "0"):
        "22b4fb1ffbba012aca3c8d02a07ddd8692fa41ddc891f633e1b02ddba8b72bca",
    ("run-chsh", "--model", "schulman-2", "--gamma", "1e-5", "--seed", "0"):
        "bb2a81d45a34a1587fdab94dfc9c490d3963c98a70337ab21d4c619213a3ed84",
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
def test_benchmark_report_bytes_are_pinned(argv, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_DIGESTS[argv]
