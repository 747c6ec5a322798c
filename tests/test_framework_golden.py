"""Golden tripwire for the six training frameworks.

Every framework runs at the same three points (AlexNet on Cluster-B at 2
and 4 GPUs, GoogLeNet on Cluster-A at 8 GPUs), plus a handful of
variant points (S-Caffe designs, asynchronous parameter server, 1-bit
CNTK, refused runs).  Each point pins the extrapolated total time and
every phase-breakdown value as ``float.hex`` strings, the phase keys in
order, the failure and notes, and the simulator's event count — so a
refactor of the job classes must reproduce them bit for bit and event
for event.

The second half checks that the observers work on every framework: a
run with a :class:`SpanRecorder` and a :class:`TelemetrySession`
attached reports the same times as the bare run, a critical path that
tiles the makespan, and a telemetry digest.
"""

import pytest

from repro import Simulator, TrainConfig, make_cluster, train
from repro.core import run_cntk, run_param_server
from repro.prof import SpanRecorder
from repro.telemetry import TelemetrySession

POINTS = (("alexnet", "B", 2), ("alexnet", "B", 4), ("googlenet", "A", 8))
FRAMEWORKS = ("scaffe", "caffe", "nvcaffe", "cntk", "inspur", "mpicaffe")

#: Variant points: name -> (runner, network, cluster, GPUs, cfg overrides).
VARIANTS = {
    "scaffe[SC-B]/alexnet@B/4": ("scaffe", "alexnet", "B", 4,
                                 {"variant": "SC-B"}),
    "scaffe[SC-OB]/googlenet@A/8": ("scaffe", "googlenet", "A", 8,
                                    {"variant": "SC-OB"}),
    "scaffe[SC-OB-naive]/alexnet@B/4": ("scaffe", "alexnet", "B", 4,
                                        {"variant": "SC-OB-naive"}),
    "scaffe[test]/alexnet@A/8": ("scaffe", "alexnet", "A", 8,
                                 {"test_interval": 1}),
    "scaffe[weak]/googlenet@A/2": ("scaffe", "googlenet", "A", 2,
                                   {"scal": "weak", "batch_size": 4096}),
    "caffe[weak]/googlenet@A/2": ("caffe", "googlenet", "A", 2,
                                  {"scal": "weak", "batch_size": 4096}),
    "cntk[weak]/googlenet@A/2": ("cntk", "googlenet", "A", 2,
                                 {"scal": "weak", "batch_size": 4096}),
    "inspur/alexnet@B/1": ("inspur", "alexnet", "B", 1, {}),
    "inspur[async]/alexnet@A/4": ("inspur-async", "alexnet", "A", 4, {}),
    "cntk[1-bit]/alexnet@B/4": ("cntk-1bit", "alexnet", "B", 4, {}),
    "mpicaffe/alexnet@B/16": ("mpicaffe", "alexnet", "B", 16, {}),
}


def _run(runner, network, kind, n_gpus, overrides, observed=False):
    sim = Simulator()
    cluster = make_cluster(sim, kind)
    cfg = TrainConfig(network=network, batch_size=1024,
                      measure_iterations=2).derive(**overrides)
    if runner == "inspur-async":
        report = run_param_server(cluster, n_gpus, cfg, mode="async")
    elif runner == "cntk-1bit":
        report = run_cntk(cluster, n_gpus, cfg, quantization_bits=1)
    else:
        observers = ({"recorder": SpanRecorder(sim),
                      "telemetry": TelemetrySession()} if observed else {})
        report = train(runner, n_gpus=n_gpus, cluster=cluster, config=cfg,
                       **observers)
    return report, sim


def _pin(report, sim):
    return (float.hex(report.total_time), sim.event_count, report.failure,
            report.notes,
            tuple((k, float.hex(v))
                  for k, v in report.phase_breakdown.items()))


def _cases():
    for fw in FRAMEWORKS:
        for network, kind, n in POINTS:
            yield f"{fw}/{network}@{kind}/{n}", (fw, network, kind, n, {})
    yield from VARIANTS.items()


CASES = dict(_cases())

#: name -> (total_time hex, events, failure, notes, ((phase, hex), ...)).
GOLDEN = {
    'caffe/alexnet@B/2': (
        '0x1.5731d85182c0ep+8', 80, None,
        '',
        (
            ('propagation', '0x1.54ff21ca96ff8p-6'),
            ('fwd', '0x1.1e0b4b34b84c4p+0'),
            ('bwd', '0x1.1e0b0818d9c97p+1'),
            ('aggregation', '0x1.a6e362acd5680p-6'),
            ('update', '0x1.163de1acb2000p-8'),)),
    'caffe/alexnet@B/4': (
        '0x0.0p+0', 0, 'unsupported',
        'single-process design limited to 2 GPUs/node',
        ()),
    'caffe/googlenet@A/8': (
        '0x1.e935e6cf124a8p+6', 374, None,
        '',
        (
            ('propagation', '0x1.ce96d9ff42e6dp-8'),
            ('fwd', '0x1.978cedf3f007bp-2'),
            ('bwd', '0x1.978be18475fc4p-1'),
            ('aggregation', '0x1.1f1eb2d75b000p-7'),
            ('update', '0x1.086a61b115a55p-8'),)),
    'caffe[weak]/googlenet@A/2': (
        '0x0.0p+0', 0, 'oom',
        '',
        ()),
    'cntk/alexnet@B/2': (
        '0x1.5b38df97f30e0p+8', 3042, None,
        '',
        (
            ('fwd', '0x1.1e0b4b34b84c4p+0'),
            ('bwd', '0x1.1e0b0818d9c95p+1'),
            ('aggregation', '0x1.67e27dc58e8cbp-4'),
            ('update', '0x1.163de1acb2000p-8'),)),
    'cntk/alexnet@B/4': (
        '0x1.68bf093ecdab9p+7', 739, None,
        '',
        (
            ('fwd', '0x1.204377a9f44a9p-1'),
            ('bwd', '0x1.2042f1723744dp+0'),
            ('aggregation', '0x1.8aefc79497290p-4'),
            ('update', '0x1.163de1acb2000p-8'),)),
    'cntk/googlenet@A/8': (
        '0x1.f52de6ed7e74cp+6', 6952, None,
        '',
        (
            ('fwd', '0x1.978cedf3f007bp-2'),
            ('bwd', '0x1.978be18475fc4p-1'),
            ('aggregation', '0x1.8dcca8f57cd60p-5'),
            ('update', '0x1.086a61b115a55p-8'),)),
    'cntk[1-bit]/alexnet@B/4': (
        '0x1.587d5266d0039p+7', 943, None,
        '',
        (
            ('fwd', '0x1.204377a9f44a9p-1'),
            ('bwd', '0x1.2042f1723744fp+0'),
            ('aggregation', '0x1.effefa16dd0abp-7'),
            ('update', '0x1.163de1acb2000p-8'),)),
    'cntk[weak]/googlenet@A/2': (
        '0x0.0p+0', 0, 'oom',
        '',
        ()),
    'inspur/alexnet@B/1': (
        '0x0.0p+0', 0, 'unsupported',
        'comparator only ran at 2 and 4 GPUs',
        ()),
    'inspur/alexnet@B/2': (
        '0x1.571323751d558p+8', 113, None,
        '',
        (
            ('fwd', '0x1.1e0b4b34b84c4p+0'),
            ('bwd', '0x1.1e0b0818d9c97p+1'),
            ('aggregation', '0x1.a71b4f3b97c55p-6'),
            ('update', '0x1.163de1acb2000p-8'),
            ('propagation', '0x1.54ff21ca97000p-6'),)),
    'inspur/alexnet@B/4': (
        '0x1.72192be2a2d7dp+7', 5281, None,
        '',
        (
            ('fwd', '0x1.204377a9f44a9p-1'),
            ('bwd', '0x1.2042f1723744fp+0'),
            ('aggregation', '0x1.45094198b7505p-4'),
            ('update', '0x1.163de1acb2000p-8'),
            ('propagation', '0x1.05f82999ffec0p-4'),)),
    'inspur/googlenet@A/8': (
        '0x0.0p+0', 0, 'hang',
        'execution hangs after a few iterations (Section 6.4)',
        ()),
    'inspur[async]/alexnet@A/4': (
        '0x1.5df69abce2015p+7', 191, None,
        'dedicated server on rank 0; stale updates',
        (
            ('fwd', '0x0.0p+0'),
            ('bwd', '0x0.0p+0'),
            ('aggregation', '0x1.eb59854d76800p-7'),
            ('update', '0x1.82586bc632000p-11'),
            ('propagation', '0x0.0p+0'),)),
    'mpicaffe/alexnet@B/16': (
        '0x0.0p+0', 0, 'unsupported',
        'cannot split 8 weighted layers over 16 ranks (model parallelism is bounded by network depth)',
        ()),
    'mpicaffe/alexnet@B/2': (
        '0x1.55f13ccc64e7bp+9', 97, None,
        '',
        (
            ('fwd', '0x1.d18025c134cc8p+0'),
            ('bwd', '0x1.d17fe2a556498p+1'),
            ('activation_comm', '0x1.52fbbe60d847dp+0'),
            ('update', '0x1.076203bd90000p-8'),)),
    'mpicaffe/alexnet@B/4': (
        '0x1.59b5929fd9bd2p+9', 205, None,
        '',
        (
            ('fwd', '0x1.15d114ac2f9fep+0'),
            ('bwd', '0x1.15d0d190511d0p+1'),
            ('activation_comm', '0x1.cca972463955dp+1'),
            ('update', '0x1.06d49988e6aabp-8'),)),
    'mpicaffe/googlenet@A/8': (
        '0x1.e438041ae4b32p+9', 403, None,
        '',
        (
            ('fwd', '0x1.2d4efd33c293fp+0'),
            ('bwd', '0x1.2d4eba17e4110p+1'),
            ('activation_comm', '0x1.8617d2668c4cbp+2'),
            ('update', '0x1.06bd19e5b0d55p-8'),)),
    'nvcaffe/alexnet@B/2': (
        '0x1.3fbaf628c2243p+8', 80, None,
        '',
        (
            ('propagation', '0x1.54ff21ca96ff8p-6'),
            ('fwd', '0x1.0a056b7f2bd43p+0'),
            ('bwd', '0x1.0a0528634d516p+1'),
            ('aggregation', '0x1.a6e362acd5680p-6'),
            ('update', '0x1.163de1acb2000p-8'),)),
    'nvcaffe/alexnet@B/4': (
        '0x0.0p+0', 0, 'unsupported',
        'single-process design limited to 2 GPUs/node',
        ()),
    'nvcaffe/googlenet@A/8': (
        '0x1.c7c78354599ffp+6', 374, None,
        '',
        (
            ('propagation', '0x1.ce96d9ff42e6dp-8'),
            ('fwd', '0x1.7b05c56fe8a28p-2'),
            ('bwd', '0x1.7b04b9006e970p-1'),
            ('aggregation', '0x1.1f1eb2d75b000p-7'),
            ('update', '0x1.086a61b115a55p-8'),)),
    'scaffe/alexnet@B/2': (
        '0x1.5446819795526p+8', 1312, None,
        '',
        (
            ('propagation', '0x0.0p+0'),
            ('fwd', '0x1.1e1c122c59028p+0'),
            ('bwd', '0x1.1e2050c48b0dep+1'),
            ('aggregation', '0x1.1f54446c98f12p+1'),
            ('update', '0x1.163de1acb2000p-8'),
            ('test', '0x0.0p+0'),)),
    'scaffe/alexnet@B/4': (
        '0x1.5f24235f33ccbp+7', 21882, None,
        '',
        (
            ('propagation', '0x1.6c487b79e9b80p-7'),
            ('fwd', '0x1.2065059935b67p-1'),
            ('bwd', '0x1.2067aa923b8a9p+0'),
            ('aggregation', '0x1.274ee63b23c42p+0'),
            ('update', '0x1.163de1acb2000p-8'),
            ('test', '0x0.0p+0'),)),
    'scaffe/googlenet@A/8': (
        '0x1.e6a153ce8244cp+6', 16810, None,
        '',
        (
            ('propagation', '0x0.0p+0'),
            ('fwd', '0x1.998093729a2e8p-2'),
            ('bwd', '0x1.989afe6551d2bp-1'),
            ('aggregation', '0x1.9c4defa4014c8p-1'),
            ('update', '0x1.086a61b115a55p-8'),
            ('test', '0x0.0p+0'),)),
    'scaffe[SC-B]/alexnet@B/4': (
        '0x1.636ec447fb6c7p+7', 15575, None,
        '',
        (
            ('propagation', '0x1.68ad1b7155f73p-5'),
            ('fwd', '0x1.2065059935b67p-1'),
            ('bwd', '0x1.2042f1723744dp+0'),
            ('aggregation', '0x1.aa15b408a5555p-6'),
            ('update', '0x1.163de1acb2000p-8'),
            ('test', '0x0.0p+0'),)),
    'scaffe[SC-OB-naive]/alexnet@B/4': (
        '0x1.5a42ca284cd26p+7', 16010, None,
        '',
        (
            ('propagation', '0x0.0p+0'),
            ('fwd', '0x1.2065059935b68p-1'),
            ('bwd', '0x1.2042f1723744dp+0'),
            ('aggregation', '0x1.90ac19442a380p-6'),
            ('update', '0x1.163de1acb2000p-8'),
            ('test', '0x0.0p+0'),)),
    'scaffe[SC-OB]/googlenet@A/8': (
        '0x1.e3d0ddc34149ep+6', 8046, None,
        '',
        (
            ('propagation', '0x0.0p+0'),
            ('fwd', '0x1.998093729a2e8p-2'),
            ('bwd', '0x1.978be18475fc5p-1'),
            ('aggregation', '0x1.df502b77f4000p-9'),
            ('update', '0x1.086a61b115a55p-8'),
            ('test', '0x0.0p+0'),)),
    'scaffe[test]/alexnet@A/8': (
        '0x1.a08d35d6c2a93p+6', 6952, None,
        '',
        (
            ('propagation', '0x1.61fa1554a0555p-17'),
            ('fwd', '0x1.24f6ec72ef1e9p-2'),
            ('bwd', '0x1.24dd1667410c1p-1'),
            ('aggregation', '0x1.319512d2900cdp-1'),
            ('update', '0x1.163de1acb202bp-8'),
            ('test', '0x1.2d9482695c405p-3'),)),
    'scaffe[weak]/googlenet@A/2': (
        '0x0.0p+0', 0, 'oom',
        'needs 79789 MiB/GPU, capacity 12288 MiB',
        ()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    report, sim = _run(*CASES[name])
    assert _pin(report, sim) == GOLDEN[name]


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


#: Observed runs that do not reproduce the bare run.  CNTK's host-staged
#: transfers contend for one node's host-memcpy link at these points; a
#: recorder disables the batched staged-transfer trains (per-chunk spans
#: are needed), and the per-chunk path interleaves the contending chunks
#: where the batched train queues them, so the aggregation phase differs.
#: A transport defect, not a job-class one: a recorder that synthesizes
#: per-chunk spans for batched trains would remove it.
DIVERGING = {"cntk/alexnet@B/2", "cntk/googlenet@A/8"}


def _observed_cases():
    for name in sorted(CASES):
        if name in VARIANTS or GOLDEN[name][2] is not None:
            continue
        marks = (pytest.mark.xfail(strict=True, reason="staged trains "
                                   "off under the recorder")
                 if name in DIVERGING else ())
        yield pytest.param(name, marks=marks)


@pytest.mark.parametrize("name", _observed_cases())
def test_observers_are_passive(name):
    bare, _ = _run(*CASES[name])
    observed, _ = _run(*CASES[name], observed=True)
    assert observed.total_time == bare.total_time
    assert observed.phase_breakdown == bare.phase_breakdown
    profile = observed.profile
    assert profile is not None
    assert profile.cp_length == profile.makespan
    assert observed.telemetry is not None


def test_every_framework_has_an_observed_point():
    observed = {name.split("/")[0] for name in CASES
                if name not in VARIANTS and GOLDEN[name][2] is None
                and name not in DIVERGING}
    assert observed == set(FRAMEWORKS)
