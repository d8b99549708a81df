"""The random stream, pinned: seeded statistics and transcripts of fixed experiments.

Each experiment is a ``qwitness simulate`` command line, so the table
stays valid however the library spells its parameters. A refactor that
claims to keep the random stream must leave every pinned value equal:
the trial and success counts, the exact bits of both fidelity sums, and
a digest of the first transcripts' JSONL. The JSONL leaves out each
event's declared dependencies and time window, so a second table pins
the event graph of the same transcripts.
"""

import hashlib
import json

import pytest

from qwitness import cli
from qwitness.harness import run_trial, run_trials

TRIALS = 200
SEED = 7
TRANSCRIPTS = 20

# name -> (flags, n_trials, successes, value_sum.hex(), value_sumsq.hex(), sha256)
PINNED = {
    'classical1-honest': (
        '--protocol classical1 --d 3 --alice honest --eps-c-target 0.1',
        200, 186, '0x0.0p+0', '0x0.0p+0',
        '97d8341cf81f27c32c3811dd3676a25c98bb40182bd6a4906fcfb939bfe2e436',
    ),
    'classical1-ignorant': (
        '--protocol classical1 --d 3 --alice ignorant',
        200, 64, '0x0.0p+0', '0x0.0p+0',
        'e695a86f6cd25b2291f0e661917c726dbb0cfea754d0f76e392ee0c79fd3b8b1',
    ),
    'classical1-subspace-2': (
        '--protocol classical1 --d 4 --alice subspace-2',
        200, 105, '0x0.0p+0', '0x0.0p+0',
        '046587c12ad796c26a1816a69d65ff7271d36a2a3a27f1aabafbf312c79bc2e0',
    ),
    'classical1-substitute': (
        '--protocol classical1 --d 3 --alice honest --eps-c-target 0.1 --bob substitute --metric mean-fsq',
        200, 0, '0x1.54ccccccccce0p+7', '0x1.30cccccccccd8p+7',
        'e9b3fdf5b8aa3bf894a3e309f93818e0e99947d090457778d05c984abd6b7531',
    ),
    'classical1-retain-guess': (
        '--protocol classical1 --d 2 --alice honest --eps-c-target 0.1 --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.5000000000013p+7', '0x1.2c0000000000bp+7',
        '6f6d11984dc20a3c7aa70874739efa205db3f856342ed33481a574a6ae5ce905',
    ),
    'classical2-skip': (
        '--protocol classical2 --d 4 --q 2 --alice honest --eps-c-target 0.1 --bob skip --metric mean-fsq',
        200, 0, '0x1.3ce68ca193ed9p+6', '0x1.3c10c1292cdcfp+5',
        'f366b6b084fa6479f04216a896310b057b14f116173fb540cdf0f67ad21045ad',
    ),
    'classical2-ignorant': (
        '--protocol classical2 --d 4 --q 2 --alice ignorant',
        200, 100, '0x0.0p+0', '0x0.0p+0',
        '72f97de25da852b0067753f938a529ee71a83c7c005f32d79a31f2346634a70a',
    ),
    'a2b-n0': (
        '--protocol a2b --d 2 --n 0 --alice ignorant',
        200, 200, '0x0.0p+0', '0x0.0p+0',
        'd48780a0ac603436bdbe4518a8a104a8e0df888fc07a4a1d6aea246ddc7ebacc',
    ),
    'a2b-ignorant': (
        '--protocol a2b --d 2 --n 2 --alice ignorant',
        200, 142, '0x0.0p+0', '0x0.0p+0',
        '60227eeef4047d3ab2d3492271325453a5dadf3706697b3cf579b2e8b46c0423',
    ),
    'a2b-subspace-2': (
        '--protocol a2b --d 3 --n 2 --alice subspace-2',
        200, 141, '0x0.0p+0', '0x0.0p+0',
        '6214fd0a8228acb1510036b58da9cc4eb303ad8494bc05abf53a44d01ce86522',
    ),
    'a2b-honest-retain-guess': (
        '--protocol a2b --d 3 --n 2 --alice honest --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.fe66628dc2a74p+6', '0x1.615eed625f38bp+6',
        '62cec77e9a6920df7298b3fbdd1b19755958a171f1991b1aad6271508a63bfea',
    ),
    'a2b-ignorant-retain-guess': (
        '--protocol a2b --d 3 --n 2 --alice ignorant --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.9acf79cedc53cp+6', '0x1.f4b68242e7333p+5',
        '6590f837bc48e9c7b487156cacd92c6e30a5d6164228a7be1ce224ae19b179bf',
    ),
    'a2b-substitute': (
        '--protocol a2b --d 2 --n 2 --alice honest --bob substitute --metric mean-fsq',
        200, 0, '0x1.15d5d0358f566p+7', '0x1.ab9af553a1a58p+6',
        '60227eeef4047d3ab2d3492271325453a5dadf3706697b3cf579b2e8b46c0423',
    ),
    'a2b-skip': (
        '--protocol a2b --d 4 --n 1 --alice honest --bob skip --metric mean-fsq',
        200, 0, '0x1.5ac7556965ee0p+6', '0x1.748394e9c7ae8p+5',
        'ae4a509084e73373aaa0887604a660d52471b29537e75e108556c08cb7eb4052',
    ),
    'b2a-honest': (
        '--protocol b2a --d 2 --n 4 --q 2 --alice honest',
        200, 147, '0x0.0p+0', '0x0.0p+0',
        'e55ed9ddd245d17f370a8a24e67ec4094e47758205869a82f6e27d72ba79b76a',
    ),
    'b2a-steal': (
        '--protocol b2a --d 2 --n 9 --q 2 --alice steal --metric alice-mean-fsq',
        200, 0, '0x1.133af312875eap+7', '0x1.a91fdf79fa97cp+6',
        '501ead058608fde17ada1226a80668e1a309da88b1a776a75c9e745ad09ce856',
    ),
    'b2a-ignorant-retain-guess': (
        '--protocol b2a --d 4 --n 4 --q 2 --alice ignorant --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.419c5260f8933p+6', '0x1.466f44d223690p+5',
        'cb5d4edc5a155eccc6776b8d106aa8d64baae7aea09701441faa542bef44aa0b',
    ),
    'b2a-honest-retain-guess': (
        '--protocol b2a --d 3 --n 4 --q 2 --alice honest --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.876efe3ff442dp+6', '0x1.d21ecfad1438ep+5',
        'fa6c3cd9127f7336c3e5032101261547a27411258e66307ce387ff478b5383c1',
    ),
    'b2a-ignorant': (
        '--protocol b2a --d 2 --n 4 --q 2 --alice ignorant',
        200, 67, '0x0.0p+0', '0x0.0p+0',
        '2f374317a87b5cef59cd5ccec7140caa6aa31b398d1cb4d3934fe90330327c16',
    ),
    'b2a-abort-honest': (
        '--protocol b2a-abort --d 2 --n 10 --q 6 --alice honest --metric abort-rate',
        200, 68, '0x0.0p+0', '0x0.0p+0',
        '7fd1c71afd5c24a617ee9583f90a05e2317d8353e23864b2caa6b09b21975057',
    ),
    'b2a-abort-always-abort': (
        '--protocol b2a-abort --d 2 --n 3 --q 1 --alice always-abort --metric abort-rate',
        200, 200, '0x0.0p+0', '0x0.0p+0',
        '770f305d913442162f7b91870e8cfef8a3da4a6d73a3114cc0964433a1cc892a',
    ),
}

# name -> sha256 of each event's (event_id, depends_on, window), first transcripts
GRAPH_PINNED = {
    'a2b-honest-retain-guess': '82f4ab54fa6e876f55f13f973d5b08ec8c951d127d960d42ce66bfb060808681',
    'a2b-ignorant': '82f4ab54fa6e876f55f13f973d5b08ec8c951d127d960d42ce66bfb060808681',
    'a2b-ignorant-retain-guess': '82f4ab54fa6e876f55f13f973d5b08ec8c951d127d960d42ce66bfb060808681',
    'a2b-n0': '82f4ab54fa6e876f55f13f973d5b08ec8c951d127d960d42ce66bfb060808681',
    'a2b-skip': 'ac550a6a1786c498d1cf5526ac922519ca051fc79269dcdb1e0af7863e95c2df',
    'a2b-subspace-2': '82f4ab54fa6e876f55f13f973d5b08ec8c951d127d960d42ce66bfb060808681',
    'a2b-substitute': '82f4ab54fa6e876f55f13f973d5b08ec8c951d127d960d42ce66bfb060808681',
    'b2a-abort-always-abort': '041d43f8516a3b77699eb027f03aa1af4ab103ae415451d0d8f4b0e008dd534d',
    'b2a-abort-honest': 'ccd6aaf264b4b3cfacb93ccd4d400ff6e1f93cea4f9d424f17a1eb191d16c5e1',
    'b2a-honest': 'cc34dbc7ca88aa0b8410b4416d124732e54f8fa3f956501b336fae730bbb7982',
    'b2a-honest-retain-guess': '602e062394baddf495a414e7a649d02b47863e0573cadc7539880144f09e947f',
    'b2a-ignorant': '4780b74a0169f373de7fe8bd1e0e311d76377138ba2a874bd6122b3030e70847',
    'b2a-ignorant-retain-guess': '7babaa9906490d29b652024ea48409979d4737f67bf64e523b9ed9be53cd134a',
    'b2a-steal': '1e6ad195933e4b35f99e29de36f0b9c6db96f857d9a83d4bc26ade8e04cb62ab',
    'classical1-honest': 'b7183e64cb4670616e0274797f7720967189b25c8d1a2b807280966fb192f858',
    'classical1-ignorant': 'f1b3508810f54069442e908768315226fb3011fc687373c2e8ef14a271ef4ac2',
    'classical1-retain-guess': '631395a06d17f2e4137fd568116ad34f3fb947557b97c3b696c5dd1b5b649108',
    'classical1-subspace-2': '344700dbbd60c8f545405b00a3a44183173f663784020711fb6ad7a69931c5bf',
    'classical1-substitute': '6249667469bed2cc0f9e2939a7757d5a225beb5c7b8ea29b609872a97fb865a4',
    'classical2-ignorant': '6b6843b526e7f5cea7646f9353f169052bdeb48cad401bf91dcb75a3fcee4c99',
    'classical2-skip': 'b0b80400d23a4ce8c50a61ed594d89e5236330a8a1052fe47219e39f15fee2a7',
}


def build_spec(flags: str):
    argv = ["simulate", *flags.split(), "--trials", str(TRIALS), "--seed", str(SEED)]
    return cli._build_spec(cli._parse_args(argv, cli.build_parser()))


def fingerprint(spec) -> tuple:
    stats = run_trials(spec)
    digest = hashlib.sha256()
    for i in range(TRANSCRIPTS):
        digest.update(run_trial(spec, i).transcript.to_jsonl().encode())
    return (
        stats.n_trials, stats.successes, stats.value_sum.hex(),
        stats.value_sumsq.hex(), digest.hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_random_stream_is_pinned(name):
    flags, *pinned = PINNED[name]
    assert fingerprint(build_spec(flags)) == tuple(pinned)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_event_graph_is_pinned(name):
    spec = build_spec(PINNED[name][0])
    digest = hashlib.sha256()
    for i in range(TRANSCRIPTS):
        for e in run_trial(spec, i).transcript.events:
            digest.update(json.dumps([e.event_id, e.depends_on, e.window]).encode() + b"\n")
    assert digest.hexdigest() == GRAPH_PINNED[name]
