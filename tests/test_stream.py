"""The random stream, pinned: seeded statistics and transcripts of fixed experiments.

Each experiment is a ``qwitness simulate`` command line, so the table
stays valid however the library spells its parameters. A refactor that
claims to keep the random stream must leave every pinned value equal:
the trial and success counts, the exact bits of both fidelity sums, and
a digest of the first transcripts' JSONL. The JSONL leaves out each
event's id and declared dependencies, so a second table pins the event
graph of the same transcripts.
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
        200, 175, '0x0.0p+0', '0x0.0p+0',
        '2cb9a7df7bcee093a2510ac957fed21e15b770542ae1bf19cccc0fc395d5f946',
    ),
    'classical1-ignorant': (
        '--protocol classical1 --d 3 --alice ignorant',
        200, 65, '0x0.0p+0', '0x0.0p+0',
        'bdcc6df3ee8091017cb135479d5d9488afe97b38b413b03efec14e8f76c1dfb5',
    ),
    'classical1-subspace-2': (
        '--protocol classical1 --d 4 --alice subspace-2',
        200, 101, '0x0.0p+0', '0x0.0p+0',
        '1e7c2e0b4bfa31eb5ace8e08e60a0b45aa4c162c86da303408025c15294bbfc9',
    ),
    'classical1-substitute': (
        '--protocol classical1 --d 3 --alice honest --eps-c-target 0.1 --bob substitute --metric mean-fsq',
        200, 0, '0x1.4b33333333346p+7', '0x1.273333333333ep+7',
        '798b52d5e97df8e0f983451e4f6ef3a256a651615f1423f3e0f1b4dc0d0913cf',
    ),
    'classical1-retain-guess': (
        '--protocol classical1 --d 2 --alice honest --eps-c-target 0.1 --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.5000000000013p+7', '0x1.2c0000000000bp+7',
        'bf644f53ffeac0cb02bcfafa9871e966371668f4c96729cc60b9c24860f162ae',
    ),
    'classical2-skip': (
        '--protocol classical2 --d 4 --q 2 --alice honest --eps-c-target 0.1 --bob skip --metric mean-fsq',
        200, 0, '0x1.42ae6fcf1c1cep+6', '0x1.3c0ec1442d149p+5',
        'f366b6b084fa6479f04216a896310b057b14f116173fb540cdf0f67ad21045ad',
    ),
    'classical2-ignorant': (
        '--protocol classical2 --d 4 --q 2 --alice ignorant',
        200, 102, '0x0.0p+0', '0x0.0p+0',
        '36deb96d312c6e9c3eda57b8c89d4a2a3848eb27e40d94120112ed1c5c48103a',
    ),
    'a2b-n0': (
        '--protocol a2b --d 2 --n 0 --alice ignorant',
        200, 200, '0x0.0p+0', '0x0.0p+0',
        'd48780a0ac603436bdbe4518a8a104a8e0df888fc07a4a1d6aea246ddc7ebacc',
    ),
    'a2b-ignorant': (
        '--protocol a2b --d 2 --n 2 --alice ignorant',
        200, 136, '0x0.0p+0', '0x0.0p+0',
        '777c52cadc5f318211b1cae672cb7c56b2b175ff62d1271ca159ba169f3acfc1',
    ),
    'a2b-subspace-2': (
        '--protocol a2b --d 3 --n 2 --alice subspace-2',
        200, 139, '0x0.0p+0', '0x0.0p+0',
        'c08bce365c750bd7bd5b635a5bdd033f9603c37d6ac83d8b17966a125e60d09b',
    ),
    'a2b-honest-retain-guess': (
        '--protocol a2b --d 3 --n 2 --alice honest --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.16bc9a16f7a02p+7', '0x1.9d92092eea951p+6',
        '62cec77e9a6920df7298b3fbdd1b19755958a171f1991b1aad6271508a63bfea',
    ),
    'a2b-ignorant-retain-guess': (
        '--protocol a2b --d 3 --n 2 --alice ignorant --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.9ff94f4513ff4p+6', '0x1.0206789df39c2p+6',
        '471e7079b7984050c5a2db242989b32eef0bc0699ed149d5b0a2bd4049715765',
    ),
    'a2b-substitute': (
        '--protocol a2b --d 2 --n 2 --alice honest --bob substitute --metric mean-fsq',
        200, 0, '0x1.0efe6d9ed1220p+7', '0x1.9a5b10c40b808p+6',
        '777c52cadc5f318211b1cae672cb7c56b2b175ff62d1271ca159ba169f3acfc1',
    ),
    'a2b-skip': (
        '--protocol a2b --d 4 --n 1 --alice honest --bob skip --metric mean-fsq',
        200, 0, '0x1.42f6e375eb9a7p+6', '0x1.46a0489172df9p+5',
        'ae4a509084e73373aaa0887604a660d52471b29537e75e108556c08cb7eb4052',
    ),
    'b2a-honest': (
        '--protocol b2a --d 2 --n 4 --q 2 --alice honest',
        200, 145, '0x0.0p+0', '0x0.0p+0',
        '7b6853c0fdb128efc4fa56f02236c167d604f758f421cbab90d542b10551a9e2',
    ),
    'b2a-steal': (
        '--protocol b2a --d 2 --n 9 --q 2 --alice steal --metric alice-mean-fsq',
        200, 0, '0x1.13a972c940a52p+7', '0x1.a547655f5fb13p+6',
        'f16f6b2ad152cfdfb6553e9e0a5815788b6234ff252a1bd3849da5a4c72b3925',
    ),
    'b2a-ignorant-retain-guess': (
        '--protocol b2a --d 4 --n 4 --q 2 --alice ignorant --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.44897c9006776p+6', '0x1.47cdf64717fddp+5',
        '3f16b19812306f96ebdfa31c20a3c801d94b2f24d24214b46daaa8226e434be3',
    ),
    'b2a-honest-retain-guess': (
        '--protocol b2a --d 3 --n 4 --q 2 --alice honest --bob retain-guess --metric mean-fsq',
        200, 0, '0x1.705da2477cf9ep+6', '0x1.ad5903dc04309p+5',
        '8a22830e96047fadb0969f243753ffc010c2b6a68e9d5c8cb63a023f3725ef16',
    ),
    'b2a-ignorant': (
        '--protocol b2a --d 2 --n 4 --q 2 --alice ignorant',
        200, 79, '0x0.0p+0', '0x0.0p+0',
        '06e413b4d7d97ffbb1ef9a72b63e885cf77e332938f9896f57b8f5e013328f67',
    ),
    'b2a-abort-honest': (
        '--protocol b2a-abort --d 2 --n 10 --q 6 --alice honest --metric abort-rate',
        200, 64, '0x0.0p+0', '0x0.0p+0',
        'a9df68e66caf59d2a4fedeecae043654c4f627c01c9e16ca12dc341e73f46e77',
    ),
    'b2a-abort-always-abort': (
        '--protocol b2a-abort --d 2 --n 3 --q 1 --alice always-abort --metric abort-rate',
        200, 200, '0x0.0p+0', '0x0.0p+0',
        '770f305d913442162f7b91870e8cfef8a3da4a6d73a3114cc0964433a1cc892a',
    ),
}

# name -> sha256 of each event's (event_id, depends_on), first transcripts
GRAPH_PINNED = {
    'a2b-honest-retain-guess': '9d759d9d5c92d42dd6c0cec744bde8827695cf173f93c2c4c204aedc51228a01',
    'a2b-ignorant': '9d759d9d5c92d42dd6c0cec744bde8827695cf173f93c2c4c204aedc51228a01',
    'a2b-ignorant-retain-guess': '9d759d9d5c92d42dd6c0cec744bde8827695cf173f93c2c4c204aedc51228a01',
    'a2b-n0': '9d759d9d5c92d42dd6c0cec744bde8827695cf173f93c2c4c204aedc51228a01',
    'a2b-skip': 'f9f838ff9c9640675c6ba155a2e47df196e61c58a297da0042420f3a95cb3f3a',
    'a2b-subspace-2': '9d759d9d5c92d42dd6c0cec744bde8827695cf173f93c2c4c204aedc51228a01',
    'a2b-substitute': '9d759d9d5c92d42dd6c0cec744bde8827695cf173f93c2c4c204aedc51228a01',
    'b2a-abort-always-abort': '9f4483b562becabb92b3670e9f68e441aa3eb5ae8fb6603f9d3959a44c012451',
    'b2a-abort-honest': 'df60cb94d0f0f1b47fc169fd389fa274383e8271d4ecc0751e40cb3164ce0c85',
    'b2a-honest': 'c5a3b12fa26d38e1d330f74ea6df8bb811a4ca229155d9c6dd32a734ace615f6',
    'b2a-honest-retain-guess': 'fd61ea49b77482a571e921ff6cf5bceaeed8af831dbc969a5d56aa495e32f357',
    'b2a-ignorant': '466f74f0d87682c9d0ed8b4371009ed1308db1496a22dabeccaef6d93e94e755',
    'b2a-ignorant-retain-guess': '23c9429cb284930455f49e5f370d8e8a5d52c26ae4d8f8955dea36b127201739',
    'b2a-steal': 'af2c364936925add6afa85c242ac059ef8eee4ec28a7bd3f0a320ee692089c79',
    'classical1-honest': 'ebec64a0ee657b728bdecf806671c095ae6d31d417df759b50d431012c315f17',
    'classical1-ignorant': 'fc48c1808b4501f87923612d7864033199f1e5d930fbe0384fbf74d90901ea91',
    'classical1-retain-guess': '7b62ed11f58bf1738f644e4b6ad52fc6864b2982cf44950c77aafbeb9a68169c',
    'classical1-subspace-2': 'b89694c09a4503cb5c59eeeee3bcd2583feeb49b12a0af6f844d2fed3e9e6a84',
    'classical1-substitute': '730792ce327837a86059a537876ea18d9bc678b4b085dd97b9c7d5587e7da3d4',
    'classical2-ignorant': 'abd61d117ed3a057c4f710a56c5f4bdbbd407fe8374f4ca5f1268c3499991591',
    'classical2-skip': 'ae6ba7b4cb0cd18af1bdc2e9764c551368d693b68a4ef457d22b9c089b699320',
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
            digest.update(json.dumps([e.event_id, e.depends_on]).encode() + b"\n")
    assert digest.hexdigest() == GRAPH_PINNED[name]
