"""Golden report digests: the CLI's stdout, exit code and stderr (less its
`elapsed:` line) for a fixed battery, pinned by sha256.

The digests were taken from the reports of the code as it stood before the
report frame, the command registry and the number grammar were each stated
once in `cli.main`, and they are kept unchanged: a report that changes by
one byte fails here.  Regenerate them only for a deliberate change of a
report, and say which reports changed and why.
"""

import contextlib
import hashlib
import io

import pytest

from tautsys.cli import main

ORDERINGS = ("grlex", "interior-first")
DENSE_D2 = "-3/4,2,-1,5/7,0,1,-2/3,4,-5,1/2"

#: command lines run in both basis orderings
ORDERED = [
    "build-system --d 1 --p 1 --degree-bound 2",
    "build-system --d 2 --degree-bound 2",
    "build-system --d 2 --p 1 --degree-bound 3",
    "verify-periods --d 1 --order 10",
    "verify-periods --d 1 --p 3 --order 8 --degree-bound 4",
    "verify-periods --d 2 --order 4 --degree-bound 3",
    "verify-periods --d 2 --p 1 --order 5 --degree-bound 2",
    "verify-periods --d 3 --order 2 --degree-bound 2",
    "verify-periods --d 3 --p 1 --order 2 --degree-bound 2",
    "verify-periods --d 2 --order 1 --degree-bound 2",
    "fourier --d 1",
    "fourier --d 2 --degree-bound 2",
    "membership --d 2 --fermat --alpha 2e0",
    "membership --d 1 --fermat --alpha e0",
    "membership --d 1 --fermat --alpha e1",
    "membership --d 1 --point 0,1,1 --alpha e1",
    "membership --d 1 --point=-3/4,2,-5 --alpha 2e0+e1",
    f"membership --d 2 --point={DENSE_D2} --alpha e1",
    f"membership --d 2 --point={DENSE_D2} --alpha e0+e4",
    "membership --d 2 --fermat --monomial 1,1,1",
    "scan --d 1 --alpha e0 --line 0,1,1;1,0,0;0,1,2",
    "scan --d 2 --alpha e1 --line 1,0,0,0,0,1,0,0,0,1;0,1,0,0,-1,0,0,0,2,0;"
    "0,1,-1/2",
    "surjectivity --d 2 --k 1 --l 1 --filtration 3",
    "surjectivity --d 1 --k 2 --l 2",
]
#: command lines that take no ordering
UNORDERED = [f"selftest --seed {seed}" for seed in range(5)]
BATTERY = [f"{argv} --ordering {ordering}"
           for argv in ORDERED for ordering in ORDERINGS] + UNORDERED


def report_digest(argv: str) -> tuple[int, str, str]:
    """Exit code and the sha256 of stdout and of stderr less `elapsed:`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    kept = "".join(line for line in err.getvalue().splitlines(True)
                   if not line.startswith("elapsed:"))
    return (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(kept.encode()).hexdigest())


GOLDEN = {
    'build-system --d 1 --p 1 --degree-bound 2 --ordering grlex':
        (0, 'd845a7d276a44cf6d721ca74f3cdf8e12ebdea6c665a77400847d5dd8b59b90c',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'build-system --d 1 --p 1 --degree-bound 2 --ordering interior-first':
        (0, '06972ad10449cce67fc548b2ec09ac46c2e080a1b9d57c5bfbbb514e913197a6',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'build-system --d 2 --degree-bound 2 --ordering grlex':
        (0, '7ea6b2508a91567de019a93ae10f87a4682d6dfab2da452a1001cc96fd5ae518',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'build-system --d 2 --degree-bound 2 --ordering interior-first':
        (0, 'a840fc7b39eef0bfbf4c0c0c120fd2d70108e7d1870802c79a3bd869ffcb9e9d',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'build-system --d 2 --p 1 --degree-bound 3 --ordering grlex':
        (0, 'e3ad3b454276d287cf74d4cbe0d82f7abc981f1c345cf9b235d40f91eefb46e3',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'build-system --d 2 --p 1 --degree-bound 3 --ordering interior-first':
        (0, '0d4ab08fcaef68536fddb88de1eeebe57101abaf264fdbfee9c8346545482477',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 1 --order 10 --ordering grlex':
        (0, '04c78b4187ed3411a7563f7e051c40bb010c8efc6536b0f971154f7ada53ba5d',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 1 --order 10 --ordering interior-first':
        (0, 'd59619709d257454d9e9338ff4d9ea62432c41496161005e0216f423a18f4ab9',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 1 --p 3 --order 8 --degree-bound 4 --ordering grlex':
        (0, '9959e385f065aea5ba97152292ca547c09d0ee31790d153575918b2f001522ac',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 1 --p 3 --order 8 --degree-bound 4 --ordering interior-first':
        (0, '558cc5b45286627c7c1387a3f5ad75327945f8683e304f8afbd3c066273c89c1',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 2 --order 4 --degree-bound 3 --ordering grlex':
        (0, '74b55dfc4caf554cb124651704e4faeb423c27ff33b5e716ec0bca4ec28b5a7c',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 2 --order 4 --degree-bound 3 --ordering interior-first':
        (0, 'b54b85602ca51dfb212cecd0d5ac32e117f43beead3011116a2843f1509b2b01',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 2 --p 1 --order 5 --degree-bound 2 --ordering grlex':
        (0, 'ba0183c39e5fe901a542a614378d890e9146c44606391b5552fe8fa547b923bf',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 2 --p 1 --order 5 --degree-bound 2 --ordering interior-first':
        (0, 'a5952785dbf4744c0716c4f806eee1808382741718804a922cc5f96d49322416',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 3 --order 2 --degree-bound 2 --ordering grlex':
        (0, 'df6444bac5cbe3eb4faef4a12531dd3be99890934f712442929a23314ddb5ad4',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 3 --order 2 --degree-bound 2 --ordering interior-first':
        (0, 'ad58f5d5e91974d8bab4650fac8e8d8c4fa7d7e38613a0b6a9c83e8f9f3cc6aa',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 3 --p 1 --order 2 --degree-bound 2 --ordering grlex':
        (0, 'b51e6397b26bf07ff031da0d7441ed5af8aba20da79264f79eebde21255c80c4',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 3 --p 1 --order 2 --degree-bound 2 --ordering interior-first':
        (0, '8f03a3b9699f47b5ce1cdd29ef7a33c1af00d5f91ddaab7d73ea9edacc87024a',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-periods --d 2 --order 1 --degree-bound 2 --ordering grlex':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'a74084d09cad03aa721708717c76d51a6efe17457d872ed9fb58f201a0a6a894'),
    'verify-periods --d 2 --order 1 --degree-bound 2 --ordering interior-first':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'a74084d09cad03aa721708717c76d51a6efe17457d872ed9fb58f201a0a6a894'),
    'fourier --d 1 --ordering grlex':
        (0, '03283f4e706b8b9839f4e3a1bb554e3097e9f1385b806c8f5fb9d03bb4903f9a',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fourier --d 1 --ordering interior-first':
        (0, '594c451a525cd75346d3b066b42e16983f36014c62d922760ec81ff314779dfd',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fourier --d 2 --degree-bound 2 --ordering grlex':
        (0, 'e658c734f49302bc11c841f7e9cbe15e35cd8c38c5712fa42f3d08914cdc6139',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fourier --d 2 --degree-bound 2 --ordering interior-first':
        (0, 'b4f0d71a3b58cb784020f85c35e52cdfc7371dffddabd9fe50a137430a5c2dc8',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 2 --fermat --alpha 2e0 --ordering grlex':
        (0, '45abb57a0d5b9796a87a7205b8e830c59cdc55a76e3af79aa52206f3f2e05268',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 2 --fermat --alpha 2e0 --ordering interior-first':
        (0, 'ff4cf93c69a62d40c059ee9ef3b66346d80548be9d6edc093105642146ab0f44',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 1 --fermat --alpha e0 --ordering grlex':
        (0, 'c1805f6bddfcb7989704e86679b54d84784b3e16fa83a9453a6045cd6e9b1051',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 1 --fermat --alpha e0 --ordering interior-first':
        (0, '332a0f24c22087c4b8f6bbafd33f4af7b24fe60a6a8e12663a9cfc4fd25461a2',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 1 --fermat --alpha e1 --ordering grlex':
        (0, '9245199aab5175968822e712fc3199e12ac349c0c93b962b06c7e14a6509cca1',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 1 --fermat --alpha e1 --ordering interior-first':
        (0, 'cb6cd959b5f1acdd04d9aca8dc0809608d72eb3341c4451ff2e79f6466aae329',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 1 --point 0,1,1 --alpha e1 --ordering grlex':
        (0, '38333123d89bf850994f34dcf39a5fd40d6ec2a6b6964a043c543a12cb8cf120',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 1 --point 0,1,1 --alpha e1 --ordering interior-first':
        (0, 'cb6cd959b5f1acdd04d9aca8dc0809608d72eb3341c4451ff2e79f6466aae329',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 1 --point=-3/4,2,-5 --alpha 2e0+e1 --ordering grlex':
        (0, '461be530a8434696d57f5bedbfff8c9f74f1233fc8bb7c92fb849a073ee99ce2',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 1 --point=-3/4,2,-5 --alpha 2e0+e1 --ordering interior-first':
        (0, '02ec087590b888f72a51654a4aa16674b553edf990d71a47f0a96d5fb52b0059',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 2 --point=-3/4,2,-1,5/7,0,1,-2/3,4,-5,1/2 --alpha e1 --ordering grlex':
        (0, 'dab8f508339c9848e1883e6d21f9aa60e63f3512c97d9d451c3f38cc428aaa25',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 2 --point=-3/4,2,-1,5/7,0,1,-2/3,4,-5,1/2 --alpha e1 --ordering interior-first':
        (0, 'ce7441d1a006503fcedfa799d5a50f5d0aad69c7c59f8371c95b42303450509a',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 2 --point=-3/4,2,-1,5/7,0,1,-2/3,4,-5,1/2 --alpha e0+e4 --ordering grlex':
        (0, '4912b3ecea22d17434c9814d98028fd1ef7088846e980ca73abba57e174c1953',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 2 --point=-3/4,2,-1,5/7,0,1,-2/3,4,-5,1/2 --alpha e0+e4 --ordering interior-first':
        (0, '46d96eaba592aa1fb9d179f86ad06decfe2d2e4092685b36dbf39dd0fe2d18bd',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 2 --fermat --monomial 1,1,1 --ordering grlex':
        (0, 'd75c58431f0947d588ed5d28453de61a902503004f66f76fab7b1f16597ba6cd',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'membership --d 2 --fermat --monomial 1,1,1 --ordering interior-first':
        (0, 'c5a6af23cb38d91b3ce373dc5f4e84d9a80da2bf635d29afde8fff29cd951efb',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'scan --d 1 --alpha e0 --line 0,1,1;1,0,0;0,1,2 --ordering grlex':
        (0, 'c8a0c9460c79a17ff708a303309a9c760d765f04756ab5d32a7252fa8bdb6eac',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'scan --d 1 --alpha e0 --line 0,1,1;1,0,0;0,1,2 --ordering interior-first':
        (0, '2b2d65a87be594303f1e98a4be3ab6a4a8de92590096bdb4e64811194d03fbd3',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'scan --d 2 --alpha e1 --line 1,0,0,0,0,1,0,0,0,1;0,1,0,0,-1,0,0,0,2,0;0,1,-1/2 --ordering grlex':
        (0, 'e96b12281b5d76f2a2337cdaaed26b942b82927d27389a4443303a213c2c9653',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'scan --d 2 --alpha e1 --line 1,0,0,0,0,1,0,0,0,1;0,1,0,0,-1,0,0,0,2,0;0,1,-1/2 --ordering interior-first':
        (0, 'f44eee530e6a23f2a6bd1330b153f0ba50e3169d56ff1c310e1c43e65e55aa40',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'surjectivity --d 2 --k 1 --l 1 --filtration 3 --ordering grlex':
        (0, 'b2471c8043e269c7e5999cc41c7a0798175e1077286237e2fb4019275a0c842c',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'surjectivity --d 2 --k 1 --l 1 --filtration 3 --ordering interior-first':
        (0, 'e4cf376a47baf2a919e6c63c4f10419197b322fe24d96eb5d9b5956abf65ca58',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'surjectivity --d 1 --k 2 --l 2 --ordering grlex':
        (0, '5f6f2024167a09bd5ea572c094c627d4695d7511b10c638ab45cd686894bc1ec',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'surjectivity --d 1 --k 2 --l 2 --ordering interior-first':
        (0, '7f42bc672bfd50af04fadd426b1b941afdf41f76ee4fb4336c46e8775b6ffb73',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'selftest --seed 0':
        (0, '18888c6db699cb6c6387818e92efe9c29a0dc135f6013dd1a2eaf61163575675',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'selftest --seed 1':
        (0, '9fe805d5f6ba25de2e82a9a893bc875d2bd44d142ff7a927f652b0cccc5537d0',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'selftest --seed 2':
        (0, 'cb91b7c4afbbd374d2176a69234b89aa75344a94d52a486ef4d661d19afab598',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'selftest --seed 3':
        (0, '1d5c18314e1023b3c71019dc13f986bbeb82420ab97cea992050b2415a2ea190',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'selftest --seed 4':
        (0, '8661fe295bb3f8c1751d74d1937dfaea07a8cd047753dd1c126d31c4167f4a86',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def test_battery_has_one_digest_per_command_line():
    assert sorted(GOLDEN) == sorted(BATTERY)


@pytest.mark.parametrize("argv", BATTERY)
def test_report_matches_its_golden_digest(argv):
    assert report_digest(argv) == GOLDEN[argv]
