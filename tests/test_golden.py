"""The stable interface, pinned: sha256 of the stdout of fixed command lines.

The digests were recorded before the parameter-domain table, the one-pass
stratum sum and the shared formulas replaced their per-module copies; any
refactor behind the command line must reproduce them byte for byte.  The
lines cover every subcommand (scatter in all four formats), both parities of
n, d | m and d not dividing m, the empty locus m < d, and floer inputs inside
and outside the region where the isomorphism theorem determines the answer.
"""

import hashlib
import shlex

import pytest

from contactloci.cli import main

# (command line, --format, exit code, sha256 of stdout)
GOLDEN = [
    ('resolve --n 3 --d 2 --m 4', 'json', 0, '3373ba9d1096d94a2515be0943ec233a3cb174f2825f79b534343d326e31b102'),
    ('resolve --n 3 --d 2 --m 4', 'text', 0, '4194080c82c83feb51208392e632d8c6e7fa8101c2c63fd7e2e686ac24a3efd0'),
    ('resolve --n 4 --d 3 --m 7', 'json', 0, '381a84b0f8e444c8320c8e9b33e5b1180cee49cca1c4a5dea4cde5624a483351'),
    ('resolve --n 4 --d 3 --m 7', 'text', 0, 'ab55f13f3ec0f61d69b3724d5fc63d239388282a2893371050d49df688267cfd'),
    ('resolve --n 2 --d 1 --m 5', 'json', 0, 'c56eecd022baf0069ae3cdf84aa658431e261510b48c83295bf754a7c8976311'),
    ('resolve --n 2 --d 1 --m 5', 'text', 0, 'dfc9c8952eb1e7669d29fc0070a50758b36fd7ae85fb3f162e4ff51984f4f19b'),
    ('resolve --n 3 --d 5 --m 4', 'json', 0, '2aa879f1f3e8a15516e4cf8d8fd77d36ec0ae32f486b91b6362f6e7926058cce'),
    ('resolve --n 3 --d 5 --m 4', 'text', 0, '2e1641ddf129b93f97decbd2436e36b5063da40ffa5b06fc51ce81759bcfccb0'),
    ('cohomology --n 3 --d 5 --m 5', 'json', 0, 'ddf863199a8ad7dd6439167a3d7736d414f57608f7cb50b67c9da786e586d2f1'),
    ('cohomology --n 3 --d 5 --m 5', 'text', 0, 'c6626b1ba7163f17e913aaed73f431af18bee8d289eccfce5e8fd8c5f54d7375'),
    ('cohomology --n 4 --d 3 --m 7', 'json', 0, '94197967d1efe0dc3b59b9b7ce72c9559b1d15aed8f4a636b739d43821cb5cf6'),
    ('cohomology --n 4 --d 3 --m 7', 'text', 0, '5fd8c09d9b18359369072a65e636fe105655b4722eec5badcfa8a9af78612906'),
    ('cohomology --n 3 --d 2 --m 9', 'json', 0, 'a217068a48d7dd24eb5e2c2239eb081fef658e6c6d2a42e1d59d2961bc8179f1'),
    ('cohomology --n 3 --d 2 --m 9', 'text', 0, '141e5365b3ea92237198bce2960a82d3a11ca663453adde4fb906fae910c26d9'),
    ('cohomology --n 5 --d 5 --m 25', 'json', 0, 'e6f568e10ef3c381804520172699b57c78e9770efc923661dc725d6d5c760098'),
    ('cohomology --n 5 --d 5 --m 25', 'text', 0, 'a21ae227b50704ecab740f98cd77b38597485e71a5e46f98a9ea4c26bd733535'),
    ('cohomology --n 4 --d 2 --m 8', 'json', 0, '202425f1ae5b9d6a1d397a3f3d6cb3524e7ee74a9a347c170dcc2d44a62830be'),
    ('cohomology --n 4 --d 2 --m 8', 'text', 0, '8990be225bb42da0ef7db96c826bbe77e6e6ccd2f246da912a8a952efe92b71b'),
    ('cohomology --n 3 --d 5 --m 4', 'json', 0, 'bcf7133b62203e2f78e181b8f69008aeb04036d905a79ebcdb04f037690b86e0'),
    ('cohomology --n 3 --d 5 --m 4', 'text', 0, '80eb6106629994a47d82797001907a0912013d4abb3f8967d73098d6e229e6a0'),
    ('cohomology --n 5 --d 2 --m 400', 'json', 0, '8c8e13555161ccb3e9762a57e0b8cba4378753ecfdb36e9ac28117407039c79f'),
    ('cohomology --n 5 --d 2 --m 400', 'text', 0, '3835092df601060d211888e8762c37d0be2f84a837e50dbbfc7ac835eae01f80'),
    ('floer --n 3 --d 5 --m 5', 'json', 0, '47cafb67162a3e8063cdac579df3b71a6ffb971345ac2f722e4ef29073c6ee1a'),
    ('floer --n 3 --d 5 --m 5', 'text', 0, '9d724b55e4a45ebf3667ca26b1fc890657ec52107bea0ff8a5ec78b0cd03de30'),
    ('floer --n 3 --d 5 --m 13', 'json', 0, 'ee671d501e50eba0933ef102955c3ef53cb0ce7ebf209a4f551efdd42d368cec'),
    ('floer --n 3 --d 5 --m 13', 'text', 0, 'fd53ccfb07ce3cbfbfee8ed83057e315e228259dbb3450128a1770660af3b94e'),
    ('floer --n 4 --d 7 --m 30', 'json', 0, '16e85ac0ce3c690b2254b0e26b57d42a289852e14508651933f70e08df52569f'),
    ('floer --n 4 --d 7 --m 30', 'text', 0, '12292c51adc77aca332a50a77d24f4ea81b58364e3e94e2853698b1e08539668'),
    ('floer --n 5 --d 2 --m 11', 'json', 0, 'f84b813c22450328dd118a8911fc96f20fe3c1bfd2d333202aaa49bcdb59dc8e'),
    ('floer --n 5 --d 2 --m 11', 'text', 0, 'c72e7a6798304c85a123043447d7e817ce4b406b9613bac3249bf6d8e1cc2cd8'),
    ('floer --n 3 --d 3 --m 9', 'json', 0, '6f46eec7a1fcb668b33ed51d39980592aa00243431541eca70181a88311b3591'),
    ('floer --n 3 --d 3 --m 9', 'text', 0, '44fa24d2f405a7bfe33814ebbbbe997d87cbbf0f274bfdb2b90f03f0b94a05c9'),
    ('floer --n 4 --d 3 --m 6', 'json', 0, '192423314c9c4308e5b8aab4bcd7bc760ec56cfa3be105afbd2de8a14700df08'),
    ('floer --n 4 --d 3 --m 6', 'text', 0, '395b582a6a453fb69f33f7c2f164983a02a91df98de910ef626febb420ffa406'),
    ('floer --n 3 --d 5 --m 4', 'json', 0, '1dcf835b0c8cabc1d3dcd211262f848ac01980c0bf6f0c4d7c02783b80af078d'),
    ('floer --n 3 --d 5 --m 4', 'text', 0, 'b904e0405941bcfc2d2462b099a6bc48cdc49fb66568083bab4a8ba6913f34aa'),
    ('nash --n 3 --d 2 --m 4', 'json', 0, '258746d73f4eedc9cabe550c47512fc493de7e99d66a4112b985452703768c4c'),
    ('nash --n 3 --d 2 --m 4', 'text', 0, '75dccbc03997571a604c8dba500847f4c885ce0e5b7bcd7ca26585377087fac5'),
    ('nash --n 4 --d 5 --m 11', 'json', 0, 'fe607ec84c98ef9505fae972389b61296fb270f8e397f54d7531f4cb8e7f1462'),
    ('nash --n 4 --d 5 --m 11', 'text', 0, '905112960295ee45713870ab6a509eaeaeeccf8509617389f8e398825d044a31'),
    ('nash --n 2 --d 1 --m 5', 'json', 0, '436b84100334028a70a47c7a5feaee00b4b1e0780050f2491715820651e83bca'),
    ('nash --n 2 --d 1 --m 5', 'text', 0, '6c1644d05b70cc91424317a781218e5b94ef71dd04144ed8c60e41df2d712087'),
    ('nash --n 3 --d 5 --m 4', 'json', 0, 'bd8fac6d3666c02f710b8758ae1733bde860cff27b169456882f0c765abaace7'),
    ('nash --n 3 --d 5 --m 4', 'text', 0, '9ec0111b07bdc783fb0aafc238fb553d6d374475b7556b7f7138f7cf6538a7fc'),
    ('euler --n 4 --d 3 --m 6', 'json', 0, '4aa0040c087eed862961e13cb24ba6f5a5765eb177c27a7a37644542c39202ea'),
    ('euler --n 4 --d 3 --m 6', 'text', 0, '70b73302b45d1862c6559139492b981d163d47f0fb9478d8cd5fec2a67f0f8f5'),
    ('euler --n 3 --d 2 --m 7', 'json', 0, '24e2665b3abc56e2d2be73ff8d9e2c885c73851e64748f1fb79d2b5be6269d65'),
    ('euler --n 3 --d 2 --m 7', 'text', 0, 'adba80788068e23ce29ffd256b65ab5b926f37d9db1861f54127d5e230fde009'),
    ('euler --n 5 --d 3 --m 9', 'json', 0, '127a5df6e05f7b8293b987602b9a78de024fc17307bbf170d0d9637ca0bffefc'),
    ('euler --n 5 --d 3 --m 9', 'text', 0, '7fad9e1746be9e04b47a4b6276fc22d8ed8e0d2142646b62cdb2fcb1b2d4b292'),
    ('euler --n 3 --d 4 --m 3', 'json', 0, '085d8a29d529d4742d76c6c031f183a7aadbb5c8636da9f654dabb2ed9c2d9d8'),
    ('euler --n 3 --d 4 --m 3', 'text', 0, 'adba80788068e23ce29ffd256b65ab5b926f37d9db1861f54127d5e230fde009'),
    ('scatter --nmax 12 --dmax 9', 'json', 0, '7ef0a8c1db5a0e4cda0a48f5fac80f196d9c5b9f87cad3c8eee46d4cfeb1e75d'),
    ('scatter --nmax 12 --dmax 9', 'text', 0, '3e9d819cc752a2e396e4face49891a53eecf158bb1c931bf1bf5675ade09cd17'),
    ('scatter --nmax 12 --dmax 9', 'csv', 0, 'ab9ca7b6fee8b9c39f4b4562f8c98edfae7b8f62de78d9ca050edb26f635e484'),
    ('scatter --nmax 12 --dmax 9', 'svg', 0, 'a861f427bf40b0e3333b16b7cc0f35330fe7b3ddbfacb55729e6929697cba9f5'),
    ('verify --f x0^2+x1^2+x2^2 --m 3 --primes 3,5', 'json', 0, '647cdbb5ce2101d4205a0fb40d78eaa43b7ca89497cbe8fd6af35d4708a84f0f'),
    ('verify --f x0^2+x1^2+x2^2 --m 3 --primes 3,5', 'text', 0, '1e6197cf8e6722fa9c124c4aae1ec60e837409514a6fdbd44a2a28bef6a696eb'),
    ('verify --f x0^3+x1^3+x2^3 --m 4 --primes 5,7', 'json', 0, '401f6604fbfb0cd0111714d419e7d14838e0c0a20630c29983f31d45f0d8d398'),
    ('verify --f x0^3+x1^3+x2^3 --m 4 --primes 5,7', 'text', 0, 'c6167691d7a2010223322ec806d663a916f0d42471d37d2b0f93e69a37183d05'),
    ('verify --f x0^2+x1^2+x2^2+x0^3+2*x1^3 --m 3 --primes 3', 'json', 0, 'c94d14c5447bc99a71fb1080c8c2701178adbebef2d4409694bcc335cf16dc8a'),
    ('verify --f x0^2+x1^2+x2^2+x0^3+2*x1^3 --m 3 --primes 3', 'text', 0, 'f587d3797947d46fc8449bb77af2131d05003adbb46a90522aa30695ef1ea5b2'),
    ('verify --f x0^3+x1^3+x2^3 --m 2 --primes 5', 'json', 0, '3cee7991e8e9423843788a5d4ef050774cf8bf3f709c8d4fe38c5405e08bc3cd'),
    ('verify --f x0^3+x1^3+x2^3 --m 2 --primes 5', 'text', 0, '9f1a1cf52a3aab3877fe9e6306bba5ab22294cb108ed427ea51b4921baffafa1'),
    ('cohomology --n 3 --d 3 --m 10', 'json', 0, '8ab1253122c282c8c489f92b4404a8ced2a494413986821b326761d5a2652674'),
    ('cohomology --n 3 --d 3 --m 10', 'text', 0, '5013b2ba1caaa7e0f0c1da5bff4f54bf6e53535120dfaadcab45ed72aa569af3'),
    ('cohomology --n 7 --d 2 --m 31', 'json', 0, 'f223a6d059ad80c1b094140549459729dfff2956e802d2dace6b76f6fe678178'),
    ('cohomology --n 7 --d 2 --m 31', 'text', 0, 'f47eb12f0c4587b66c1b687d4ea0442ec3b61c6e8755ab33e184661c368dfd5c'),
    ('floer --n 9 --d 4 --m 41', 'json', 0, '76808a88df92eb1c7479ef2f02ed843676f08c3f29905603a80107bc4819cc9c'),
    ('floer --n 9 --d 4 --m 41', 'text', 0, '4e1e249fae308c4a89c8ae25655176677620375e12e8567a4d51eb4fcf42df53'),
    ('verify --f \'{"n": 3, "terms": [{"exps": [2, 0, 0], "coeff": 1}, {"exps": [0, 2, 0], "coeff": 1}, {"exps": [0, 0, 2], "coeff": 1}]}\' --m 2 --primes 3', 'json', 0, '193b275a581f72b4c427aa2ae37ae49981570c99f21d1e75f44f080a9bb8a6e5'),
    ('verify --f \'{"n": 3, "terms": [{"exps": [2, 0, 0], "coeff": 1}, {"exps": [0, 2, 0], "coeff": 1}, {"exps": [0, 0, 2], "coeff": 1}]}\' --m 2 --primes 3', 'text', 0, '65ee2cf7ec5c650e6147522fa489ec678d2f7546b9557bf8a67f87fa735c2798'),
]


@pytest.mark.parametrize("line, fmt, code, digest", GOLDEN)
def test_golden_output(capsys, line, fmt, code, digest):
    assert main([*shlex.split(line), "--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, line
