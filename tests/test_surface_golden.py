"""The surface profiles, pinned: sha256 of the JSON documents of the cone
profile and of an intermediate cover profile, one digest per n over d in 1..9.

The digests were recorded from the Gysin-sequence engine (per-degree kernels
and cokernels of cupping with h) before the closed form replaced it; the
closed form must reproduce them byte for byte.
"""

import hashlib
import json

import pytest

from contactloci.surface import cone_compact_cohomology, cover_homology

DEGREES = range(1, 10)

# (n, sha256 of the cone documents, sha256 of the cover documents)
GOLDEN = [
    (3, '6ae9d194c67e81884eb5f90ad2fc704c127cba5fa5514647e124bae0f92e4645', '1bb417ebf1e47d059a35663b33110566d877993bf8b48ba2dfaa67edc17e65bf'),
    (4, '44fdac6c9e582f9881027ec6256af0ad981c0c0e998a3b433630e83ade8cedd7', '950ff46bec9876a68c2a21afacc4890760dd792a861c72993e115905d3a7af7d'),
    (5, 'ff3c48536ec180d67061f5659c92626fcd6e77c050f418c1e393414b8baf81e4', '65b4e708477d63aaf3017a0a3d6079a9e5dcd694311c6716c2e55710f8bf5045'),
    (6, '0f393033e4099048ef9bb4631eef8245030a5bcdae5eb99432c8d34c1eb35bf9', '3961317f2bd185c8972f0e41bb2f4c6b62e2eba80ccdf31b3a41e9ea164043d0'),
    (7, '607a4aaf8cf2da8815f353abe2358fbe313ebf0491df398fad95195036585dc3', '35439df9486c82a55ab1943874b77e23d2f7a3f7c5dcb9f8fbfab666903c484e'),
    (8, '08ea2294d33a984883c40b89fc00960d6bccb444d2e1f5f6b663353e22a360ad', '21c76dd2f9d87d5bff1994083f7f2a5e158d47c8776227c7059515512a8830df'),
    (9, 'fd5634bcd9a7098844acc240d3e2df6fd515b3500128bd26ec49748e1c56f6cd', '58fd2d5baa6f28395ff237e3d542459c90277bd428334b61b443fef756f16043'),
    (10, '1b0543b572b9dba186f9113fda69641e1c5b53a3087e6f4c13ab3c06961fc005', '2dcafa2d66923b390c0bcc026e395fdae771176211f6a002c7a4d60faa90381e'),
    (11, 'f966c1c78b780a66d2943ce81c0f768df3bbd62dd3103af8bb4c76d695bf4308', '40cd0adb6a2fb6ec826e7f8f17dff7d1406c14e2c50d7dfd4bbb0ea1e1ba1352'),
    (12, 'f4215368958efe7b47a6599d10acb930585c6220cee8aa407158af3883d141ae', '03c5190cedeccb213c913f11c768616824b6d71d59fd95e7c94daf95c55d857a'),
]


def _digest(docs: list) -> str:
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("n,cone_sha,cover_sha", GOLDEN, ids=[f"n{row[0]}" for row in GOLDEN])
def test_surface_profiles_pinned(n, cone_sha, cover_sha):
    assert _digest([cone_compact_cohomology(n, d).to_doc() for d in DEGREES]) == cone_sha
    assert _digest([cover_homology(n, d, -1, 3 * d + 1).to_doc() for d in DEGREES]) == cover_sha
