//! Deterministic synthetic object content.
//!
//! The real SRB brokered a petabyte of files; here every digital entity's
//! content is a deterministic pseudo-random byte stream keyed by a
//! per-object seed, so checksums are *real* MD5 digests of *reproducible*
//! bytes — corrupting a replica (flipping its seed) genuinely changes its
//! digest, which is what the UCSD data-integrity scenario verifies.
//!
//! The digest is streamed: the generator's words go straight into the
//! MD5 kernel one 64-byte block at a time, so no content buffer is ever
//! built, whatever the prefix length. Nothing is cached either — every
//! checksum operation generates and hashes its replica's bytes, and
//! computes at most one digest.

use crate::md5::{to_hex, Md5};
use bytes::{BufMut, Bytes, BytesMut};

/// Generates and digests synthetic content for objects.
///
/// To keep checksumming O(1) in object size (a simulated tape file can be
/// terabytes), the digest covers the first `min(size, PREFIX_LIMIT)`
/// generated bytes plus an encoding of the full length. Two objects with
/// the same seed but different sizes therefore still get different
/// digests, and any seed change (corruption) changes the digest.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentStore;

/// How many leading content bytes participate in the digest.
pub const PREFIX_LIMIT: u64 = 1 << 20; // 1 MiB

/// The content stream of one seed: SplitMix64 words, laid out
/// little-endian. Trivially seekable and statistically fine for content
/// bytes.
struct ContentWords(u64);

impl ContentWords {
    fn next_word(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

impl ContentStore {
    /// Generate the first `len` bytes of the content stream for `seed`.
    pub fn generate(seed: u64, len: usize) -> Bytes {
        let mut out = BytesMut::with_capacity(len.next_multiple_of(8));
        let mut words = ContentWords(seed);
        while out.len() < len {
            out.put_u64_le(words.next_word());
        }
        out.truncate(len);
        out.freeze()
    }

    /// The canonical MD5 hex digest for an object with `seed` and `size`:
    /// the MD5 of `generate(seed, min(size, PREFIX_LIMIT))` followed by
    /// `size` as 8 little-endian bytes.
    pub fn digest(seed: u64, size: u64) -> String {
        let prefix_len = size.min(PREFIX_LIMIT);
        let mut words = ContentWords(seed);
        let mut ctx = Md5::new();
        // Whole blocks: eight generated words are sixteen MD5 words.
        for _ in 0..prefix_len / 64 {
            let mut block = [0u32; 16];
            for pair in block.chunks_exact_mut(2) {
                let z = words.next_word();
                pair[0] = z as u32;
                pair[1] = (z >> 32) as u32;
            }
            ctx.update_block(&block);
        }
        // The partial block, the length and the padding take the byte path.
        let tail = (prefix_len % 64) as usize;
        let mut rest = [0u8; 64];
        for bytes in rest[..tail.next_multiple_of(8)].chunks_exact_mut(8) {
            bytes.copy_from_slice(&words.next_word().to_le_bytes());
        }
        ctx.update(&rest[..tail]);
        ctx.update(&size.to_le_bytes());
        to_hex(&ctx.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ContentStore::digest` values computed by the buffered,
    /// table-driven MD5 the unrolled kernel replaced, so they check the
    /// kernel against an independent implementation: (seed, size, hex).
    /// Sizes straddle the MD5 padding boundary (55/56/57, 119/120), the
    /// block and word edges, and the 1 MiB prefix limit.
    #[rustfmt::skip]
    const GOLDEN: [(u64, u64, &str); 80] = [
        (0, 0, "7dea362b3fac8e00956a4952a3d4f474"),
        (0, 1, "a2d846ea7e3e4f4f77265db187beff81"),
        (0, 7, "02243ded3e790d5cb45b457f67e6a398"),
        (0, 8, "61eda3e80441b7e90d4dc5d551102129"),
        (0, 55, "28d3919ea3a1396205ecba74bb46b1f4"),
        (0, 56, "e163131a4d2aef2d4c809c9fe406e13a"),
        (0, 57, "80099714bf2f0d45f36f58eff56d99be"),
        (0, 63, "24dae59042dd72617b78abd31c2ff8dd"),
        (0, 64, "e264c0d4390d114387d1685d362a4e8e"),
        (0, 65, "8ecb3b0e73c94be648f9da493360ad0f"),
        (0, 119, "e325f5cffee3bd99a6ef5ff47387ee06"),
        (0, 120, "50be63f496e305ceb3b520c8f8c6a7de"),
        (0, 4_095, "06a07b43013313be858c582a0d64b0bb"),
        (0, 4_096, "4fc1daf204d812578cb030b6aff8199f"),
        (0, 4_097, "9c3bd85bfdbf34995775764bdd499122"),
        (0, (1 << 20) - 1, "c6c67bc8960417cef4d4159ce015a192"),
        (0, 1 << 20, "f9406a5eebc92e18cb830815114774cd"),
        (0, (1 << 20) + 1, "8d654178df6fc3193f49eb80e21ff619"),
        (0, 4 << 20, "e92481000b081139e90ebd1b688bf58e"),
        (0, 10_000_000_000_000, "c4f7f85f05e45de39993b2a6a14b70a7"),
        (7, 0, "7dea362b3fac8e00956a4952a3d4f474"),
        (7, 1, "5bb033864db5546fef513b4c716e71e5"),
        (7, 7, "e86bf1bfca266e086d58e4834fc97efc"),
        (7, 8, "8320fba37f43f373584ad970fcc982cd"),
        (7, 55, "729c7967a3190e1477dc896b324b7868"),
        (7, 56, "17a743df2ef841d04a63aebf70bc10b7"),
        (7, 57, "84ef9bbcb21adef38a02f8ea577a9b83"),
        (7, 63, "3b31390f34fef5763ac270cc59923661"),
        (7, 64, "1e1de4bd1d97c4e1f47549c8e8f07a53"),
        (7, 65, "62e35983cc42dc6e87551adf5ab62d48"),
        (7, 119, "04a46889f6f264d2b27c1a27049c4538"),
        (7, 120, "ad02e170455469a02a4c08bff64c8df7"),
        (7, 4_095, "066c43c37eb9775f784cc42b73bdac28"),
        (7, 4_096, "e4fc11c91ac043d9462c3f7ab5e871d0"),
        (7, 4_097, "6bd6de847946ffe3e1cf69f07ef64a0e"),
        (7, (1 << 20) - 1, "709be562d54cc5e03af1b254183f73d2"),
        (7, 1 << 20, "365349f1c8eb69481ef1b8e1146d8c0d"),
        (7, (1 << 20) + 1, "ca1fbf5123b34df1bc683aa2d85df275"),
        (7, 4 << 20, "3e1467131c4a8ca8ee8587954823d694"),
        (7, 10_000_000_000_000, "d40f97f35a790d26e82b602ef744ee6b"),
        (0x9d67_4000, 0, "7dea362b3fac8e00956a4952a3d4f474"),
        (0x9d67_4000, 1, "3064e8937712f3dd2ec782f4a3121934"),
        (0x9d67_4000, 7, "72cef933695ebf7855184f0273bcee20"),
        (0x9d67_4000, 8, "29d02a7b512bacd53a3be8b0613eae48"),
        (0x9d67_4000, 55, "2201e1d862a317bbe95b693c2b84a836"),
        (0x9d67_4000, 56, "d04ba4d06ce0ebb0324aecbf2eabdb79"),
        (0x9d67_4000, 57, "7c1db61bb7a11d475f21c7e6987c5a52"),
        (0x9d67_4000, 63, "f2a875629d2120f17a9f17a08a2f0bbd"),
        (0x9d67_4000, 64, "e28b9c4b255047bea7782dde4521fcba"),
        (0x9d67_4000, 65, "8ad758ff63290d21b6e8017557c0f626"),
        (0x9d67_4000, 119, "6e38cbeec40d34e42d870b9615769c7e"),
        (0x9d67_4000, 120, "8d47dd84d855589f988988df97daa690"),
        (0x9d67_4000, 4_095, "bebeb73e2ea05c6cc78235067588afeb"),
        (0x9d67_4000, 4_096, "60c6b9378c14e795384712bca367dc03"),
        (0x9d67_4000, 4_097, "920c57a745e8c877ffee4f5927bc8b6b"),
        (0x9d67_4000, (1 << 20) - 1, "8bb76363a5ac8ed258cc90f0b96cb33d"),
        (0x9d67_4000, 1 << 20, "5a4c8aa8ff9f1877507f4ebe32a4dc73"),
        (0x9d67_4000, (1 << 20) + 1, "3f70b8101a8406da5cdc753c941a9f32"),
        (0x9d67_4000, 4 << 20, "afc35772805fb68f0dc0e61e19fefa6b"),
        (0x9d67_4000, 10_000_000_000_000, "8309fc80e19c19cc96ee068a1fc82fc6"),
        (u64::MAX, 0, "7dea362b3fac8e00956a4952a3d4f474"),
        (u64::MAX, 1, "d47ebe3e7949fa604708d23efde2ca77"),
        (u64::MAX, 7, "14880b760ca26124336079d51a6d051c"),
        (u64::MAX, 8, "3b90d418ea9c3160ba29c89bdda21590"),
        (u64::MAX, 55, "809b6296f6b6a16d77ddce2e21a1138b"),
        (u64::MAX, 56, "5c0f134406e1b96a1c9e735fb6f0bb8b"),
        (u64::MAX, 57, "eee2ba409db402ee7263d00034fb84b7"),
        (u64::MAX, 63, "47e80593f130962bce6c5cfc1a233620"),
        (u64::MAX, 64, "7631c73e8317096822773e82b6f3adf5"),
        (u64::MAX, 65, "13b68f09d2037b3970fdc1a76f3a4008"),
        (u64::MAX, 119, "e991b5a579cec7287024b5d9539e92b6"),
        (u64::MAX, 120, "2bc00225efff28ef96d88e8e09677cac"),
        (u64::MAX, 4_095, "b792512f908fdc71c914f1ede8c5a6aa"),
        (u64::MAX, 4_096, "208e478f37c582ddc77f815e4e120bee"),
        (u64::MAX, 4_097, "02fdb20d158ac265ab2f07c1e4d0f0e0"),
        (u64::MAX, (1 << 20) - 1, "7f8147e3ecaaa7a35cf382798f429458"),
        (u64::MAX, 1 << 20, "eeba9d244de5c9830800e10950e2a789"),
        (u64::MAX, (1 << 20) + 1, "41779b19e689d544abdaae7028d3cffb"),
        (u64::MAX, 4 << 20, "6b08c26c9cf5ad29b5603da72ad561d1"),
        (u64::MAX, 10_000_000_000_000, "ad4fee20aca21a8e43461565e824e121"),
    ];

    #[test]
    fn digests_match_the_pinned_values() {
        for (seed, size, hex) in GOLDEN {
            let digest = ContentStore::digest(seed, size);
            assert_eq!(digest, hex, "seed {seed} size {size}");
        }
    }

    #[test]
    fn digest_is_md5_of_prefix_then_length() {
        // Every size up to 8 KiB against the documented definition,
        // cycling through the pinned seeds.
        let seeds = [0, 7, 0x9d67_4000, u64::MAX];
        for n in 0..=8192u64 {
            let seed = seeds[n as usize % seeds.len()];
            let prefix = n.min(PREFIX_LIMIT) as usize;
            let mut bytes = ContentStore::generate(seed, prefix).to_vec();
            bytes.extend_from_slice(&n.to_le_bytes());
            let expected = Md5::hex_digest(&bytes);
            let digest = ContentStore::digest(seed, n);
            assert_eq!(digest, expected, "seed {seed} size {n}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a1 = ContentStore::generate(7, 100);
        let a2 = ContentStore::generate(7, 100);
        let b = ContentStore::generate(8, 100);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.len(), 100);
    }

    #[test]
    fn prefixes_are_consistent() {
        let long = ContentStore::generate(42, 1000);
        let short = ContentStore::generate(42, 10);
        assert_eq!(&long[..10], &short[..], "streams are seekable prefixes");
    }

    #[test]
    fn digest_depends_on_seed_and_size() {
        let d = ContentStore::digest(1, 1_000);
        assert_eq!(d, ContentStore::digest(1, 1_000));
        assert_ne!(d, ContentStore::digest(2, 1_000), "corruption changes the digest");
        assert_ne!(d, ContentStore::digest(1, 1_001), "size changes the digest");
        assert_eq!(d.len(), 32);
    }

    #[test]
    fn huge_objects_digest_quickly_via_prefix() {
        // 10 TB object: digest must not materialize the content.
        let d = ContentStore::digest(9, 10_000_000_000_000);
        assert_eq!(d.len(), 32);
        assert_ne!(
            ContentStore::digest(9, 10_000_000_000_000),
            ContentStore::digest(9, 10_000_000_000_001),
            "length still folded in beyond the prefix"
        );
    }

    #[test]
    fn zero_length_objects_have_digests() {
        assert_eq!(ContentStore::generate(3, 0).len(), 0);
        assert_eq!(ContentStore::digest(3, 0).len(), 32);
    }
}
