//! A from-scratch MD5 (RFC 1321) implementation.
//!
//! The paper's §4 prototype run is a "datagridflow for data-integrity and
//! MD5 calculation ... executed by SRB Matrix servers for the UCSD
//! Library data". MD5 is cryptographically broken for signatures but
//! remains exactly what 2005-era datagrids used for integrity checking,
//! so we reproduce it rather than substitute a modern digest.
//!
//! There is one compression kernel: the 64 steps written out as four
//! rounds of sixteen, each with its shift, constant and message index
//! fixed, so no step reads a table or branches on its round.
//! [`Md5::update`] decodes bytes into sixteen little-endian words and
//! runs the kernel on them; [`ContentStore::digest`] feeds the same
//! kernel words straight from its generator, so digesting synthetic
//! content needs no byte buffer.
//!
//! [`ContentStore::digest`]: crate::ContentStore::digest

/// Streaming MD5 context.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// A fresh context.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &words(&self.buffer));
            self.buffered = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, &words(block));
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Absorb one 64-byte block already decoded into its sixteen
    /// little-endian words, skipping the byte decode. Only valid on a
    /// block boundary (nothing buffered), which is where the content
    /// store's streamed prefix feeds it.
    pub(crate) fn update_block(&mut self, block: &[u32; 16]) {
        debug_assert_eq!(self.buffered, 0, "update_block needs a block boundary");
        self.length = self.length.wrapping_add(64);
        compress(&mut self.state, block);
    }

    /// Finish and return the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.length.wrapping_mul(8);
        // 0x80, then zeros up to 56 mod 64, then the bit length.
        let pad = if self.buffered < 56 {
            56 - self.buffered
        } else {
            120 - self.buffered
        };
        let mut padding = [0u8; 64];
        padding[0] = 0x80;
        self.update(&padding[..pad]);
        self.update(&bit_len.to_le_bytes());
        let mut out = [0u8; 16];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Convenience: hex digest of `data`.
    pub fn hex_digest(data: &[u8]) -> String {
        let mut ctx = Md5::new();
        ctx.update(data);
        to_hex(&ctx.finalize())
    }
}

/// Decode a 64-byte block into its sixteen little-endian words.
fn words(block: &[u8]) -> [u32; 16] {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    m
}

// One step per round function. Each adds the round function, the
// message word and the sine-derived constant to `a`, rotates, and adds
// `b`. F and G are written as sums: their two terms never share a set
// bit, so `+` equals `|`, and each term can join the sum on its own.
// In G, `c & !d` does not read `b`, the value the previous step just
// produced, so it is added before `b` is ready.

#[inline(always)]
fn ff(a: u32, b: u32, c: u32, d: u32, m: u32, k: u32, s: u32) -> u32 {
    let sum = a.wrapping_add(m).wrapping_add(k);
    let sum = sum.wrapping_add(!b & d).wrapping_add(b & c);
    sum.rotate_left(s).wrapping_add(b)
}

#[inline(always)]
fn gg(a: u32, b: u32, c: u32, d: u32, m: u32, k: u32, s: u32) -> u32 {
    let sum = a.wrapping_add(m).wrapping_add(k);
    let sum = sum.wrapping_add(c & !d).wrapping_add(b & d);
    sum.rotate_left(s).wrapping_add(b)
}

#[inline(always)]
fn hh(a: u32, b: u32, c: u32, d: u32, m: u32, k: u32, s: u32) -> u32 {
    let sum = a.wrapping_add(m).wrapping_add(k).wrapping_add(c ^ d ^ b);
    sum.rotate_left(s).wrapping_add(b)
}

#[inline(always)]
fn ii(a: u32, b: u32, c: u32, d: u32, m: u32, k: u32, s: u32) -> u32 {
    let sum = a.wrapping_add(m).wrapping_add(k).wrapping_add(c ^ (b | !d));
    sum.rotate_left(s).wrapping_add(b)
}

/// The MD5 compression function: fold one block of sixteen
/// little-endian words into `state`. The constants are
/// `floor(abs(sin(i + 1)) * 2^32)` for step `i`.
fn compress(state: &mut [u32; 4], m: &[u32; 16]) {
    let [mut a, mut b, mut c, mut d] = *state;
    // Round 1: F, message words in order.
    a = ff(a, b, c, d, m[0], 0xd76aa478, 7);
    d = ff(d, a, b, c, m[1], 0xe8c7b756, 12);
    c = ff(c, d, a, b, m[2], 0x242070db, 17);
    b = ff(b, c, d, a, m[3], 0xc1bdceee, 22);
    a = ff(a, b, c, d, m[4], 0xf57c0faf, 7);
    d = ff(d, a, b, c, m[5], 0x4787c62a, 12);
    c = ff(c, d, a, b, m[6], 0xa8304613, 17);
    b = ff(b, c, d, a, m[7], 0xfd469501, 22);
    a = ff(a, b, c, d, m[8], 0x698098d8, 7);
    d = ff(d, a, b, c, m[9], 0x8b44f7af, 12);
    c = ff(c, d, a, b, m[10], 0xffff5bb1, 17);
    b = ff(b, c, d, a, m[11], 0x895cd7be, 22);
    a = ff(a, b, c, d, m[12], 0x6b901122, 7);
    d = ff(d, a, b, c, m[13], 0xfd987193, 12);
    c = ff(c, d, a, b, m[14], 0xa679438e, 17);
    b = ff(b, c, d, a, m[15], 0x49b40821, 22);
    // Round 2: G, message word (5i + 1) mod 16.
    a = gg(a, b, c, d, m[1], 0xf61e2562, 5);
    d = gg(d, a, b, c, m[6], 0xc040b340, 9);
    c = gg(c, d, a, b, m[11], 0x265e5a51, 14);
    b = gg(b, c, d, a, m[0], 0xe9b6c7aa, 20);
    a = gg(a, b, c, d, m[5], 0xd62f105d, 5);
    d = gg(d, a, b, c, m[10], 0x02441453, 9);
    c = gg(c, d, a, b, m[15], 0xd8a1e681, 14);
    b = gg(b, c, d, a, m[4], 0xe7d3fbc8, 20);
    a = gg(a, b, c, d, m[9], 0x21e1cde6, 5);
    d = gg(d, a, b, c, m[14], 0xc33707d6, 9);
    c = gg(c, d, a, b, m[3], 0xf4d50d87, 14);
    b = gg(b, c, d, a, m[8], 0x455a14ed, 20);
    a = gg(a, b, c, d, m[13], 0xa9e3e905, 5);
    d = gg(d, a, b, c, m[2], 0xfcefa3f8, 9);
    c = gg(c, d, a, b, m[7], 0x676f02d9, 14);
    b = gg(b, c, d, a, m[12], 0x8d2a4c8a, 20);
    // Round 3: H, message word (3i + 5) mod 16.
    a = hh(a, b, c, d, m[5], 0xfffa3942, 4);
    d = hh(d, a, b, c, m[8], 0x8771f681, 11);
    c = hh(c, d, a, b, m[11], 0x6d9d6122, 16);
    b = hh(b, c, d, a, m[14], 0xfde5380c, 23);
    a = hh(a, b, c, d, m[1], 0xa4beea44, 4);
    d = hh(d, a, b, c, m[4], 0x4bdecfa9, 11);
    c = hh(c, d, a, b, m[7], 0xf6bb4b60, 16);
    b = hh(b, c, d, a, m[10], 0xbebfbc70, 23);
    a = hh(a, b, c, d, m[13], 0x289b7ec6, 4);
    d = hh(d, a, b, c, m[0], 0xeaa127fa, 11);
    c = hh(c, d, a, b, m[3], 0xd4ef3085, 16);
    b = hh(b, c, d, a, m[6], 0x04881d05, 23);
    a = hh(a, b, c, d, m[9], 0xd9d4d039, 4);
    d = hh(d, a, b, c, m[12], 0xe6db99e5, 11);
    c = hh(c, d, a, b, m[15], 0x1fa27cf8, 16);
    b = hh(b, c, d, a, m[2], 0xc4ac5665, 23);
    // Round 4: I, message word 7i mod 16.
    a = ii(a, b, c, d, m[0], 0xf4292244, 6);
    d = ii(d, a, b, c, m[7], 0x432aff97, 10);
    c = ii(c, d, a, b, m[14], 0xab9423a7, 15);
    b = ii(b, c, d, a, m[5], 0xfc93a039, 21);
    a = ii(a, b, c, d, m[12], 0x655b59c3, 6);
    d = ii(d, a, b, c, m[3], 0x8f0ccc92, 10);
    c = ii(c, d, a, b, m[10], 0xffeff47d, 15);
    b = ii(b, c, d, a, m[1], 0x85845dd1, 21);
    a = ii(a, b, c, d, m[8], 0x6fa87e4f, 6);
    d = ii(d, a, b, c, m[15], 0xfe2ce6e0, 10);
    c = ii(c, d, a, b, m[6], 0xa3014314, 15);
    b = ii(b, c, d, a, m[13], 0x4e0811a1, 21);
    a = ii(a, b, c, d, m[4], 0xf7537e82, 6);
    d = ii(d, a, b, c, m[11], 0xbd3af235, 10);
    c = ii(c, d, a, b, m[2], 0x2ad7d2bb, 15);
    b = ii(b, c, d, a, m[9], 0xeb86d391, 21);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Lowercase hex encoding of a digest.
pub fn to_hex(digest: &[u8; 16]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(32);
    for &byte in digest {
        s.push(char::from(HEX[usize::from(byte >> 4)]));
        s.push(char::from(HEX[usize::from(byte & 0xf)]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContentStore;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let vectors = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in vectors {
            assert_eq!(Md5::hex_digest(input.as_bytes()), expected, "input {input:?}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut inputs: Vec<Vec<u8>> = vec![(0..=255u8).cycle().take(1_000).collect()];
        inputs.extend((0..=300).map(|len| ContentStore::generate(len as u64, len).to_vec()));
        inputs.push(ContentStore::generate(13, (1 << 20) + 13).to_vec());
        for data in &inputs {
            let one_shot = Md5::hex_digest(data);
            for chunk_size in [1, 3, 63, 64, 65, 127, 1000, 4096] {
                let mut ctx = Md5::new();
                for chunk in data.chunks(chunk_size) {
                    ctx.update(chunk);
                }
                let len = data.len();
                assert_eq!(
                    to_hex(&ctx.finalize()),
                    one_shot,
                    "length {len}, chunk size {chunk_size}"
                );
            }
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths around the 56-byte padding boundary are the classic
        // implementation trap.
        for len in 54..=66 {
            let data = vec![b'x'; len];
            let digest = Md5::hex_digest(&data);
            assert_eq!(digest.len(), 32);
            // Incremental must agree.
            let mut ctx = Md5::new();
            ctx.update(&data[..len / 2]);
            ctx.update(&data[len / 2..]);
            assert_eq!(to_hex(&ctx.finalize()), digest, "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Md5::hex_digest(b"ucsd-object-1"), Md5::hex_digest(b"ucsd-object-2"));
    }
}
