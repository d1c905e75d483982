//! SHA-256, implemented locally because the build environment is
//! offline (see `vendor/README.md` for the same constraint on the other
//! shimmed dependencies).
//!
//! The store only needs a *stable, collision-resistant content address*
//! — no cryptographic agility, no HMAC — so the plain FIPS 180-4
//! algorithm with an incremental [`Sha256::update`] API is enough. The
//! incremental API matters: workload programs carry multi-MiB data
//! arenas, and fingerprinting streams them through the compression
//! function without building a serialized copy first.
//!
//! Two block compressors compute the same function:
//!
//! * the **portable** one, a direct transcription of FIPS 180-4 §6.2.2
//!   in plain Rust. It runs on every CPU and is the reference the other
//!   is tested against (`accelerated_matches_portable` below, on top of
//!   the FIPS vectors);
//! * the **SHA-NI** one, built on the x86-64 SHA extensions
//!   (`sha256rnds2`, `sha256msg1/2`), several times faster per block.
//!
//! [`Sha256::new`] picks the SHA-NI compressor when the running CPU
//! reports `sha`, `ssse3` and `sse4.1` (`is_x86_feature_detected!`), and
//! the portable one otherwise — always on non-x86-64 targets. Nothing
//! else selects a path: there is no flag, environment variable or cargo
//! feature, and both produce the same digests byte for byte.
//! [`Sha256::update`] hands the compressor every whole 64-byte block of
//! a call at once, so the choice is paid once per call, not per block.

/// Per FIPS 180-4 §4.2.2: the first 32 bits of the fractional parts of
/// the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Which block compressor a hasher runs; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Compressor {
    Portable,
    /// Produced only by [`Compressor::detect`], after the CPU has
    /// reported every feature `shani::compress_blocks` is compiled for.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Compressor {
    /// The fastest compressor the running CPU supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Self::ShaNi;
        }
        Self::Portable
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks, in
    /// message order) into `state`.
    fn run(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Self::Portable => {
                for block in blocks.chunks_exact(64) {
                    compress(state, block.try_into().expect("chunk is 64 bytes"));
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `ShaNi` is only constructed by `detect`, after
            // `is_x86_feature_detected!` confirmed the sha, ssse3 and
            // sse4.1 features `compress_blocks` is compiled for (sse2 is
            // part of the x86-64 baseline).
            Self::ShaNi => unsafe { shani::compress_blocks(state, blocks) },
        }
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    /// Current hash state (H0..H7).
    state: [u32; 8],
    /// Partial input block awaiting compression.
    buf: [u8; 64],
    /// Bytes currently in `buf`.
    buf_len: usize,
    /// Total message length in bytes.
    total: u64,
    /// The block compressor chosen for this CPU.
    compressor: Compressor,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher (FIPS 180-4 §5.3.3 initial state).
    pub fn new() -> Self {
        Self::with_compressor(Compressor::detect())
    }

    fn with_compressor(compressor: Compressor) -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
            compressor,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // Partial buffer and nothing left to absorb.
                return;
            }
            self.compressor.run(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        let (blocks, tail) = rest.split_at(whole);
        if !blocks.is_empty() {
            self.compressor.run(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the message and returns the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        // 0x80, zeros up to 56 mod 64, then the 64-bit length: one
        // update that ends exactly on a block boundary.
        let zeros = (119 - self.buf_len) % 64;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..9 + zeros]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Finishes and formats the digest as lowercase hex.
    pub fn finish_hex(self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.finish() {
            s.push(HEX[usize::from(b >> 4)].into());
            s.push(HEX[usize::from(b & 0xf)].into());
        }
        s
    }
}

/// The portable compressor: one round over a 64-byte block (FIPS 180-4
/// §6.2.2).
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The SHA-NI compressor (Intel SHA Extensions; Gulley et al., 2013).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Compresses `blocks` (a whole number of 64-byte blocks) into
    /// `state`.
    ///
    /// The SHA instructions keep the eight working variables as two
    /// vectors, ABEF and CDGH (highest lane first), so the state is
    /// shuffled into that layout once on entry and back once on exit.
    /// Each `sha256rnds2` runs two rounds; `sha256msg1/2` extend the
    /// message schedule four words at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order: every 32-bit message word is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // `state` is 32 bytes; the unaligned loads read its two halves.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // `block` is 64 bytes: four 16-byte unaligned loads.
            let p: *const __m128i = block.as_ptr().cast();
            // The last four schedule vectors, W[4i-16..4i] in order.
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
            ];
            for i in 0..16 {
                let msg = if i < 4 {
                    w[i]
                } else {
                    // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
                    let t = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[0], w[1]),
                        _mm_alignr_epi8(w[3], w[2], 4),
                    );
                    let next = _mm_sha256msg2_epu32(t, w[3]);
                    w = [w[1], w[2], w[3], next];
                    next
                };
                // `K` has 64 words: the load reads K[4i..4i+4].
                let wk = _mm_add_epi32(msg, _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

/// One-shot convenience: the hex digest of `data`.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVP reference vectors.
    #[test]
    fn empty_message() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        // Streamed in uneven chunks to exercise the buffering path.
        let data = [b'a'; 997];
        let mut fed = 0;
        while fed < 1_000_000 {
            let n = data.len().min(1_000_000 - fed);
            h.update(&data[..n]);
            fed += n;
        }
        assert_eq!(
            h.finish_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 127, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish_hex(), sha256_hex(&data), "split at {split}");
        }
    }

    /// The hex digest of `parts`, fed in order, under `compressor`.
    fn digest(compressor: Compressor, parts: &[&[u8]]) -> String {
        let mut h = Sha256::with_compressor(compressor);
        for part in parts {
            h.update(part);
        }
        h.finish_hex()
    }

    /// Deterministic, non-periodic test bytes.
    fn bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn accelerated_matches_portable() {
        let fast = Compressor::detect();
        if fast == Compressor::Portable {
            eprintln!(
                "no SHA-NI on this CPU: only the portable compressor runs here, \
                 so this test checks it alone (the FIPS vectors pin it)"
            );
        }
        assert_eq!(
            Sha256::new().compressor,
            fast,
            "new() uses the detected path"
        );
        let data = bytes(4 << 20);
        for len in 0..=300 {
            let msg = &data[..len];
            let want = digest(Compressor::Portable, &[msg]);
            assert_eq!(digest(fast, &[msg]), want, "length {len}");
            assert_eq!(sha256_hex(msg), want, "length {len}");
        }
        let msg = &data[..1000];
        let want = digest(Compressor::Portable, &[msg]);
        for split in 0..=msg.len() {
            let (a, b) = msg.split_at(split);
            assert_eq!(digest(fast, &[a, b]), want, "split at {split}");
            assert_eq!(
                digest(Compressor::Portable, &[a, b]),
                want,
                "split at {split}"
            );
        }
        assert_eq!(
            digest(fast, &[&data]),
            digest(Compressor::Portable, &[&data]),
            "4 MiB buffer"
        );
    }
}
