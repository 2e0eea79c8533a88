//! Non-cryptographic hashing used by the simulated crypto layer.
//!
//! FNV-1a in 64- and 128-bit widths.  These are *not* collision-resistant —
//! the whole security crate is a behavioural stand-in for SSL/RSA (see
//! DESIGN.md substitutions) — but they are real, deterministic functions the
//! cipher, MAC, and signature layers build on, so tampering and key
//! mismatches are actually detected in tests and experiments.

/// One FNV-1a step: mix `word` into state `h`.
fn fnv_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x100000001b3)
}

/// FNV-1a, 64-bit.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h = Fnv64Stream::unkeyed();
    h.update(data);
    h.raw()
}

/// FNV-1a with a seed mixed in first (keyed hash for MACs).
pub fn fnv64_keyed(key: u64, data: &[u8]) -> u64 {
    let mut h = Fnv64Stream::keyed(key);
    h.update(data);
    h.finish()
}

/// Streaming form of [`fnv64_keyed`]: feed input in pieces without
/// concatenating them into a buffer first.  Byte-for-byte identical to
/// hashing the concatenation, so the wire MAC format is unchanged while
/// the per-frame scratch allocation disappears.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64Stream {
    h: u64,
}

impl Fnv64Stream {
    /// Start a plain FNV-1a stream: its [`Fnv64Stream::raw`] is [`fnv64`]
    /// of what it absorbed.
    pub fn unkeyed() -> Fnv64Stream {
        Fnv64Stream {
            h: 0xcbf29ce484222325,
        }
    }

    /// Start a keyed stream (same seed-mixing as [`fnv64_keyed`]).
    pub fn keyed(key: u64) -> Fnv64Stream {
        Fnv64Stream {
            h: fnv_step(Fnv64Stream::unkeyed().h, key),
        }
    }

    /// Absorb more input.
    pub fn update(&mut self, data: &[u8]) {
        self.h = data.iter().fold(self.h, |h, &b| fnv_step(h, b as u64));
    }

    /// The FNV-1a state as it stands, without [`Fnv64Stream::finish`]'s
    /// avalanche.  FNV-1a has no finalizer, so a stream can be copied and
    /// continued: `fnv64(a ++ b)` is `a`'s stream updated with `b`.
    pub fn raw(self) -> u64 {
        self.h
    }

    /// Final avalanche (xorshift-multiply) so near-equal inputs diverge.
    pub fn finish(self) -> u64 {
        let mut h = self.h;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51afd7ed558ccd);
        h ^= h >> 33;
        h
    }
}

/// 128-bit digest as two independently-keyed 64-bit lanes.
pub fn fnv128(data: &[u8]) -> u128 {
    let lo = fnv64_keyed(0x9e3779b97f4a7c15, data);
    let hi = fnv64_keyed(0xc2b2ae3d27d4eb4f, data);
    ((hi as u128) << 64) | lo as u128
}

/// CRC-32 lookup tables for slicing-by-8: `CRC_TABLES[0]` is the classic
/// bytewise table of the reflected polynomial 0xEDB88320, and
/// `CRC_TABLES[k][b]` is the register after byte `b` and `k` zero bytes, so
/// eight table reads fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB88320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8:
/// eight bytes per step through [`CRC_TABLES`], the tail bytewise.  Unlike
/// FNV this detects *all* single-bit and burst errors up to 32 bits, which
/// is why the persistent store's write-ahead log frames records with it: a
/// torn or flipped log byte must never replay as valid data.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continue a [`crc32`] over more bytes: `crc32_update(crc32(a), b)` is
/// `crc32` of `a` followed by `b`, and `crc32_update(0, b)` is `crc32(b)`.
/// How a checksum is taken over bytes that are not in one buffer: a record
/// encoded field by field, a snapshot held in pages.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fnv64(b"abc"), fnv64(b"abc"));
        assert_eq!(fnv128(b"abc"), fnv128(b"abc"));
    }

    #[test]
    fn input_sensitive() {
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
        assert_ne!(fnv64(b"abc"), fnv64(b"ab"));
        assert_ne!(fnv128(b"abc"), fnv128(b"abd"));
    }

    #[test]
    fn key_sensitive() {
        assert_ne!(fnv64_keyed(1, b"abc"), fnv64_keyed(2, b"abc"));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let parts: [&[u8]; 4] = [b"key-le", b"", b"seq-le", b"ciphertext bytes \xff\x00"];
        let concat: Vec<u8> = parts.concat();
        for key in [0u64, 1, 0x9e3779b97f4a7c15] {
            let mut s = Fnv64Stream::keyed(key);
            for part in parts {
                s.update(part);
            }
            assert_eq!(s.finish(), fnv64_keyed(key, &concat));
        }
        let mut s = Fnv64Stream::unkeyed();
        for part in parts {
            s.update(part);
        }
        assert_eq!(s.raw(), fnv64(&concat));
        // The FNV-1a reference value of "a".
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn empty_input_ok() {
        // Just must not panic and be stable.
        assert_eq!(fnv64(b""), fnv64(b""));
    }

    #[test]
    fn crc32_check_value() {
        // The standard CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32 the slicing-by-8 form must equal: one table
    /// read per byte, the table built bit by bit here.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB88320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// `crc32` (slicing-by-8) equals the bytewise reference at every length
    /// 0..=64 and every offset 0..8, and over a megabyte.
    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let bytes: Vec<u8> = (0..(1 << 20) + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
        let mib = &bytes[3..3 + (1 << 20)];
        assert_eq!(crc32(mib), crc32_bytewise(mib), "1 MiB of seeded bytes");
    }

    /// A CRC continued piece by piece equals the one-shot CRC of the
    /// concatenation, wherever the pieces are cut, empty pieces included.
    #[test]
    fn crc32_update_continues_across_any_cut() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = crc32(&data);
        for a in 0..data.len() {
            for b in [
                a,
                (a + 1).min(data.len()),
                (a + 9).min(data.len()),
                data.len(),
            ] {
                let crc = crc32_update(crc32_update(crc32(&data[..a]), &data[a..b]), &data[b..]);
                assert_eq!(crc, whole, "cut at {a} and {b}");
            }
        }
        assert_eq!(crc32_update(0, b"123456789"), 0xCBF43926);
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let data = b"write-ahead log record payload".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut mutated = data.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&mutated),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }
}
