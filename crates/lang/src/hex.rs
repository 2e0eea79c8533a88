//! The hex word: the *text form* of binary data in the command language.
//!
//! The grammar's quoted strings cannot carry newlines, quotes or arbitrary
//! bytes, so binary data written as text travels as a `<WORD>` of hex
//! digits behind an `x` prefix.  On a link a [`crate::Value::Blob`] rides
//! raw in the frame's attachment section instead (see
//! [`crate::CmdLine::to_frame`]); the hex word is what `to_wire`, `Display`
//! and logs show, and what text-only clients write for a blob-typed
//! argument.

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Hex-encode arbitrary bytes as a `<WORD>`.
pub fn hex_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len() * 2 + 1);
    write_hex(data, &mut out);
    out
}

/// Append the hex word of `data` to `out`.
pub(crate) fn write_hex(data: &[u8], out: &mut String) {
    // The `x` prefix keeps the token a <WORD> even when every digit is
    // decimal (which would re-lex as an integer).  Nibble lookups, not
    // `write!`: the formatting machinery is pure overhead per byte.
    out.reserve(data.len() * 2 + 1);
    out.push('x');
    for &b in data {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0f) as usize] as char);
    }
}

/// Marks a byte that is not a hex digit in [`NIBBLE`].
const NOT_HEX: u8 = 0xff;

/// The value of every ASCII hex digit, either case; [`NOT_HEX`] elsewhere.
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        table[DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The digits of a hex word, `x` prefix (optional) stripped, if they pair up.
fn digit_pairs(word: &str) -> Option<&[u8]> {
    let digits = word.strip_prefix('x').unwrap_or(word).as_bytes();
    digits.len().is_multiple_of(2).then_some(digits)
}

/// Decode a [`hex_encode`]d word (uppercase digits accepted, `x` prefix
/// optional).
pub fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    let digits = digit_pairs(hex)?;
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let (hi, lo) = (NIBBLE[pair[0] as usize], NIBBLE[pair[1] as usize]);
        if (hi | lo) > 0x0f {
            return None;
        }
        out.push(hi << 4 | lo);
    }
    Some(out)
}

/// Would [`hex_decode`] accept `word`?  Allocation-free, for validation.
pub(crate) fn is_hex_word(word: &str) -> bool {
    digit_pairs(word).is_some_and(|d| d.iter().all(|&b| NIBBLE[b as usize] != NOT_HEX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for data in [&b""[..], b"\x00\xff", b"multi\nline \"quoted\" text"] {
            let word = hex_encode(data);
            assert!(crate::value::is_word(&word));
            assert!(is_hex_word(&word));
            assert_eq!(hex_decode(&word).unwrap(), data);
        }
    }

    #[test]
    fn hex_decode_rejects_garbage() {
        for bad in ["abc", "xabc", "zz", "x0g", "x0\u{ff}0"] {
            assert_eq!(hex_decode(bad), None, "{bad}");
            assert!(!is_hex_word(bad), "{bad}");
        }
        assert!(hex_decode("").unwrap().is_empty());
        assert_eq!(hex_decode("xAb01").unwrap(), [0xab, 0x01]);
    }
}
